package index

import (
	"math/rand"
	"reflect"
	"testing"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

func lineSetup() (*topology.Graph, *cluster.Clustering, []metric.Feature) {
	g := topology.NewGrid(1, 6)
	feats := []metric.Feature{{0}, {1}, {2}, {10}, {11}, {12}}
	c := cluster.FromRoots([]topology.NodeID{0, 0, 0, 3, 3, 3})
	return g, c, feats
}

func TestBuildStructure(t *testing.T) {
	g, c, feats := lineSetup()
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(idx.Clusters))
	}
	cl := idx.Clusters[0]
	if cl.Root != 0 {
		t.Errorf("root = %d, want 0", cl.Root)
	}
	// Chain 0-1-2: entry depths 0,1,2; radii: leaf 2 has 0, node 1 has
	// d(1,2)=1, root has d(0,1)+R(1)=2.
	if d := idx.Depth(2); d != 2 {
		t.Errorf("depth(2) = %d, want 2", d)
	}
	if r := idx.Radius[2]; r != 0 {
		t.Errorf("leaf radius = %v, want 0", r)
	}
	if r := idx.Radius[1]; r != 1 {
		t.Errorf("radius(1) = %v, want 1", r)
	}
	if r := idx.Radius[0]; r != 2 {
		t.Errorf("root radius = %v, want 2", r)
	}
	if err := idx.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildChargesTreeEdgesAndBackbone(t *testing.T) {
	g, c, feats := lineSetup()
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	// Two clusters of 3 -> 2+2 index messages; one backbone edge between
	// roots 0 and 3 at hop distance 3.
	if got := idx.BuildStats.Breakdown["index"]; got != 4 {
		t.Errorf("index build cost = %d, want 4", got)
	}
	if got := idx.BuildStats.Breakdown["backbone"]; got != 3 {
		t.Errorf("backbone cost = %d, want 3", got)
	}
	if len(idx.Backbone) != 1 {
		t.Fatalf("backbone edges = %d, want 1", len(idx.Backbone))
	}
}

func TestBackboneSpansAllClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := topology.RandomGeometricForDegree(80, 4, rng)
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = rng.Intn(6)
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{rng.Float64()}
	}
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	// A spanning tree over k clusters of one component has k-1 edges.
	if got, want := len(idx.Backbone), len(idx.Clusters)-1; got != want {
		t.Errorf("backbone edges = %d, want %d", got, want)
	}
	if err := idx.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	g, c, feats := lineSetup()
	if _, err := Build(g, c, feats[:3], metric.Scalar{}); err == nil {
		t.Error("accepted short feature slice")
	}
	ids := func(v ...topology.NodeID) []topology.NodeID { return v }
	for name, bad := range map[string]*cluster.Clustering{
		"disconnected cluster": cluster.FromRoots([]topology.NodeID{0, 3, 0, 3, 3, 3}),
		"member out of range":  {Members: [][]topology.NodeID{ids(0, 1, 2), ids(3, 4, 5, 6)}, Roots: ids(0, 3)},
		"negative member":      {Members: [][]topology.NodeID{ids(-1, 0, 1, 2), ids(3, 4, 5)}, Roots: ids(0, 3)},
		"empty cluster":        {Members: [][]topology.NodeID{ids(0, 1, 2), nil, ids(3, 4, 5)}, Roots: ids(0, -1, 3)},
		"negative root":        {Members: [][]topology.NodeID{ids(0, 1, 2), ids(3, 4, 5)}, Roots: ids(0, -2)},
		"root not a member":    {Members: [][]topology.NodeID{ids(0, 1, 2), ids(3, 4, 5)}, Roots: ids(0, 2)},
		"node in two clusters": {Members: [][]topology.NodeID{ids(0, 1, 2), ids(2, 3, 4, 5)}, Roots: ids(0, 3)},
		"node in no cluster":   {Members: [][]topology.NodeID{ids(0, 1, 2), ids(3, 4)}, Roots: ids(0, 3)},
	} {
		if _, err := Build(g, bad, feats, metric.Scalar{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestClusteringRebuildsTheIndex checks that Build over an index's own
// Clustering and the same features reproduces it exactly — the contract
// a snapshot restore rests on — also when the input roots were -1.
func TestClusteringRebuildsTheIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := topology.RandomGeometricForDegree(80, 4, rng)
	labels := make([]int, g.N())
	feats := make([]metric.Feature, g.N())
	for u := range labels {
		labels[u] = rng.Intn(6)
		feats[u] = metric.Feature{rng.NormFloat64(), rng.NormFloat64()}
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	for ci := 0; ci < len(c.Roots); ci += 2 {
		c.Roots[ci] = -1
	}
	idx, err := Build(g, c, feats, metric.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Build(g, idx.Clustering(), feats, metric.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, idx) {
		t.Fatal("index rebuilt over its own clustering differs")
	}
}

func TestRadiusInvariantRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomGeometricForDegree(60, 4, rng)
		labels := make([]int, g.N())
		for i := range labels {
			labels[i] = rng.Intn(5)
		}
		c := cluster.FromAssignment(labels).SplitDisconnected(g)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{rng.NormFloat64() * 3, rng.NormFloat64()}
		}
		m := metric.Euclidean{}
		idx, err := Build(g, c, feats, m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := idx.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDepthAndMaxRadius(t *testing.T) {
	g, c, feats := lineSetup()
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Depth(2) != 2 || idx.Depth(0) != 0 {
		t.Error("Depth wrong")
	}
	if idx.MaxRadius() != 2 {
		t.Errorf("MaxRadius = %v, want 2", idx.MaxRadius())
	}
}

func TestSingleClusterNoBackbone(t *testing.T) {
	g := topology.NewGrid(3, 3)
	c := cluster.FromRoots(make([]topology.NodeID, g.N())) // all rooted at 0
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{1}
	}
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Backbone) != 0 {
		t.Errorf("single cluster should have no backbone edges, got %d", len(idx.Backbone))
	}
	if idx.BuildStats.Breakdown["backbone"] != 0 {
		t.Error("no backbone cost expected")
	}
}

func TestAllSingletonClusters(t *testing.T) {
	g := topology.NewGrid(3, 3)
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = i
	}
	c := cluster.FromAssignment(labels)
	for ci := range c.Roots {
		c.Roots[ci] = c.Members[ci][0]
	}
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{float64(i)}
	}
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	// Every entry is a leaf with radius 0; the backbone spans 9 roots.
	for _, cl := range idx.Clusters {
		if idx.Radius[cl.Root] != 0 {
			t.Errorf("singleton radius = %v", idx.Radius[cl.Root])
		}
	}
	if len(idx.Backbone) != 8 {
		t.Errorf("backbone edges = %d, want 8", len(idx.Backbone))
	}
	if err := idx.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNegativeRootFallsBackToFirstMember(t *testing.T) {
	g := topology.NewGrid(1, 3)
	c := &cluster.Clustering{
		Assign:  []int{0, 0, 0},
		Members: [][]topology.NodeID{{0, 1, 2}},
		Roots:   []topology.NodeID{-1},
	}
	feats := []metric.Feature{{0}, {1}, {2}}
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Clusters[0].Root != 0 {
		t.Errorf("root = %d, want fallback to first member", idx.Clusters[0].Root)
	}
}

func TestRefreshRepairsRadii(t *testing.T) {
	g, c, feats := lineSetup()
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 2 (chain 0-1-2) jumps from 2 to 7: radii along the path must
	// grow to cover it.
	feats[2] = metric.Feature{7}
	msgs, err := idx.Refresh([]topology.NodeID{2}, feats)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != 2 {
		t.Errorf("refresh cost = %d, want 2 (both path edges affected)", msgs)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := idx.Radius[0]; r != 7 {
		t.Errorf("root radius = %v, want 7", r)
	}
	// Moving it back shrinks the radii again.
	feats[2] = metric.Feature{2}
	if _, err := idx.Refresh([]topology.NodeID{2}, feats); err != nil {
		t.Fatal(err)
	}
	if r := idx.Radius[0]; r != 2 {
		t.Errorf("root radius after shrink = %v, want 2", r)
	}
}

func TestRefreshEarlyExit(t *testing.T) {
	// A 5-chain cluster; refreshing the deep leaf with an update that
	// does not change its parent's radius must stop early.
	g := topology.NewGrid(1, 5)
	c := cluster.FromRoots([]topology.NodeID{0, 0, 0, 0, 0})
	feats := []metric.Feature{{0}, {0}, {0}, {5}, {0}}
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 4's parent is 3, whose radius is d(F3,F4)+R4 = |5-f4| = 5.
	// Moving node 4 from 0 to 10 keeps |5-f4| = 5, so node 3's radius is
	// unchanged and the repair wave must stop there.
	before := idx.Radius[0]
	feats[4] = metric.Feature{10}
	msgs, err := idx.Refresh([]topology.NodeID{4}, feats)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if idx.Radius[0] != before {
		t.Errorf("root radius changed from %v to %v", before, idx.Radius[0])
	}
	// The wave reported 4 -> 3 and stopped when 3's radius was unchanged.
	if msgs > 2 {
		t.Errorf("refresh cost = %d, want early exit", msgs)
	}
}

// Property: after any sequence of refreshes, the index invariant holds
// and range queries remain exact against the updated features.
func TestRefreshKeepsQueriesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := topology.RandomGeometricForDegree(50, 4, rng)
	labels := make([]int, g.N())
	feats := make([]metric.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		labels[u] = rng.Intn(4)
		feats[u] = metric.Feature{rng.Float64() * 10}
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 120; step++ {
		u := topology.NodeID(rng.Intn(g.N()))
		feats[u] = metric.Feature{rng.Float64() * 10}
		if _, err := idx.Refresh([]topology.NodeID{u}, feats); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	// The index's own feature copy must now match the evolved slice.
	for u := range feats {
		if !idx.Features[u].Equal(feats[u]) {
			t.Fatalf("feature drift at node %d", u)
		}
	}
}
