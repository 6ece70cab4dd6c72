package query

import (
	"math/rand"
	"testing"

	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/topology"
)

// randomClusteredIndex builds a random geometric network with a smooth
// field, clusters it by feature bands, and indexes it.
func randomClusteredIndex(t *testing.T, seed int64, n int) (*index.Index, []metric.Feature) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topology.RandomGeometricForDegree(n, 4, rng)
	feats := make([]metric.Feature, g.N())
	labels := make([]int, g.N())
	min, max := g.BoundingBox()
	for u := 0; u < g.N(); u++ {
		fx := (g.Pos[u].X - min.X) / (max.X - min.X + 1e-9)
		band := int(fx * 4)
		labels[u] = band
		feats[u] = metric.Feature{float64(band)*5 + rng.Float64()}
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	idx, err := index.Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, feats
}

func TestRangeMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		idx, feats := randomClusteredIndex(t, seed, 60)
		rng := rand.New(rand.NewSource(seed + 900))
		for trial := 0; trial < 10; trial++ {
			q := metric.Feature{rng.Float64() * 20}
			r := rng.Float64() * 6
			initiator := topology.NodeID(rng.Intn(len(feats)))
			got := Range(idx, q, r, initiator, nil)
			want := BruteForce(feats, metric.Scalar{}, q, r)
			if len(got.Matches) != len(want) {
				t.Fatalf("seed %d trial %d: got %d matches, want %d", seed, trial, len(got.Matches), len(want))
			}
			for i := range want {
				if got.Matches[i] != want[i] {
					t.Fatalf("seed %d trial %d: match %d = %v, want %v", seed, trial, i, got.Matches[i], want[i])
				}
			}
		}
	}
}

func TestRangePrunesFarQueries(t *testing.T) {
	idx, _ := randomClusteredIndex(t, 3, 80)
	// A query far outside the feature range excludes every cluster.
	res := Range(idx, metric.Feature{1e6}, 0.5, 0, nil)
	if len(res.Matches) != 0 {
		t.Error("far query should match nothing")
	}
	if res.ClustersExcluded != len(idx.Clusters) {
		t.Errorf("excluded %d of %d clusters", res.ClustersExcluded, len(idx.Clusters))
	}
	if res.Stats.Breakdown[KindDescend] != 0 {
		t.Error("no descent messages expected when everything is pruned")
	}
}

func TestRangeIncludesWholeClusters(t *testing.T) {
	idx, feats := randomClusteredIndex(t, 4, 80)
	// A huge radius covers everything.
	res := Range(idx, metric.Feature{10}, 1e6, 0, nil)
	if len(res.Matches) != len(feats) {
		t.Errorf("matches = %d, want all %d", len(res.Matches), len(feats))
	}
	if res.ClustersIncluded != len(idx.Clusters) {
		t.Errorf("included %d of %d clusters without descending", res.ClustersIncluded, len(idx.Clusters))
	}
}

func TestRangeCostGrowsWithRadius(t *testing.T) {
	idx, _ := randomClusteredIndex(t, 5, 120)
	small := Range(idx, metric.Feature{7}, 0.5, 0, nil)
	large := Range(idx, metric.Feature{7}, 4, 0, nil)
	if small.Stats.Breakdown[KindDescend] > large.Stats.Breakdown[KindDescend] {
		t.Errorf("descent cost should not shrink with radius: %d vs %d",
			small.Stats.Breakdown[KindDescend], large.Stats.Breakdown[KindDescend])
	}
}

func TestRangeBeatsTAGOnSelectiveQueries(t *testing.T) {
	idx, _ := randomClusteredIndex(t, 6, 150)
	tag := TAG(idx.Graph)
	res := Range(idx, metric.Feature{2.5}, 0.8, 0, nil)
	if res.Stats.Messages >= tag.Messages {
		t.Errorf("selective range query cost %d should beat TAG's fixed %d",
			res.Stats.Messages, tag.Messages)
	}
}

func TestTAGCostFixed(t *testing.T) {
	g := topology.NewGrid(5, 5)
	if got := TAG(g).Messages; got != 48 {
		t.Errorf("TAG cost = %d, want 2*(N-1) = 48", got)
	}
}

func TestPathFindsSafeRoute(t *testing.T) {
	// Grid with a dangerous column in the middle except one safe gap.
	g := topology.NewGrid(5, 7)
	feats := make([]metric.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		col := u % 7
		row := u / 7
		if col == 3 && row != 2 {
			feats[u] = metric.Feature{0} // at the danger point
		} else {
			feats[u] = metric.Feature{10}
		}
	}
	labels := make([]int, g.N())
	for u := range labels {
		if feats[u][0] == 0 {
			labels[u] = 1
		}
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	idx, err := index.Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	danger := metric.Feature{0}
	res := Path(idx, danger, 5, 0, topology.NodeID(g.N()-1), nil)
	if !res.Found {
		t.Fatal("safe path exists through the gap but was not found")
	}
	if !verifyPath(g, feats, metric.Scalar{}, danger, 5, res.Path) {
		t.Fatalf("returned path is not safe/connected: %v", res.Path)
	}
	if res.Path[0] != 0 || res.Path[len(res.Path)-1] != topology.NodeID(g.N()-1) {
		t.Errorf("path endpoints wrong: %v", res.Path)
	}
}

func TestPathReportsUnreachable(t *testing.T) {
	// Full dangerous wall: no safe path.
	g := topology.NewGrid(3, 5)
	feats := make([]metric.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		if u%5 == 2 {
			feats[u] = metric.Feature{0}
		} else {
			feats[u] = metric.Feature{10}
		}
	}
	labels := make([]int, g.N())
	for u := range labels {
		if feats[u][0] == 0 {
			labels[u] = 1
		}
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	idx, err := index.Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	res := Path(idx, metric.Feature{0}, 5, 0, topology.NodeID(g.N()-1), nil)
	if res.Found {
		t.Errorf("no safe path exists, got %v", res.Path)
	}
}

func TestPathUnsafeSourceSuppressed(t *testing.T) {
	g := topology.NewGrid(1, 4)
	feats := []metric.Feature{{0}, {10}, {10}, {10}}
	c := cluster.FromAssignment([]int{0, 1, 1, 1}).SplitDisconnected(g)
	idx, err := index.Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	res := Path(idx, metric.Feature{0}, 5, 0, 3, nil)
	if res.Found {
		t.Error("query from an unsafe source must be suppressed")
	}
	// Suppression is cheap: the query only reached the cluster root.
	if res.Stats.Messages > 4 {
		t.Errorf("suppressed query cost %d, want nearly free", res.Stats.Messages)
	}
}

func TestPathAgreesWithFloodOnExistence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		idx, feats := randomClusteredIndex(t, seed+40, 70)
		g := idx.Graph
		rng := rand.New(rand.NewSource(seed))
		danger := metric.Feature{rng.Float64() * 20}
		gamma := 1 + rng.Float64()*3
		src := topology.NodeID(rng.Intn(g.N()))
		dst := topology.NodeID(rng.Intn(g.N()))
		a := Path(idx, danger, gamma, src, dst, nil)
		b := BFSFlood(g, feats, metric.Scalar{}, danger, gamma, src, dst)
		if a.Found != b.Found {
			t.Fatalf("seed %d: cluster search found=%v, flood found=%v", seed, a.Found, b.Found)
		}
		if a.Found {
			if !verifyPath(g, feats, metric.Scalar{}, danger, gamma, a.Path) {
				t.Fatalf("seed %d: invalid path %v", seed, a.Path)
			}
			if len(a.Path) != len(b.Path) {
				t.Fatalf("seed %d: path lengths differ: %d vs %d (both BFS-shortest)", seed, len(a.Path), len(b.Path))
			}
		}
	}
}

func TestPathCheaperThanFlood(t *testing.T) {
	// On a large safe region, flooding pays per-node; the cluster search
	// pays classification + path only.
	idx, feats := randomClusteredIndex(t, 77, 200)
	g := idx.Graph
	danger := metric.Feature{-100} // everything is safe
	a := Path(idx, danger, 5, 0, topology.NodeID(g.N()-1), nil)
	b := BFSFlood(g, feats, metric.Scalar{}, danger, 5, 0, topology.NodeID(g.N()-1))
	if !a.Found || !b.Found {
		t.Fatal("both searches should succeed when everything is safe")
	}
	if a.Stats.Messages >= b.Stats.Messages {
		t.Errorf("cluster path search cost %d should beat flooding %d", a.Stats.Messages, b.Stats.Messages)
	}
}

// verifyPath checks that a returned path is a legal answer: consecutive
// nodes are graph neighbours and every node respects the safety margin.
func verifyPath(g *topology.Graph, feats []metric.Feature, m metric.Metric, danger metric.Feature, gamma float64, path []topology.NodeID) bool {
	if len(path) == 0 {
		return false
	}
	for i, u := range path {
		if m.Distance(feats[u], danger) < gamma {
			return false
		}
		if i > 0 && !g.HasEdge(path[i-1], u) {
			return false
		}
	}
	return true
}

func TestVerifyPath(t *testing.T) {
	feats := []metric.Feature{{0}, {3}, {6}}
	g := topology.NewGrid(1, 3)
	if verifyPath(g, feats, metric.Scalar{}, metric.Feature{0}, 2, []topology.NodeID{0, 1}) {
		t.Error("verifyPath accepted a path through an unsafe node")
	}
	if verifyPath(g, feats, metric.Scalar{}, metric.Feature{0}, 2, []topology.NodeID{1, 1}) {
		// 1-1 is not an edge
		t.Error("verifyPath accepted a non-edge step")
	}
	if !verifyPath(g, feats, metric.Scalar{}, metric.Feature{0}, 2, []topology.NodeID{1, 2}) {
		t.Error("verifyPath rejected a legal path")
	}
}

func TestRangeZeroRadiusExactMatch(t *testing.T) {
	idx, feats := randomClusteredIndex(t, 9, 50)
	// r=0 finds exactly the nodes with the identical feature value.
	target := feats[7]
	got := Range(idx, target, 0, 0, nil)
	want := BruteForce(feats, metric.Scalar{}, target, 0)
	if len(got.Matches) != len(want) {
		t.Fatalf("matches = %d, want %d", len(got.Matches), len(want))
	}
}

func TestRangeFromEveryInitiatorSameAnswer(t *testing.T) {
	idx, feats := randomClusteredIndex(t, 10, 40)
	q := metric.Feature{7}
	var first []topology.NodeID
	for u := 0; u < len(feats); u++ {
		res := Range(idx, q, 2, topology.NodeID(u), nil)
		if first == nil {
			first = res.Matches
			continue
		}
		if len(res.Matches) != len(first) {
			t.Fatalf("initiator %d got %d matches, initiator 0 got %d", u, len(res.Matches), len(first))
		}
	}
}

func TestPathSrcEqualsDst(t *testing.T) {
	idx, _ := randomClusteredIndex(t, 11, 40)
	res := Path(idx, metric.Feature{-1000}, 1, 5, 5, nil)
	if !res.Found || len(res.Path) != 1 || res.Path[0] != 5 {
		t.Errorf("self path = %+v", res)
	}
}

func TestBFSFloodUnsafeEndpoints(t *testing.T) {
	g := topology.NewGrid(1, 3)
	feats := []metric.Feature{{0}, {10}, {10}}
	res := BFSFlood(g, feats, metric.Scalar{}, metric.Feature{0}, 5, 0, 2)
	if res.Found {
		t.Error("flood from unsafe source should fail")
	}
	if res.Stats.Messages != 0 {
		t.Error("failed flood from unsafe source should be free")
	}
}

// Property: over random networks and queries, Range always equals the
// brute-force answer and never exceeds the TAG cost by more than the
// routing overhead of a degenerate clustering.
func TestRangeCorrectnessProperty(t *testing.T) {
	for seed := int64(20); seed < 32; seed++ {
		idx, feats := randomClusteredIndex(t, seed, 45)
		rng := rand.New(rand.NewSource(seed * 3))
		for trial := 0; trial < 6; trial++ {
			q := metric.Feature{rng.Float64()*24 - 2}
			r := rng.Float64() * 8
			got := Range(idx, q, r, topology.NodeID(rng.Intn(len(feats))), nil)
			want := BruteForce(feats, metric.Scalar{}, q, r)
			if len(got.Matches) != len(want) {
				t.Fatalf("seed %d: %d matches, want %d", seed, len(got.Matches), len(want))
			}
			for i := range want {
				if got.Matches[i] != want[i] {
					t.Fatalf("seed %d: wrong match set", seed)
				}
			}
		}
	}
}

// TestQueriesFloodWholeBackbone pins the backbone walk: on a connected
// deployment a range query that matches nothing, and a path query whose
// every cluster is safe, each cross every backbone edge exactly once.
func TestQueriesFloodWholeBackbone(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		idx, _ := randomClusteredIndex(t, seed, 80)
		var want int64
		for _, e := range idx.Backbone {
			want += int64(e.Hops)
		}
		if want == 0 {
			t.Fatalf("seed %d: fixture has no backbone", seed)
		}
		initiator := topology.NodeID(seed * 7 % 80)
		if got := Range(idx, metric.Feature{1e6}, 0.5, initiator, nil).Stats.Breakdown[KindBackbone]; got != want {
			t.Errorf("seed %d: range backbone cost %d, want %d", seed, got, want)
		}
		if got := Path(idx, metric.Feature{1e6}, 0, initiator, 0, nil).Stats.Breakdown[KindBackbone]; got != want {
			t.Errorf("seed %d: path backbone cost %d, want %d", seed, got, want)
		}
	}
}
