package cluster

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"elink/internal/metric"
	"elink/internal/topology"
)

func lineGraph(n int) *topology.Graph { return topology.NewGrid(1, n) }

func scalarFeats(vals ...float64) []metric.Feature {
	fs := make([]metric.Feature, len(vals))
	for i, v := range vals {
		fs[i] = metric.Feature{v}
	}
	return fs
}

func TestFromAssignmentRenumbers(t *testing.T) {
	c := FromAssignment([]int{7, 7, 3, 7, 3})
	if c.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d, want 2", c.NumClusters())
	}
	if c.Assign[0] != 0 || c.Assign[2] != 1 {
		t.Errorf("Assign = %v, want labels renumbered in order of appearance", c.Assign)
	}
	if len(c.Members[0]) != 3 || len(c.Members[1]) != 2 {
		t.Errorf("Members = %v", c.Members)
	}
}

func TestFromRoots(t *testing.T) {
	c := FromRoots([]topology.NodeID{0, 0, 2, 2, 2})
	if c.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d, want 2", c.NumClusters())
	}
	if c.Roots[0] != 0 || c.Roots[1] != 2 {
		t.Errorf("Roots = %v, want [0 2]", c.Roots)
	}
}

func TestValidateAcceptsLegalClustering(t *testing.T) {
	g := lineGraph(5)
	feats := scalarFeats(0, 1, 2, 10, 11)
	c := FromRoots([]topology.NodeID{0, 0, 0, 3, 3})
	if err := c.Validate(g, feats, metric.Scalar{}, 3, 1e-9); err != nil {
		t.Errorf("Validate rejected a legal clustering: %v", err)
	}
}

func TestValidateRejectsDeltaViolation(t *testing.T) {
	g := lineGraph(3)
	feats := scalarFeats(0, 5, 10)
	c := FromRoots([]topology.NodeID{0, 0, 0})
	err := c.Validate(g, feats, metric.Scalar{}, 3, 1e-9)
	if err == nil || !strings.Contains(err.Error(), "δ-condition") {
		t.Errorf("Validate = %v, want δ-condition violation", err)
	}
}

func TestValidateRejectsDisconnectedCluster(t *testing.T) {
	g := lineGraph(3)
	feats := scalarFeats(0, 0, 0)
	// Nodes 0 and 2 in one cluster, middle node elsewhere.
	c := FromRoots([]topology.NodeID{0, 1, 0})
	err := c.Validate(g, feats, metric.Scalar{}, 3, 1e-9)
	if err == nil || !strings.Contains(err.Error(), "components") {
		t.Errorf("Validate = %v, want connectivity violation", err)
	}
}

func TestValidateRejectsIncompleteCover(t *testing.T) {
	g := lineGraph(3)
	feats := scalarFeats(0, 0, 0)
	c := &Clustering{
		Assign:  []int{0, 0},
		Members: [][]topology.NodeID{{0, 1}},
		Roots:   []topology.NodeID{0},
	}
	if err := c.Validate(g, feats, metric.Scalar{}, 3, 1e-9); err == nil {
		t.Error("Validate accepted a clustering that does not cover the graph")
	}
}

func TestSplitDisconnected(t *testing.T) {
	g := lineGraph(5)
	// One "cluster" {0,1,3,4} broken in the middle, one singleton {2}.
	c := FromRoots([]topology.NodeID{0, 0, 2, 0, 0})
	split := c.SplitDisconnected(g)
	if split.NumClusters() != 3 {
		t.Fatalf("NumClusters after split = %d, want 3", split.NumClusters())
	}
	feats := scalarFeats(0, 0, 0, 0, 0)
	if err := split.Validate(g, feats, metric.Scalar{}, 1, 1e-9); err != nil {
		t.Errorf("split clustering invalid: %v", err)
	}
	// The component containing the original root keeps it.
	ci := split.ClusterOf(0)
	if split.Roots[ci] != 0 {
		t.Errorf("root of 0's component = %v, want 0", split.Roots[ci])
	}
}

func TestSplitDisconnectedNoopWhenConnected(t *testing.T) {
	g := lineGraph(4)
	c := FromRoots([]topology.NodeID{0, 0, 2, 2})
	split := c.SplitDisconnected(g)
	if split.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want unchanged 2", split.NumClusters())
	}
}

func TestMeasure(t *testing.T) {
	feats := scalarFeats(0, 2, 10, 11)
	c := FromRoots([]topology.NodeID{0, 0, 2, 2})
	q := c.Measure(feats, metric.Scalar{})
	if q.NumClusters != 2 {
		t.Errorf("NumClusters = %d", q.NumClusters)
	}
	if q.MaxDiameter != 2 {
		t.Errorf("MaxDiameter = %v, want 2", q.MaxDiameter)
	}
	if q.MeanSize != 2 || q.LargestSize != 2 {
		t.Errorf("sizes = %v/%v, want 2/2", q.MeanSize, q.LargestSize)
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Messages: 5, Breakdown: map[string]int64{"expand": 5}, Time: 3}
	b := Stats{Messages: 2, Breakdown: map[string]int64{"expand": 1, "ack": 1}, Time: 7}
	a.Add(b)
	if a.Messages != 7 || a.Breakdown["expand"] != 6 || a.Breakdown["ack"] != 1 || a.Time != 7 {
		t.Errorf("Add result = %+v", a)
	}
	s := a.String()
	if !strings.Contains(s, "msgs=7") || !strings.Contains(s, "ack=1") {
		t.Errorf("String = %q", s)
	}
}

// Property-ish: splitting any random labelled partition of a random graph
// always yields a clustering that passes connectivity validation.
func TestSplitAlwaysYieldsConnectedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := topology.RandomGeometricForDegree(40, 4, rng)
		labels := make([]int, g.N())
		k := 1 + rng.Intn(6)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		c := FromAssignment(labels).SplitDisconnected(g)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{0}
		}
		if err := c.Validate(g, feats, metric.Scalar{}, 1, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := FromRoots([]topology.NodeID{0, 0, 2, 2, 2})
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"clusters":[{"root":0,"members":[0,1]},{"root":2,"members":[2,3,4]}]}`
	if string(data) != want {
		t.Errorf("MarshalJSON = %s, want %s", data, want)
	}
}

// splitDisconnectedRef is the per-cluster SplitDisconnected: one
// Graph.ComponentsOf call per cluster, each building its own membership
// and seen maps.
func splitDisconnectedRef(c *Clustering, g *topology.Graph) *Clustering {
	out := &Clustering{Assign: make([]int, len(c.Assign))}
	for ci, members := range c.Members {
		for _, comp := range g.ComponentsOf(members) {
			idx := len(out.Members)
			out.Members = append(out.Members, comp)
			root := comp[0]
			for _, u := range comp {
				if u == c.Roots[ci] {
					root = c.Roots[ci]
				}
				out.Assign[u] = idx
			}
			out.Roots = append(out.Roots, root)
		}
	}
	return out
}

// TestSplitDisconnectedMatchesReference holds the one-pass split to the
// per-cluster reference on random clusterings of random geometric graphs:
// few labels make disconnected clusters, many make singletons, members
// are listed in shuffled order, and roots are a member, a non-member or
// -1.
func TestSplitDisconnectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	split, singletons, unsorted := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		g := topology.RandomGeometricForDegree(1+rng.Intn(150), 2+rng.Float64()*4, rng)
		labels := make([]int, g.N())
		k := 1 + rng.Intn(g.N())
		for u := range labels {
			labels[u] = rng.Intn(k)
		}
		c := FromAssignment(labels)
		for ci, members := range c.Members {
			if len(members) == 1 {
				singletons++
			}
			if len(members) > 1 && rng.Intn(2) == 0 {
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
				unsorted++
			}
			switch rng.Intn(3) {
			case 0:
				c.Roots[ci] = members[rng.Intn(len(members))]
			case 1:
				c.Roots[ci] = topology.NodeID(rng.Intn(g.N()))
			}
		}
		got, want := c.SplitDisconnected(g), splitDisconnectedRef(c, g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %d labels):\n got %+v\nwant %+v", trial, g.N(), k, got, want)
		}
		if len(got.Members) > len(c.Members) {
			split++
		}
	}
	if split == 0 || singletons == 0 || unsorted == 0 {
		t.Fatalf("%d splits, %d singletons, %d shuffled clusters: a case went untested", split, singletons, unsorted)
	}
}
