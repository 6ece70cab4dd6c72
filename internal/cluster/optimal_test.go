package cluster

import (
	"math/rand"
	"testing"

	"elink/internal/metric"
	"elink/internal/topology"
)

func TestOptimalTrivialCases(t *testing.T) {
	g := topology.NewGrid(1, 4)
	uniform := scalarFeats(1, 1, 1, 1)
	c, err := Optimal(g, uniform, metric.Scalar{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 1 {
		t.Errorf("uniform features: %d clusters, want 1", c.NumClusters())
	}

	distinct := scalarFeats(0, 10, 20, 30)
	c, err = Optimal(g, distinct, metric.Scalar{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 4 {
		t.Errorf("distinct features: %d clusters, want 4 singletons", c.NumClusters())
	}
}

func TestOptimalRespectsConnectivity(t *testing.T) {
	// Path 0-1-2 with features 0, 10, 0: the two feature-0 nodes cannot
	// share a cluster (node 1 separates them), so optimal is 3.
	g := topology.NewGrid(1, 3)
	feats := scalarFeats(0, 10, 0)
	c, err := Optimal(g, feats, metric.Scalar{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 3 {
		t.Errorf("NumClusters = %d, want 3 (connectivity separates the ends)", c.NumClusters())
	}
	if err := c.Validate(g, feats, metric.Scalar{}, 1, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestOptimalBeatsGreedyWhenGreedyIsSuboptimal(t *testing.T) {
	// Path with features 0, 1, 2, 3 and δ = 2: a δ/2-ball around any
	// single seed covers at most a span of 2, but {0,1,2} or {1,2,3} are
	// legal clusters (pairwise ≤ 2), so the optimum is 2 clusters.
	g := topology.NewGrid(1, 4)
	feats := scalarFeats(0, 1, 2, 3)
	c, err := Optimal(g, feats, metric.Scalar{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want 2", c.NumClusters())
	}
	if err := c.Validate(g, feats, metric.Scalar{}, 2, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestOptimalRejectsLargeInstances(t *testing.T) {
	g := topology.NewGrid(5, 5)
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{0}
	}
	if _, err := Optimal(g, feats, metric.Scalar{}, 1); err == nil {
		t.Error("accepted an instance above MaxOptimalNodes")
	}
}

// Optimal is a true lower bound: every other algorithm's clustering of
// the same instance has at least as many clusters.
func TestOptimalIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		g := topology.RandomGeometricForDegree(8+rng.Intn(6), 3, rng)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{float64(rng.Intn(4))}
		}
		delta := 1.0 + rng.Float64()
		opt, err := Optimal(g, feats, metric.Scalar{}, delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Validate(g, feats, metric.Scalar{}, delta, 1e-9); err != nil {
			t.Fatalf("trial %d: optimal clustering invalid: %v", trial, err)
		}
		// Any valid clustering found by greedy δ/2-ball covering of the
		// components must have >= opt clusters.
		greedy := greedyBallCover(g, feats, metric.Scalar{}, delta)
		if err := greedy.Validate(g, feats, metric.Scalar{}, delta, 1e-9); err != nil {
			t.Fatalf("trial %d: greedy invalid: %v", trial, err)
		}
		if greedy.NumClusters() < opt.NumClusters() {
			t.Fatalf("trial %d: greedy %d beat 'optimal' %d — the exact solver is wrong",
				trial, greedy.NumClusters(), opt.NumClusters())
		}
	}
}

// greedyBallCover grows clusters from the lowest unassigned node by
// breadth-first admission within δ/2 of the seed — an ELink-style
// single-threaded reference used only to sanity-check Optimal.
func greedyBallCover(g *topology.Graph, feats []metric.Feature, m metric.Metric, delta float64) *Clustering {
	n := g.N()
	labels := make([]int, n)
	assigned := make([]bool, n)
	next := 0
	for seed := 0; seed < n; seed++ {
		if assigned[seed] {
			continue
		}
		queue := []topology.NodeID{topology.NodeID(seed)}
		assigned[seed] = true
		labels[seed] = next
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if !assigned[v] && m.Distance(feats[seed], feats[v]) <= delta/2 {
					assigned[v] = true
					labels[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return FromAssignment(labels)
}
