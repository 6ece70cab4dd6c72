package cluster

import (
	"math/rand"
	"testing"

	"elink/internal/metric"
	"elink/internal/topology"
)

// reduceCliqueCover maps a clique-cover instance to a δ-clustering
// instance, following the paper's Theorem 1 reduction exactly: the
// communication graph becomes a complete graph over |V| nodes, δ = 1,
// and the feature distance is 1 for pairs joined by an edge of G and 2
// otherwise (a metric). A partition of G into c cliques then corresponds
// one-to-one with a δ-clustering into c clusters.
//
// edges lists G's undirected edges over vertex ids [0, n). The returned
// pieces plug straight into Optimal (or any clusterer).
func reduceCliqueCover(n int, edges [][2]int) (*topology.Graph, []metric.Feature, metric.Metric, float64) {
	pos := make([]topology.Point, n)
	for i := range pos {
		pos[i] = topology.Point{X: float64(i), Y: 0}
	}
	cg := topology.NewGraph(pos)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			cg.AddEdge(topology.NodeID(u), topology.NodeID(v))
		}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = 2
			}
		}
	}
	for _, e := range edges {
		d[e[0]][e[1]] = 1
		d[e[1]][e[0]] = 1
	}
	feats := make([]metric.Feature, n)
	for i := range feats {
		feats[i] = metric.Feature{float64(i)}
	}
	return cg, feats, metric.Matrix{D: d}, 1
}

// cliqueCoverNumber computes the minimum number of cliques partitioning
// the graph exactly (equivalently, the chromatic number of the
// complement), by the same subset DP as Optimal. Exponential
// (n ≤ MaxOptimalNodes).
func cliqueCoverNumber(n int, edges [][2]int) int {
	adj := make([]uint32, n)
	for _, e := range edges {
		adj[e[0]] |= 1 << e[1]
		adj[e[1]] |= 1 << e[0]
	}
	full := uint32(1)<<n - 1
	isClique := make([]bool, full+1)
	isClique[0] = true
	for mask := uint32(1); mask <= full; mask++ {
		h := highestBit(mask)
		rest := mask &^ (1 << h)
		isClique[mask] = isClique[rest] && adj[h]&rest == rest
	}
	const inf = int32(1 << 30)
	dp := make([]int32, full+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for mask := uint32(0); mask < full; mask++ {
		if dp[mask] == inf {
			continue
		}
		remaining := full &^ mask
		low := lowestBit(remaining)
		lowBit := uint32(1) << low
		cand := remaining &^ lowBit
		for sub := cand; ; sub = (sub - 1) & cand {
			s := sub | lowBit
			if isClique[s] && dp[mask]+1 < dp[mask|s] {
				dp[mask|s] = dp[mask] + 1
			}
			if sub == 0 {
				break
			}
		}
	}
	return int(dp[full])
}

func TestTheorem1Reduction(t *testing.T) {
	// Random small graphs: the clique cover number must equal the optimal
	// δ-clustering size of the reduced instance (the paper's Theorem 1
	// correspondence), checked with two independent exact solvers.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(6)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.45 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		cc := cliqueCoverNumber(n, edges)
		cg, feats, m, delta := reduceCliqueCover(n, edges)
		opt, err := Optimal(cg, feats, m, delta)
		if err != nil {
			t.Fatal(err)
		}
		if opt.NumClusters() != cc {
			t.Fatalf("trial %d (n=%d, %d edges): clique cover %d != optimal δ-clustering %d",
				trial, n, len(edges), cc, opt.NumClusters())
		}
	}
}

func TestReductionDistanceIsMetric(t *testing.T) {
	_, feats, m, _ := reduceCliqueCover(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if err := metric.VerifyMetric(m, feats, 1e-12); err != nil {
		t.Errorf("the reduction's distance is not a metric: %v", err)
	}
}

func TestCliqueCoverKnownGraphs(t *testing.T) {
	// Triangle: one clique.
	if got := cliqueCoverNumber(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}); got != 1 {
		t.Errorf("triangle cover = %d, want 1", got)
	}
	// Path of 4: two edges cover it.
	if got := cliqueCoverNumber(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}); got != 2 {
		t.Errorf("P4 cover = %d, want 2", got)
	}
	// Empty graph on 4 vertices: 4 singleton cliques.
	if got := cliqueCoverNumber(4, nil); got != 4 {
		t.Errorf("empty graph cover = %d, want 4", got)
	}
	// 5-cycle: cover number 3 (edges can cover at most 2 vertices each).
	if got := cliqueCoverNumber(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}); got != 3 {
		t.Errorf("C5 cover = %d, want 3", got)
	}
}
