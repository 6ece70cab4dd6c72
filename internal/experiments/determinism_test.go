package experiments

import (
	"testing"

	"elink/internal/baseline"
	"elink/internal/data"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/topology"
)

// TestRoutingDeterminismGolden pins exact message counts for the
// routing-heavy paths (ELink runs, the hierarchical and k-medoids
// baselines, and the index backbone) on a fixed Tao dataset. The routed
// hop accounting flows through topology.Graph's truncated-BFS routing;
// these constants were captured from the original per-call full-BFS
// implementation, so any tie-breaking or distance divergence in routing
// shows up here as a changed figure, not a silent drift.
func TestRoutingDeterminismGolden(t *testing.T) {
	ds, err := data.Tao(data.TaoConfig{Days: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	const delta = 0.08

	imp, err := elink.Run(g, elink.Config{Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Implicit, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := elink.Run(g, elink.Config{Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Explicit, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := baseline.Hierarchical(g, baseline.HierConfig{Delta: delta, Metric: ds.Metric, Features: ds.Features})
	if err != nil {
		t.Fatal(err)
	}
	kmed, err := baseline.KMedoids(g, baseline.KMedoidsConfig{Delta: delta, Metric: ds.Metric, Features: ds.Features, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(g, imp.Clustering, ds.Features, ds.Metric)
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]int64{
		"elink-implicit":  imp.Stats.Messages,
		"elink-explicit":  exp.Stats.Messages,
		"hier-total":      hier.Stats.Messages,
		"hier-probe":      hier.Stats.Breakdown["probe"],
		"kmedoids-total":  kmed.Stats.Messages,
		"kmed-refresh":    kmed.Stats.Breakdown["refresh"],
		"index-backbone":  idx.BuildStats.Breakdown["backbone"],
		"implicit-rounds": int64(imp.Stats.Time),
	}
	want := map[string]int64{
		"elink-implicit":  149,
		"elink-explicit":  759,
		"hier-total":      1864,
		"hier-probe":      1120,
		"kmedoids-total":  2764,
		"kmed-refresh":    1468,
		"index-backbone":  12,
		"implicit-rounds": 41,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d, want %d", k, got[k], w)
		}
	}

	// Routed-path determinism at the topology layer: the shortest path
	// between two fixed far corners of the Tao grid is pinned hop by hop
	// (smallest-id tie-breaking).
	path := g.ShortestPath(topology.NodeID(g.N()-1), 0)
	wantPath := []topology.NodeID{53, 44, 35, 26, 17, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	if len(path) != len(wantPath) {
		t.Fatalf("corner path = %v, want %v", path, wantPath)
	}
	for i := range path {
		if path[i] != wantPath[i] {
			t.Fatalf("corner path = %v, want %v", path, wantPath)
		}
	}
}
