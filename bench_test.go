package elink_test

// Micro-benchmarks for the core building blocks, run through the public
// facade. End-to-end numbers (the quick figures, the paper-scale Death
// Valley run, stream ingest and elink-serve under load) come from the
// benchmark in bench/: sh bench/run.sh -workload <name>.

import (
	"fmt"
	"math/rand"
	"testing"

	"elink"
)

func benchGraphAndFeatures(n int, seed int64) (*elink.Graph, []elink.Feature) {
	g := elink.NewRandomNetwork(n, 4, seed)
	rng := rand.New(rand.NewSource(seed))
	min, max := g.BoundingBox()
	feats := make([]elink.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		band := int((g.Pos[u].X - min.X) / (max.X - min.X + 1e-9) * 4)
		feats[u] = elink.Feature{float64(band)*5 + rng.Float64()*0.2}
	}
	return g, feats
}

func BenchmarkELinkImplicit400(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	cfg := elink.Config{Delta: 2, Metric: elink.Scalar(), Features: feats}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.Cluster(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkELinkExplicit400(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	cfg := elink.Config{Delta: 2, Metric: elink.Scalar(), Features: feats, Mode: elink.Explicit}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.Cluster(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanningForest400(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	cfg := elink.ForestConfig{Delta: 2, Metric: elink.Scalar(), Features: feats}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.SpanningForestCluster(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchical400(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	cfg := elink.HierConfig{Delta: 2, Metric: elink.Scalar(), Features: feats}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.HierarchicalCluster(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectral200(b *testing.B) {
	g, feats := benchGraphAndFeatures(200, 1)
	cfg := elink.SpectralConfig{Delta: 2, Metric: elink.Scalar(), Features: feats, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.SpectralCluster(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuild400(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	res, err := elink.Cluster(g, elink.Config{Delta: 2, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.BuildIndex(g, res.Clustering, feats, elink.Scalar()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaintainerUpdate(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	res, err := elink.Cluster(g, elink.Config{Delta: 1.4, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		b.Fatal(err)
	}
	m, err := elink.NewMaintainer(g, res.Clustering, feats, elink.MaintainerConfig{
		Delta: 2, Slack: 0.3, Metric: elink.Scalar(),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, g.N())
	for i := range vals {
		vals[i] = feats[i][0]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := elink.NodeID(rng.Intn(g.N()))
		vals[u] += rng.NormFloat64() * 0.05
		m.Update(u, elink.Feature{vals[u]})
	}
}

// BenchmarkIndexRefresh repairs the index after one streaming epoch in
// which every node's feature drifts, as after each refit of the Tao
// replay: one batched Refresh over all 400 nodes per iteration.
func BenchmarkIndexRefresh(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	res, err := elink.Cluster(g, elink.Config{Delta: 2, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := elink.BuildIndex(g, res.Clustering, feats, elink.Scalar())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	nodes := make([]elink.NodeID, g.N())
	epochs := make([][]elink.Feature, 8)
	for u := range nodes {
		nodes[u] = elink.NodeID(u)
	}
	for i := range epochs {
		epochs[i] = make([]elink.Feature, g.N())
		for u := range epochs[i] {
			epochs[i][u] = elink.Feature{feats[u][0] + rng.NormFloat64()*0.01}
		}
	}
	var msgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := idx.Refresh(nodes, epochs[i%len(epochs)])
		if err != nil {
			b.Fatal(err)
		}
		msgs += n
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/epoch")
}

func BenchmarkOptimalExact12(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := elink.NewRandomNetwork(12, 3, 3)
	feats := make([]elink.Feature, g.N())
	for i := range feats {
		feats[i] = elink.Feature{float64(rng.Intn(4))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.OptimalCluster(g, feats, elink.Scalar(), 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkELinkDeathValley2500 runs ELink on the paper's 2500-node Death
// Valley network at δ 50, the size the dv-paper workload uses. Per-run
// start-up work that grows with nodes × quadtree cells shows here, where
// the 400-node benchmarks barely register it.
func BenchmarkELinkDeathValley2500(b *testing.B) {
	ds, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 2500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []elink.Mode{elink.Implicit, elink.Explicit} {
		cfg := elink.Config{Delta: 50, Metric: ds.Metric, Features: ds.Features, Mode: mode, Seed: 1}
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := elink.Cluster(ds.Graph, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpanningForestDeathValley2500 runs the spanning-forest
// baseline on the same network and δ. Its flood keeps about 2E events
// pending at once, the largest event queue of any protocol here, so its
// B/op shows whether the simulator regrows that queue on every run.
func BenchmarkSpanningForestDeathValley2500(b *testing.B) {
	ds, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 2500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := elink.ForestConfig{Delta: 50, Metric: ds.Metric, Features: ds.Features, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.SpanningForestCluster(ds.Graph, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalDeathValley2500 runs the hierarchical baseline on
// the same network at the two δ the dv-paper workload uses. Rounds
// reuse their scratch, so B/op is mostly per-run setup and the result.
func BenchmarkHierarchicalDeathValley2500(b *testing.B) {
	ds, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 2500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, delta := range []float64{50, 400} {
		cfg := elink.HierConfig{Delta: delta, Metric: ds.Metric, Features: ds.Features}
		b.Run(fmt.Sprintf("delta=%v", delta), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := elink.HierarchicalCluster(ds.Graph, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
