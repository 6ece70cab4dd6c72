package elink_test

// Micro-benchmarks for the core building blocks, run through the public
// facade. End-to-end numbers (the quick figures, the paper-scale Death
// Valley run, stream ingest and elink-serve under load) come from the
// benchmark in bench/: sh bench/run.sh -workload <name>.

import (
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

func BenchmarkELinkAsyncRuntime200(b *testing.B) {
	g, feats := benchGraphAndFeatures(200, 1)
	cfg := elink.Config{Delta: 2, Metric: elink.Scalar(), Features: feats, Mode: elink.Explicit}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elink.ClusterAsync(g, cfg); err != nil {
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

func BenchmarkRangeQuery400(b *testing.B) {
	g, feats := benchGraphAndFeatures(400, 1)
	res, err := elink.Cluster(g, elink.Config{Delta: 2, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := elink.BuildIndex(g, res.Clustering, feats, elink.Scalar())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elink.RangeQuery(idx, elink.Feature{7.5}, 1.5, elink.NodeID(i%g.N()))
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := elink.NodeID(rng.Intn(g.N()))
		f := elink.Feature{feats[u][0] + rng.NormFloat64()*0.01}
		if _, err := idx.Refresh(u, f); err != nil {
			b.Fatal(err)
		}
	}
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
