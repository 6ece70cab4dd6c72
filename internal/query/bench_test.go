package query

import (
	"math/rand"
	"testing"

	"elink/internal/detrand"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/topology"
)

// rangeFixture400 indexes ELink's implicit clustering (δ 2) of a
// 400-node random network carrying four feature bands 5 apart.
func rangeFixture400(tb testing.TB) *index.Index {
	tb.Helper()
	g := topology.RandomGeometricForDegree(400, 4, detrand.New(1))
	rng := rand.New(rand.NewSource(1))
	min, max := g.BoundingBox()
	feats := make([]metric.Feature, g.N())
	for u := range feats {
		band := int((g.Pos[u].X - min.X) / (max.X - min.X + 1e-9) * 4)
		feats[u] = metric.Feature{float64(band)*5 + rng.Float64()*0.2}
	}
	res, err := elink.Run(g, elink.Config{Delta: 2, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.Build(g, res.Clustering, feats, metric.Scalar{})
	if err != nil {
		tb.Fatal(err)
	}
	return idx
}

func BenchmarkRangeQuery400(b *testing.B) {
	idx := rangeFixture400(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Range(idx, metric.Feature{7.5}, 1.5, topology.NodeID(i%idx.Graph.N()), nil)
	}
}

// TestRangeQueryAllocs pins the garbage of one range query: the backbone
// walk and the M-tree descent allocate nothing of their own, leaving the
// result, its cost breakdown and the match list.
func TestRangeQueryAllocs(t *testing.T) {
	idx := rangeFixture400(t)
	initiator := topology.NodeID(0)
	allocs := testing.AllocsPerRun(50, func() {
		Range(idx, metric.Feature{7.5}, 1.5, initiator, nil)
		initiator = (initiator + 37) % topology.NodeID(idx.Graph.N())
	})
	if allocs > 4 {
		t.Fatalf("Range allocates %v objects per query, want <= 4", allocs)
	}
}

func BenchmarkPathQuery400(b *testing.B) {
	idx := rangeFixture400(b)
	n := topology.NodeID(idx.Graph.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Path(idx, metric.Feature{7.5}, 1.5, topology.NodeID(i)%n, topology.NodeID(i*7+3)%n, nil)
	}
}

// TestPathQueryAllocs pins the garbage of one path query: classification,
// the backbone charge and the safe-region BFS run on pooled scratch,
// leaving the result, its cost breakdown and the returned path.
func TestPathQueryAllocs(t *testing.T) {
	idx := rangeFixture400(t)
	n := topology.NodeID(idx.Graph.N())
	src, danger := topology.NodeID(0), metric.Feature{7.5}
	allocs := testing.AllocsPerRun(50, func() {
		Path(idx, danger, 1.5, src, (src*7+3)%n, nil)
		src = (src + 37) % n
	})
	if allocs > 4 {
		t.Fatalf("Path allocates %v objects per query, want <= 4", allocs)
	}
}
