package stream

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"elink/internal/metric"
	"elink/internal/topology"
)

// benchReadyEngine builds a bootstrapped feature-mode engine over a
// random geometric network; the one-off ELink bootstrap dominates at
// 10k nodes, so it stays outside every timed region.
func benchReadyEngine(b *testing.B, n int) (*Engine, *topology.Graph, Config) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g := topology.RandomGeometricForDegree(n, 4, rng)
	cfg := Config{Order: 0, Delta: 1.0, Slack: 0.1, Metric: metric.Euclidean{}, Seed: 1}
	e, err := New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]FeatureUpdate, n)
	for u := 0; u < n; u++ {
		batch[u] = FeatureUpdate{Node: topology.NodeID(u), Feature: metric.Feature{float64(u%8) * 3, float64(u % 5)}}
	}
	if _, err := e.IngestFeatures(batch); err != nil {
		b.Fatal(err)
	}
	return e, g, cfg
}

// BenchmarkSnapshotRestore is the durability ladder: snapshot encode and
// restore decode latency at 500, 2500 and 10000 nodes (bytes per op are
// the snapshot size, so MB/s is codec throughput):
//
//	go test -run '^$' -bench SnapshotRestore ./internal/stream
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, n := range []int{500, 2500, 10000} {
		b.Run(fmt.Sprintf("snapshot/n=%d", n), func(b *testing.B) {
			e, _, _ := benchReadyEngine(b, n)
			info, err := e.SaveSnapshot(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(info.Bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SaveSnapshot(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("restore/n=%d", n), func(b *testing.B) {
			e, g, cfg := benchReadyEngine(b, n)
			var buf bytes.Buffer
			if _, err := e.SaveSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := New(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := fresh.Restore(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
