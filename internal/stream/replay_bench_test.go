package stream

import (
	"testing"

	"elink/internal/data"
	"elink/internal/detrand"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/topology"
)

// BenchmarkTaoReplay replays six days of the 6×9 Tao grid through a fresh
// engine per op, with the configuration and query mix of the stream
// golden (order 2, δ 0.2, periodic re-cluster every 120 epochs, 4 range
// queries and 1 path query per epoch after warm-up). The traced variant
// attaches an obs.SpanTracer, so the two ns/op give what span tracing
// costs the engine end to end:
//
//	go test -run '^$' -bench TaoReplay -count 5 ./internal/stream
func BenchmarkTaoReplay(b *testing.B) {
	const (
		days, warmup, period = 6, 144, 120
		delta                = 0.2
		ranges               = 4
	)
	ds, err := data.Tao(data.TaoConfig{Days: days, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, n := ds.Graph, ds.Graph.N()
	replay := func(b *testing.B, spans *obs.SpanTracer) {
		e, err := New(g, Config{
			Order: 2, Delta: delta, Slack: delta / 10, Metric: metric.Euclidean{},
			Seed: 1, Policy: PolicyPeriodic, Period: period, WarmupObs: warmup, Spans: spans,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := detrand.New(1)
		batch := make([]Reading, n)
		for step := range ds.Series[0] {
			for u := range batch {
				batch[u] = Reading{Node: topology.NodeID(u), Value: ds.Series[u][step]}
			}
			if _, err := e.Ingest(batch); err != nil {
				b.Fatal(err)
			}
			if step < warmup {
				continue
			}
			snap := e.Snapshot()
			for i := 0; i <= ranges; i++ {
				target := snap.Features[rng.Intn(n)]
				r := (0.3 + 0.6*rng.Float64()) * delta
				if i < ranges {
					_, err = e.RangeQuery(target, r, topology.NodeID(rng.Intn(n)))
				} else {
					_, err = e.PathQuery(target, r, topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n)))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(b, nil)
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(b, obs.NewSpanTracer())
		}
	})
}
