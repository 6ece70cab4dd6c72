package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentWriters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the registry's
// concurrency-safety proof, and the totals check its correctness.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deliberately re-look-up inside the loop sometimes: handle
			// creation must be race-free too.
			c := r.Counter("msgs_total", "kind", "expand")
			g := r.Gauge("clusters")
			h := r.Histogram("latency_seconds", LatencyBuckets())
			for i := 0; i < perWorker; i++ {
				if i%100 == 0 {
					c = r.Counter("msgs_total", "kind", "expand")
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%10) * 1e-4)
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("msgs_total", "kind", "expand").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("clusters").Value(); got != perWorker-1 {
		t.Errorf("gauge = %v, want every worker's last value %d", got, perWorker-1)
	}
	h := r.Histogram("latency_seconds", LatencyBuckets())
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	cum := h.Cumulative()
	if cum[len(cum)-1] != workers*perWorker {
		t.Errorf("+Inf cumulative = %d, want %d", cum[len(cum)-1], workers*perWorker)
	}
}

// TestConcurrentFirstUse releases all workers through a barrier so that
// the very first lookups of each series race: every worker must get the
// SAME handle, or some increments land on an orphaned duplicate and the
// totals come up short. Regression test for handles being assigned after
// lookup released the registry mutex.
func TestConcurrentFirstUse(t *testing.T) {
	const workers, rounds = 16, 50
	for round := 0; round < rounds; round++ {
		r := NewRegistry()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				r.Counter("first_use_total", "kind", "x").Inc()
				r.Gauge("first_use_gauge").Set(1)
				r.Histogram("first_use_seconds", LatencyBuckets()).Observe(1e-3)
			}()
		}
		close(start)
		wg.Wait()
		if got := r.Counter("first_use_total", "kind", "x").Value(); got != workers {
			t.Fatalf("round %d: counter = %d, want %d (lost a racing handle)", round, got, workers)
		}
		if got := r.Gauge("first_use_gauge").Value(); got != 1 {
			t.Fatalf("round %d: gauge = %v, want 1", round, got)
		}
		if got := r.Histogram("first_use_seconds", LatencyBuckets()).Count(); got != workers {
			t.Fatalf("round %d: histogram count = %d, want %d", round, got, workers)
		}
	}
}

func TestLabelIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "x", "1", "y", "2")
	b := r.Counter("m", "y", "2", "x", "1") // same set, different order
	if a != b {
		t.Error("label order should not change series identity")
	}
	c := r.Counter("m", "x", "1", "y", "3")
	if a == c {
		t.Error("different label values must be different series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge over a counter name should panic")
		}
	}()
	r.Gauge("m")
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", LatencyBuckets()).Observe(1)
	r.Help("x", "nope")
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	var g *Gauge
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Cumulative() != nil {
		t.Error("nil histogram should read empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
}

// TestHistogramBuckets pins the bucketing rule: an observation lands in
// the first bucket whose upper bound is >= the value.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4.9, 5, 6, 100} {
		h.Observe(v)
	}
	cum := h.Cumulative()
	want := []int64{2, 4, 6, 8} // le=1:2, le=2:4, le=5:6, +Inf:8
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d (full: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Sum() != 0.5+1+1.5+2+4.9+5+6+100 {
		t.Errorf("sum = %v", h.Sum())
	}
}

// TestPrometheusExpositionGolden pins the exact exposition text for a
// small fixed registry: family ordering, HELP/TYPE lines, label
// rendering and histogram expansion.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("elink_messages_total", "Radio transmissions by kind.")
	r.Counter("elink_messages_total", "kind", "expand").Add(40)
	r.Counter("elink_messages_total", "kind", "ack1").Add(2)
	r.Gauge("engine_clusters").Set(7)
	h := r.Histogram("query_latency_seconds", []float64{0.001, 0.01}, "type", "range")
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP elink_messages_total Radio transmissions by kind.
# TYPE elink_messages_total counter
elink_messages_total{kind="ack1"} 2
elink_messages_total{kind="expand"} 40
# TYPE engine_clusters gauge
engine_clusters 7
# TYPE query_latency_seconds histogram
query_latency_seconds_bucket{type="range",le="0.001"} 1
query_latency_seconds_bucket{type="range",le="0.01"} 2
query_latency_seconds_bucket{type="range",le="+Inf"} 3
query_latency_seconds_sum{type="range"} 5.0025
query_latency_seconds_count{type="range"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestBucketLayoutsAscending(t *testing.T) {
	bs := LatencyBuckets()
	if len(bs) == 0 {
		t.Fatal("empty latency layout")
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Errorf("latency layout not ascending at %d: %v", i, bs)
		}
	}
}
