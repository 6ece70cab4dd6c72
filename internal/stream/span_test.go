package stream

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"elink/internal/ar"
	"elink/internal/elink"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/persist"
	"elink/internal/topology"
)

// spanEngine builds an Order-1 engine with a span tracer attached and
// streams enough readings to bootstrap plus extra maintained epochs.
func spanEngine(t *testing.T, spans *obs.SpanTracer) *Engine {
	t.Helper()
	g := topology.NewGrid(4, 4)
	rng := rand.New(rand.NewSource(7))
	series := make([][]float64, g.N())
	for u := 0; u < g.N(); u++ {
		alpha := 0.2
		if g.Pos[u].X >= 2 {
			alpha = 0.8
		}
		series[u] = ar.Simulate([]float64{alpha}, 120, []float64{1}, func() float64 { return rng.NormFloat64() * 0.2 })
	}
	e, err := New(g, Config{
		Order: 1, Delta: 0.3, Slack: 0.03, Metric: metric.Scalar{},
		WarmupObs: 60, Policy: PolicyAdaptive, Seed: 5, Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 12; b++ {
		var batch []Reading
		for u := 0; u < g.N(); u++ {
			for k := 0; k < 10; k++ {
				batch = append(batch, Reading{Node: topology.NodeID(u), Value: series[u][b*10+k]})
			}
		}
		if _, err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Ready() {
		t.Fatal("engine never bootstrapped")
	}
	return e
}

// bootstrapEpoch returns the first epoch trace whose root has a direct
// "bootstrap" child, or nil.
func bootstrapEpoch(traces []*obs.SpanTrace) *obs.SpanTrace {
	for _, tr := range traces {
		if tr.Name != "epoch" {
			continue
		}
		for _, s := range tr.Spans {
			if s.Parent == 0 && s.Name == "bootstrap" {
				return tr
			}
		}
	}
	return nil
}

// TestEpochSpanAttribution drives the streaming pipeline with a span
// tracer attached and checks the acceptance property: an epoch's time is
// fully attributed — the self-times of the whole span tree telescope to
// the epoch wall time exactly (sequential pipeline), and the direct
// children (validate/refit/bootstrap/publish) account for at least 95%
// of the bootstrap epoch's wall time.
func TestEpochSpanAttribution(t *testing.T) {
	spans := obs.NewSpanTracer()
	e := spanEngine(t, spans)

	traces := spans.Recent(0)
	if len(traces) == 0 {
		t.Fatal("no span traces recorded")
	}
	var epochs int
	for _, tr := range traces {
		if tr.Name != "epoch" {
			continue
		}
		epochs++
		var selfSum int64
		rootDur := int64(-1)
		for _, s := range tr.Spans {
			selfSum += s.SelfNs
			if s.Parent == -1 {
				rootDur = s.DurNs
			}
		}
		if rootDur != tr.WallNs {
			t.Fatalf("trace %d: root dur %d != wall %d", tr.Seq, rootDur, tr.WallNs)
		}
		// The engine pipeline is strictly sequential, so self-times
		// telescope to the wall time with zero residual.
		if selfSum != tr.WallNs {
			t.Fatalf("trace %d: sum(SelfNs)=%d, wall=%d", tr.Seq, selfSum, tr.WallNs)
		}
	}
	if epochs == 0 {
		t.Fatal("no epoch traces recorded")
	}

	// The bootstrap epoch (the one clustering run) is long enough that
	// clock-read overhead is negligible; its direct children must cover
	// at least 95% of the wall time. It is found by its bootstrap child,
	// not as the slowest trace: a GC pause in a short refresh epoch can
	// make that epoch the slowest.
	tr := bootstrapEpoch(append(spans.Slowest(), spans.Recent(0)...))
	if tr == nil {
		t.Fatal("no epoch trace with a bootstrap child")
	}
	var childDur int64
	for _, s := range tr.Spans {
		if s.Parent == 0 {
			childDur += s.DurNs
		}
	}
	if childDur < tr.WallNs*95/100 {
		t.Fatalf("bootstrap epoch: children cover %d of %d ns (%.1f%%), want >= 95%%",
			childDur, tr.WallNs, 100*float64(childDur)/float64(tr.WallNs))
	}

	// Phase table reaches Stats and carries the pipeline phases.
	st := e.Stats()
	if len(st.Phases) == 0 {
		t.Fatal("Stats.Phases empty with spans attached")
	}
	want := map[string]bool{"epoch": false, "refit": false, "maintain": false, "publish": false, "bootstrap": false}
	for _, p := range st.Phases {
		if _, ok := want[p.Phase]; ok {
			want[p.Phase] = true
		}
	}
	for phase, seen := range want {
		if !seen {
			t.Fatalf("phase %q missing from attribution table: %+v", phase, st.Phases)
		}
	}
}

// TestBootstrapRunLabels: the bootstrap epoch's trace carries the ELink
// run's round and message counts as elink_rounds / elink_msgs labels,
// equal to the Stats of the same run made directly.
func TestBootstrapRunLabels(t *testing.T) {
	g := topology.NewGrid(4, 4)
	rng := rand.New(rand.NewSource(3))
	feats := make([]metric.Feature, g.N())
	for u := range feats {
		feats[u] = metric.Feature{rng.Float64()}
	}
	spans := obs.NewSpanTracer()
	e := featEngine(t, g, feats, Config{
		Delta: 0.3, Slack: 0.03, Metric: metric.Scalar{}, Seed: 5, Spans: spans,
	})
	cfg := e.Config()
	run, err := elink.Run(g, elink.Config{
		Delta: cfg.Delta - 2*cfg.Slack, Metric: cfg.Metric, Features: feats,
		Mode: cfg.Mode, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Messages == 0 {
		t.Fatal("sanity: the bootstrap run sent no messages")
	}
	tr := bootstrapEpoch(spans.Recent(0))
	if tr == nil {
		t.Fatal("no epoch trace with a bootstrap child")
	}
	want := map[string]string{
		"elink_rounds": strconv.FormatFloat(run.Stats.Time, 'g', -1, 64),
		"elink_msgs":   strconv.FormatInt(run.Stats.Messages, 10),
	}
	for k, v := range want {
		if got := tr.Labels[k]; got != v {
			t.Errorf("bootstrap label %s = %q, want %q (labels %v)", k, got, v, tr.Labels)
		}
	}
}

// TestSpansOffStatsEmpty: an engine without a tracer reports no phases
// and pays no tracing.
func TestSpansOffStatsEmpty(t *testing.T) {
	e := spanEngine(t, nil)
	if ph := e.Stats().Phases; ph != nil {
		t.Fatalf("Phases = %+v, want nil without a tracer", ph)
	}
}

// TestQuerySpans: range and path queries produce their own root traces
// with the query execution phases as children.
func TestQuerySpans(t *testing.T) {
	spans := obs.NewSpanTracer()
	e := spanEngine(t, spans)

	if _, err := e.RangeQuery(metric.Feature{0.5}, 0.2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PathQuery(metric.Feature{0.2}, 0.05, 0, topology.NodeID(e.Graph().N()-1)); err != nil {
		t.Fatal(err)
	}

	var rangeTr, pathTr bool
	for _, tr := range spans.Recent(0) {
		switch tr.Name {
		case "range-query":
			rangeTr = true
			names := map[string]bool{}
			for _, s := range tr.Spans {
				names[s.Name] = true
			}
			if !names["q-backbone"] || !names["q-clusters"] || !names["q-aggregate"] {
				t.Fatalf("range trace children = %v", names)
			}
		case "path-query":
			pathTr = true
			names := map[string]bool{}
			for _, s := range tr.Spans {
				names[s.Name] = true
			}
			if !names["q-classify"] {
				t.Fatalf("path trace children = %v", names)
			}
		}
	}
	if !rangeTr || !pathTr {
		t.Fatalf("missing query traces: range=%v path=%v", rangeTr, pathTr)
	}
}

// TestPersistSpans: snapshot save/restore and WAL-journaled epochs show
// up as traces with the durability phases as children.
func TestPersistSpans(t *testing.T) {
	spans := obs.NewSpanTracer()
	e := spanEngine(t, spans)

	wal, err := persist.OpenWAL(t.TempDir(), persist.WALOptions{Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	e.AttachWAL(wal)
	batch := []Reading{{Node: 0, Value: 0.4}, {Node: 1, Value: 0.6}}
	if _, err := e.Ingest(batch); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	found := map[string]map[string]bool{}
	for _, tr := range spans.Recent(0) {
		names := map[string]bool{}
		for _, s := range tr.Spans {
			names[s.Name] = true
		}
		found[tr.Name] = names
	}
	if names := found["snapshot"]; names == nil || !names["copy-state"] || !names["enc-models"] || !names["enc-index"] {
		t.Fatalf("snapshot trace children = %v", found["snapshot"])
	}
	if names := found["restore"]; names == nil || !names["decode"] || !names["rebuild"] {
		t.Fatalf("restore trace children = %v", found["restore"])
	}
	// The WAL-journaled epoch carries journal -> wal-append -> fsync.
	var journaled map[string]bool
	for _, tr := range spans.Recent(0) {
		if tr.Name != "epoch" {
			continue
		}
		names := map[string]bool{}
		for _, s := range tr.Spans {
			names[s.Name] = true
		}
		if names["journal"] {
			journaled = names
		}
	}
	if journaled == nil || !journaled["wal-append"] || !journaled["fsync"] {
		t.Fatalf("journaled epoch children = %v", journaled)
	}
}

// TestSpanDeterminism: the engine's observable trajectory is bitwise
// identical with and without a span tracer attached — spans read clocks
// but never feed state.
func TestSpanDeterminism(t *testing.T) {
	snap := func(spans *obs.SpanTracer) []byte {
		e := spanEngine(t, spans)
		var buf bytes.Buffer
		if _, err := e.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bare := snap(nil)
	spanned := snap(obs.NewSpanTracer())
	if !bytes.Equal(bare, spanned) {
		t.Fatal("engine snapshot differs with spans attached")
	}
	// And tracing through a parent span (the HTTP path) is equivalent.
	tr := obs.NewSpanTracer()
	root := tr.Start("http")
	time.Sleep(time.Microsecond)
	root.Finish()
	if tr.Total() != 1 {
		t.Fatal("sanity: tracer records root traces")
	}
}
