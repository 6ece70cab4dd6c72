package par

import (
	"strconv"
	"sync/atomic"
	"time"

	"elink/internal/obs"
)

// parMetrics bundles the live handles Instrument installs. A single
// atomic pointer keeps the uninstrumented hot path at one load + nil
// test, matching the obs package's opt-in philosophy.
type parMetrics struct {
	tasks   *obs.Counter
	workers *obs.Gauge
	latency *obs.Histogram
}

var instrumented atomic.Pointer[parMetrics]

func metrics() *parMetrics { return instrumented.Load() }

// spanTracer holds the InstrumentSpans tracer (nil = spans off); the
// hot path pays one atomic load.
var spanTracer atomic.Pointer[obs.SpanTracer]

// spanKeepMin is the wall-time threshold below which a batch's trace is
// dropped from the tracer's ring/top-K stores (phase attribution is
// recorded either way). Fork-join batches fire thousands of times a
// second; only the slow ones are worth a trace slot.
const spanKeepMin = time.Millisecond

// InstrumentSpans makes every subsequent fork-join batch emit a
// "par-batch" span trace with one child span per worker, attributing
// batch wall time to the workers that carried it. Traces faster than 1ms
// only feed the per-phase statistics, not the trace stores. Passing nil
// turns span tracing off. Spans never influence scheduling or results,
// so the package's determinism contract is unaffected.
func InstrumentSpans(t *obs.SpanTracer) {
	if t == nil {
		spanTracer.Store(nil)
		return
	}
	spanTracer.Store(t)
}

// workerSpanNames caps the distinct worker phase names ("par-worker-0"
// ... ) fed into the tracer; counts beyond the cap share one label so
// huge machines cannot blow the tracer's phase map.
var workerSpanNames = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = "par-worker-" + strconv.Itoa(i)
	}
	return out
}()

func workerSpanName(w int) string {
	if w < len(workerSpanNames) {
		return workerSpanNames[w]
	}
	return "par-worker-hi"
}

// Instrument exports the layer's utilization through the given registry:
//
//	par_tasks_total            tasks (fork-join chunks) executed
//	par_workers                currently resolved worker count
//	par_batch_latency_seconds  wall-clock latency of fork-join batches
//
// Passing nil turns instrumentation off again. Handles are registered
// eagerly so /metrics shows the families (with zero values) before the
// first parallel call.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instrumented.Store(nil)
		return
	}
	reg.Help("par_tasks_total", "Parallel tasks executed by the shared execution layer (fork-join chunks).")
	reg.Help("par_workers", "Worker count the parallel execution layer resolves for new batches.")
	reg.Help("par_batch_latency_seconds", "Wall-clock latency of fork-join batches (For/Chunks/Err/Map).")
	m := &parMetrics{
		tasks:   reg.Counter("par_tasks_total"),
		workers: reg.Gauge("par_workers"),
		latency: reg.Histogram("par_batch_latency_seconds", obs.LatencyBuckets()),
	}
	m.workers.Set(float64(Workers()))
	instrumented.Store(m)
}

// observeBatch records one completed fork-join batch: the number of
// chunks it dispatched and its wall-clock latency.
func observeBatch(chunks int, start time.Time) {
	m := metrics()
	if m == nil {
		return
	}
	m.tasks.Add(int64(chunks))
	m.latency.Observe(time.Since(start).Seconds())
}
