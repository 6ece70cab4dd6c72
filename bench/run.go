package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is one workload execution: latency samples by operation kind, the
// operation and failure counts, and the measured metric values.
//
// An operation kind is "<layer>.<call>", optionally followed by
// "/<parameter>" when the same call runs at several settings (one δ of
// the dv-paper sweep, say); per-layer detail lines fold the parameter.
type run struct {
	opts      options
	rec       *recorder // nil unless tracing; every method is nil-safe
	root      int       // the workload's root span
	lat       map[string][]float64
	attempted int
	failed    int
	values    map[string]float64
	lines     []string
	checkTime time.Duration
}

func newRun(o options) *run {
	r := &run{
		opts:   o,
		lat:    make(map[string][]float64),
		values: make(map[string]float64),
	}
	// Counts start at zero: a workload that never calls a layer (the
	// figure functions report costs only inside their tables) reports
	// none of its messages.
	for _, s := range perLayer {
		if s.unit != "s" && s.unit != "%" {
			r.values[s.name] = 0
		}
	}
	if o.trace {
		r.rec = newRecorder()
	}
	r.root = r.rec.begin(o.workload, 0, -1)
	return r
}

// op runs f as one timed operation of the given kind, recording its
// latency (and a span when tracing). An error counts as a failed
// operation.
func (r *run) op(kind string, f func() error) float64 {
	r.attempted++
	id := r.rec.begin(kind, 0, r.root)
	start := time.Now()
	err := f()
	ms := msSince(start)
	r.rec.end(id)
	r.lat[kind] = append(r.lat[kind], ms)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", kind, err))
	}
	return ms
}

// check runs a correctness check outside every timed region; a non-nil
// result counts as a failure.
func (r *run) check(f func() error) {
	id := r.rec.begin("bench.check", 0, r.root)
	start := time.Now()
	err := f()
	r.checkTime += time.Since(start)
	r.rec.end(id)
	if err != nil {
		r.fail(err)
	}
}

// untimed records a span for set-up work that is not an operation, such
// as input generation, so the root span's time stays accounted for.
func (r *run) untimed(name string, f func() error) (time.Duration, error) {
	id := r.rec.begin(name, 0, r.root)
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.rec.end(id)
	return d, err
}

// failuresShown caps how many failure messages go to standard error.
const failuresShown = 10

func (r *run) fail(err error) {
	r.failed++
	if r.failed <= failuresShown {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) add(name string, v float64) { r.values[name] += v }

func (r *run) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// detail prints a metric that is not in the JSON summary: per-kind and
// per-path latencies (epochs_per_s, recover_s, ...), per-layer
// self-times, exact costs and context.
func (r *run) detail(name string, v float64, unit string, n int) {
	r.linef("detail %s %s %s n=%d", name, strconv.FormatFloat(v, 'g', 6, 64), unit, n)
}

// lowQuantile is the per-kind statistic behind work_s and op_ms.
// Interference on a shared host only ever adds time, so a kind's lower
// quartile tracks the code's own cost, while its median moves with how
// busy the host was while the run lasted.
const lowQuantile = 0.25

// cycleWork estimates the wall time in seconds of one cycle of a
// workload's fixed work: for every operation kind, the lower-quartile
// latency times the calls one cycle makes.
func cycleWork(groups map[string][]float64, cycles int) float64 {
	var ms float64
	for _, xs := range groups {
		ms += quantile(xs, lowQuantile) * float64(len(xs)) / float64(cycles)
	}
	return ms / 1000
}

// typicalLatency is the latency of a typical operation: the geometric
// mean of every operation kind's lower-quartile latency, weighted by how
// often the kind ran. A pooled quantile of a mix (queries at two δ,
// epochs next to queries) sits between the kinds' clusters and jumps
// from one to the other between runs; this stays put, and it moves with
// any kind's latency in proportion to that kind's share of operations.
func typicalLatency(groups map[string][]float64) float64 {
	var logSum, n float64
	for _, xs := range groups {
		logSum += float64(len(xs)) * math.Log(quantile(xs, lowQuantile))
		n += float64(len(xs))
	}
	return math.Exp(logSum / n)
}

// finish computes the metrics every workload shares, where the workload
// did not measure its own: typical operation latency and peak RSS; then
// check time, span accounting and per-layer self-times.
func (r *run) finish() {
	r.rec.end(r.root)
	var all []float64
	for _, xs := range r.lat {
		all = append(all, xs...)
	}
	if _, ok := r.values["op_ms"]; !ok {
		r.set("op_ms", typicalLatency(r.lat))
	}
	r.detail("op_p50_ms", quantile(all, 0.50), "ms", len(all))
	r.detail("op_p99_ms", quantile(all, 0.99), "ms", len(all))
	if _, ok := r.values["peak_rss_mb"]; !ok {
		r.set("peak_rss_mb", peakRSSMB("self"))
	}
	r.set("bench.check_s", r.checkTime.Seconds())

	kinds := make([]string, 0, len(r.lat))
	for k := range r.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := r.lat[k]
		r.detail(k+"_p50_ms", median(xs), "ms", len(xs))
	}

	if r.rec == nil {
		r.set("bench.unattributed_pct", math.NaN())
		r.set("bench.trace_overhead_pct", math.NaN())
		return
	}
	self := r.rec.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.detail("self."+n+"_s", self[n].Seconds(), "s", 0)
	}
	rootWall, rootSelf, err := r.rec.rootAccounting()
	if err != nil {
		r.fail(err)
		r.set("bench.unattributed_pct", 0)
		r.set("bench.trace_overhead_pct", 0)
		return
	}
	r.set("bench.unattributed_pct", 100*rootSelf.Seconds()/rootWall.Seconds())
	r.set("bench.trace_overhead_pct", 100*float64(len(r.rec.spans))*spanCost().Seconds()/rootWall.Seconds())
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process
// ("self" or a pid) in MB.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
