package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical span tracing answers "where did this slow epoch's TIME
// go". A SpanTracer hands out root Spans; each span may fork
// children (Child), and finishing the root freezes the whole tree into a
// SpanTrace that the tracer retains two ways — a bounded ring of recent
// traces and a top-K set of the slowest ones — so both "what just
// happened" and "what was ever worst" stay answerable at O(1) memory.
//
// Attribution model: every span's self-time is its duration minus the
// summed durations of its direct children (clamped at zero for parents
// whose children ran concurrently). Summed over a strictly sequential
// trace, self-times telescope to exactly the root's wall time, which is
// what makes the per-phase tables additive.
// Self-times also feed per-phase reservoirs (PhaseStats: p50/p95/max,
// with exact counts and totals).
//
// The clock is injected (SetClock) so tests can drive spans
// deterministically; span timings never feed figure tables, keeping the
// repo's golden determinism contract untouched. Like the rest of this
// package every method is safe on a nil receiver: an un-instrumented
// call site pays one pointer test per span operation.

// A SpanTracer keeps the last spanCapacity traces and the spanTopK
// slowest ones.
const (
	spanCapacity = 256
	spanTopK     = 16
)

// maxPhaseNames bounds the per-phase attribution map; span names beyond
// the cap are lumped into "other" so a buggy call site cannot grow the
// tracer without bound.
const maxPhaseNames = 128

// phaseSampleCap is the per-phase self-time reservoir size the
// percentiles are computed over (the most recent observations win).
const phaseSampleCap = 512

// SpanRecord is one finished span inside a SpanTrace. Times are
// nanosecond offsets from the trace's Start so a trace is
// self-contained and compact.
type SpanRecord struct {
	// ID is the span's index within its trace (0 = root).
	ID int `json:"id"`
	// Parent is the parent span's ID, -1 for the root.
	Parent int `json:"parent"`
	// Name is the phase name ("refit", "journal", ...).
	Name string `json:"name"`
	// StartNs is the span's start, relative to the trace start.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's wall-clock duration.
	DurNs int64 `json:"dur_ns"`
	// SelfNs is DurNs minus the summed DurNs of direct children,
	// clamped at zero (concurrent children can overlap their parent).
	SelfNs int64 `json:"self_ns"`
}

// SpanTrace is one frozen span tree, produced when a root span finishes.
type SpanTrace struct {
	// Seq is the tracer-wide trace sequence number.
	Seq int64 `json:"seq"`
	// Name is the root span's name ("epoch", "http", ...).
	Name string `json:"name"`
	// Labels carries the root's annotations (epoch number, route,
	// request id, ...).
	Labels map[string]string `json:"labels,omitempty"`
	// Start is the root span's start time (tracer clock).
	Start time.Time `json:"start"`
	// WallNs is the root span's duration.
	WallNs int64 `json:"wall_ns"`
	// Spans holds every finished span of the tree in finish order;
	// Spans[i].ID indexes into start order (0 = root).
	Spans []SpanRecord `json:"spans"`
}

// PhaseStat is one row of the per-phase latency attribution table:
// self-time statistics for every span that carried the phase's name.
// Percentiles are computed over a bounded reservoir of the most recent
// observations; Count, Max and TotalNs are exact over the whole run.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	P50Ns   int64   `json:"p50_ns"`
	P95Ns   int64   `json:"p95_ns"`
	MaxNs   int64   `json:"max_ns"`
	TotalNs int64   `json:"total_ns"`
	P50Us   float64 `json:"p50_us"`
	P95Us   float64 `json:"p95_us"`
	MaxUs   float64 `json:"max_us"`
}

// phaseAgg is the live per-phase accumulator behind PhaseStat.
type phaseAgg struct {
	count   int64
	max     int64
	total   int64
	samples []int64 // ring of the last phaseSampleCap self-times
	next    int
}

// SpanTracer hands out root spans and retains finished traces. All
// methods are safe for concurrent use and on a nil receiver, so call
// sites thread an optional tracer without branching.
type SpanTracer struct {
	// clock is read lock-free on every span start/finish; SetClock swaps
	// the pointer atomically. Nil means time.Now — kept nil rather than
	// pre-stored so the common case is a direct call, not an indirect
	// one through the pointer (spans sit on µs-scale query paths).
	clock atomic.Pointer[func() time.Time]

	// base anchors span timestamps: spans store int64 monotonic
	// nanoseconds since base rather than time.Time, because
	// time.Since(base) reads only the monotonic clock (~half the cost of
	// time.Now) and µs-scale query traces pay 8 clock reads each.
	base time.Time

	mu      sync.Mutex
	origin  time.Time // chrome-trace time zero (construction time)
	ring    []*SpanTrace
	next    int
	wrapped bool
	topK    []*SpanTrace // sorted by WallNs descending, len <= k
	k       int
	total   int64
	phases  map[string]*phaseAgg
}

// NewSpanTracer returns a tracer retaining the last 256 traces and the
// 16 slowest ones.
func NewSpanTracer() *SpanTracer { return newSpanTracer(spanCapacity, spanTopK) }

// newSpanTracer returns a tracer retaining the last capacity traces and
// the topK slowest ones; tests build small ones to exercise eviction.
func newSpanTracer(capacity, topK int) *SpanTracer {
	now := time.Now()
	return &SpanTracer{
		base:   now,
		origin: now,
		ring:   make([]*SpanTrace, capacity),
		k:      topK,
		phases: make(map[string]*phaseAgg),
	}
}

// nowNs reads the clock as nanoseconds since the tracer's base.
func (t *SpanTracer) nowNs() int64 {
	if fn := t.clock.Load(); fn != nil {
		return (*fn)().Sub(t.base).Nanoseconds()
	}
	return int64(time.Since(t.base))
}

// SetClock injects the tracer's time source (tests drive spans
// deterministically with it). Passing nil restores time.Now. Set it
// before handing out spans; in-flight spans keep their start times.
func (t *SpanTracer) SetClock(fn func() time.Time) {
	if t == nil {
		return
	}
	if fn == nil {
		t.clock.Store(nil)
		fn = time.Now
	} else {
		t.clock.Store(&fn)
	}
	t.mu.Lock()
	t.origin = fn()
	t.mu.Unlock()
}

// Span is one live timed region. Obtain roots from SpanTracer.Start and
// descendants from Child; Finish stamps the end time, and finishing the
// root freezes the tree into a SpanTrace. All methods are safe on a nil
// receiver, and a trace's spans may start/finish from multiple
// goroutines, though each individual span must be finished exactly once.
type Span struct {
	tb     *traceBuilder
	id     int
	parent int
	name   string
	start  int64 // tracer-base-relative nanoseconds
	done   bool
}

// traceBuilder collects a trace's spans while they are live; it is
// shared by every span of one tree and guarded by its own mutex so
// concurrent child spans never contend with other traces.
type traceBuilder struct {
	t      *SpanTracer
	mu     sync.Mutex
	name   string
	labels []labelPair // a map only once the root is frozen
	start  int64       // tracer-base-relative nanoseconds
	nextID int
	durs   []int64      // per-ID duration, filled at finish
	spans  []SpanRecord // finish order
	// pool/npool hand out child Span slots from the rootAlloc block;
	// traceSlot is its pre-reserved SpanTrace. Both save heap allocations
	// on the small traces that dominate the query path.
	pool      []Span
	npool     int
	traceSlot *SpanTrace
}

// rootAlloc fuses the root span, its builder and their small slices into
// one allocation — a trace on the query path is a handful of µs of work,
// so allocator round-trips are a measurable share of its cost.
type rootAlloc struct {
	span   Span
	tb     traceBuilder
	trace  SpanTrace
	kids   [7]Span
	durs   [8]int64
	spans  [8]SpanRecord
	labels [4]labelPair
}

// Start opens a root span. Finish it to record the trace.
func (t *SpanTracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	ra := new(rootAlloc) // before the clock read: a GC assist is not root time
	now := t.nowNs()
	ra.tb = traceBuilder{t: t, name: name, start: now, nextID: 1}
	ra.tb.durs = ra.durs[:1]
	ra.tb.labels = ra.labels[:0]
	ra.tb.spans = ra.spans[:0]
	ra.tb.pool = ra.kids[:]
	ra.tb.traceSlot = &ra.trace
	ra.span = Span{tb: &ra.tb, id: 0, parent: -1, name: name, start: now}
	return &ra.span
}

// Child opens a sub-span of s. Children may outnumber and outlive
// sibling spans but must finish before their root does.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tb := s.tb
	tb.mu.Lock()
	id := tb.nextID
	tb.nextID++
	tb.durs = append(tb.durs, 0)
	var c *Span
	if tb.npool < len(tb.pool) {
		c = &tb.pool[tb.npool]
		tb.npool++
	}
	tb.mu.Unlock()
	if c == nil {
		c = new(Span)
	}
	// c is exclusively ours once its slot is claimed under the lock, so
	// the clock read stays outside the critical section.
	*c = Span{tb: tb, id: id, parent: s.id, name: name, start: tb.t.nowNs()}
	return c
}

// Label annotates the span's trace (root labels: epoch number, route,
// request id). Labels are per-trace metadata, not metric labels, so
// values may be unbounded.
func (s *Span) Label(key, value string) {
	if s == nil {
		return
	}
	s.tb.mu.Lock()
	s.tb.labels = append(s.tb.labels, labelPair{key, value})
	s.tb.mu.Unlock()
}

// Finish stamps the span's end. Finishing the root freezes the tree
// into a SpanTrace and hands it to the tracer; spans finished after
// their root are silently dropped (a call-site bug, not worth a panic
// on an observability path).
func (s *Span) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	tb := s.tb
	dur := tb.t.nowNs() - s.start
	if dur < 0 {
		dur = 0
	}
	tb.mu.Lock()
	if s.id < len(tb.durs) {
		tb.durs[s.id] = dur
	}
	tb.spans = append(tb.spans, SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNs: s.start - tb.start,
		DurNs:   dur,
	})
	if s.id != 0 {
		tb.mu.Unlock()
		return
	}
	// Root finished: compute self-times and freeze the trace.
	var sumBuf [8]int64
	childSum := sumBuf[:0]
	if len(tb.durs) <= len(sumBuf) {
		childSum = sumBuf[:len(tb.durs)]
	} else {
		childSum = make([]int64, len(tb.durs))
	}
	for _, r := range tb.spans {
		if r.Parent >= 0 && r.Parent < len(childSum) {
			childSum[r.Parent] += r.DurNs
		}
	}
	for i := range tb.spans {
		self := tb.spans[i].DurNs - childSum[tb.spans[i].ID]
		if self < 0 {
			self = 0 // concurrent children overlap their parent
		}
		tb.spans[i].SelfNs = self
	}
	var labels map[string]string // built after the clock read, off the root's time
	for _, l := range tb.labels {
		if labels == nil {
			labels = make(map[string]string, len(tb.labels))
		}
		labels[l.key] = l.value
	}
	trace := tb.traceSlot
	if trace == nil {
		trace = new(SpanTrace)
	}
	*trace = SpanTrace{
		Name:   tb.name,
		Labels: labels,
		Start:  tb.t.base.Add(time.Duration(tb.start)),
		WallNs: dur,
		Spans:  tb.spans,
	}
	tb.mu.Unlock()
	tb.t.record(trace)
}

// record files one finished trace into the phase attribution and the
// ring and top-K stores.
func (t *SpanTracer) record(trace *SpanTrace) {
	t.mu.Lock()
	for _, r := range trace.Spans {
		agg := t.phases[r.Name]
		if agg == nil {
			if len(t.phases) >= maxPhaseNames {
				if agg = t.phases["other"]; agg == nil {
					agg = &phaseAgg{}
					t.phases["other"] = agg
				}
			} else {
				agg = &phaseAgg{}
				t.phases[r.Name] = agg
			}
		}
		agg.count++
		agg.total += r.SelfNs
		if r.SelfNs > agg.max {
			agg.max = r.SelfNs
		}
		if len(agg.samples) < phaseSampleCap {
			agg.samples = append(agg.samples, r.SelfNs)
		} else {
			agg.samples[agg.next] = r.SelfNs
			agg.next = (agg.next + 1) % phaseSampleCap
		}
	}
	trace.Seq = t.total
	t.total++
	t.ring[t.next] = trace
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	// Top-K: insert by wall time, descending; ties keep the older.
	if len(t.topK) < t.k || trace.WallNs > t.topK[len(t.topK)-1].WallNs {
		i := sort.Search(len(t.topK), func(i int) bool { return t.topK[i].WallNs < trace.WallNs })
		t.topK = append(t.topK, nil)
		copy(t.topK[i+1:], t.topK[i:])
		t.topK[i] = trace
		if len(t.topK) > t.k {
			t.topK = t.topK[:t.k]
		}
	}
	t.mu.Unlock()
}

// Total returns how many traces were ever finished (including evicted
// ones).
func (t *SpanTracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Len returns how many traces the recent ring currently holds.
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.len()
}

func (t *SpanTracer) len() int {
	if t.wrapped {
		return len(t.ring)
	}
	return t.next
}

// Recent returns the most recent n retained traces, oldest first (n <= 0
// or beyond the buffered count returns everything buffered). Traces are
// frozen at root finish, so the returned pointers are safe to read
// concurrently.
func (t *SpanTracer) Recent(n int) []*SpanTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := t.len()
	if n <= 0 || n > have {
		n = have
	}
	out := make([]*SpanTrace, n)
	start := t.next - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = t.ring[(start+i)%len(t.ring)]
	}
	return out
}

// Slowest returns the top-K slowest retained traces, slowest first.
func (t *SpanTracer) Slowest() []*SpanTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*SpanTrace(nil), t.topK...)
}

// PhaseStats returns the per-phase latency attribution table, sorted by
// total self-time descending (the biggest consumer first).
func (t *SpanTracer) PhaseStats() []PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]PhaseStat, 0, len(t.phases))
	for name, agg := range t.phases {
		ps := PhaseStat{Phase: name, Count: agg.count, MaxNs: agg.max, TotalNs: agg.total}
		if n := len(agg.samples); n > 0 {
			sorted := append([]int64(nil), agg.samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			ps.P50Ns = sorted[n/2]
			p95 := (n * 95) / 100
			if p95 >= n {
				p95 = n - 1
			}
			ps.P95Ns = sorted[p95]
		}
		ps.P50Us = float64(ps.P50Ns) / 1e3
		ps.P95Us = float64(ps.P95Ns) / 1e3
		ps.MaxUs = float64(ps.MaxNs) / 1e3
		out = append(out, ps)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// spansDump is the WriteJSON payload.
type spansDump struct {
	Total   int64        `json:"total"`
	Phases  []PhaseStat  `json:"phases"`
	Recent  []*SpanTrace `json:"recent"`
	Slowest []*SpanTrace `json:"slowest"`
}

// WriteJSON dumps the attribution table, the most recent n retained
// traces (n <= 0: everything buffered) and the top-K slowest ones as one
// JSON object.
func (t *SpanTracer) WriteJSON(w io.Writer, n int) error {
	if t == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spansDump{
		Total:   t.Total(),
		Phases:  t.PhaseStats(),
		Recent:  t.Recent(n),
		Slowest: t.Slowest(),
	})
}

// WriteChromeTrace writes the most recent n retained traces (n <= 0:
// everything buffered) in Chrome trace-event JSON array format, loadable
// in Perfetto or chrome://tracing. Each trace renders as its own named
// track (pid 1, tid = trace seq); timestamps are microseconds since the
// tracer's construction.
func (t *SpanTracer) WriteChromeTrace(w io.Writer, n int) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	origin := t.origin
	t.mu.Unlock()
	traces := t.Recent(n)
	bw := bufio.NewWriter(w)
	bw.WriteByte('[')
	first := true
	emit := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		first = false
		_, err = bw.Write(raw)
		return err
	}
	type chromeEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	for _, tr := range traces {
		tid := tr.Seq
		meta := chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d", tr.Name, tr.Seq)},
		}
		if err := emit(meta); err != nil {
			return err
		}
		base := float64(tr.Start.Sub(origin).Nanoseconds()) / 1e3
		for _, s := range tr.Spans {
			args := map[string]any{"self_us": float64(s.SelfNs) / 1e3}
			if s.Parent == -1 {
				for k, v := range tr.Labels {
					args[k] = v
				}
			}
			ev := chromeEvent{
				Name: s.Name, Ph: "X",
				Ts:  base + float64(s.StartNs)/1e3,
				Dur: float64(s.DurNs) / 1e3,
				Pid: 1, Tid: tid,
				Args: args,
			}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}
