// Package obs is the repository's observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms with
// fixed bucket layouts) with Prometheus text export, plus hierarchical
// span tracing (span.go).
//
// The paper's costs — messages by kind and phase, ELink's rounds, the
// slack protocol's screens — are exact counts with one ledger each
// (cluster.Stats, update.Counters, stream.Stats); no algorithm layer
// writes into a registry. A registry holds what only a serving process
// knows (HTTP traffic, build info, WAL and snapshot I/O), and a server
// renders the ledgers into a registry built at scrape time. Spans answer
// where an operation's wall time went; the engine threads an optional
// *SpanTracer through each operation.
//
// Every metric and span method is safe on a nil receiver. Lookups take
// the registry mutex; updates on a cached *Counter/*Gauge/*Histogram
// handle are a single atomic operation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. All methods are safe for
// concurrent use and on a nil receiver (no-op / zero).
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are a caller bug but are not checked on
// the hot path).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
// All methods are safe for concurrent use and on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge's value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed ascending bucket layout
// (upper bounds; an implicit +Inf bucket catches the rest). All methods
// are safe for concurrent use and on a nil receiver. Snapshot reads are
// not atomic across buckets — scrapes may see an observation's bucket
// before its sum — which is the usual Prometheus-client trade-off.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	owned := append([]float64(nil), bounds...)
	return &Histogram{bounds: owned, buckets: make([]atomic.Int64, len(owned)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Cumulative returns the cumulative per-bucket counts, one per bound
// plus the final +Inf bucket (== Count modulo scrape races).
func (h *Histogram) Cumulative() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	var c int64
	for i := range h.buckets {
		c += h.buckets[i].Load()
		out[i] = c
	}
	return out
}

// metricKind discriminates what a series holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// labelPair is one resolved label.
type labelPair struct{ key, value string }

// series is one labelled instance of a metric family.
type series struct {
	labels []labelPair // sorted by key
	ctr    *Counter
	gauge  *Gauge
	gfn    func() float64 // set by GaugeFunc; read at scrape time
	hist   *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	series map[string]*series // keyed by rendered label string
}

// Registry holds metric families and hands out live handles. The zero
// value is not usable; construct with NewRegistry. A nil *Registry is a
// valid "observability off" value for the helper constructors below.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Help sets the family's HELP text (idempotent; the last call wins).
// Creating a metric first and describing it later is fine.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = text
		return
	}
	r.families[name] = &family{name: name, help: text, series: make(map[string]*series)}
}

// lookup finds or creates the series for name+labels, checking the kind,
// and allocates its typed handle (using buckets for histograms) while
// still holding r.mu so concurrent first users agree on one handle.
// An empty (created-by-Help-only) family adopts the first kind requested.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: odd label list %v", name, labels))
	}
	pairs := make([]labelPair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labelPair{key: labels[i], value: labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	key := renderLabels(pairs)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if len(f.series) == 0 {
		f.kind = kind
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: pairs}
		f.series[key] = s
	}
	switch kind {
	case kindCounter:
		if s.ctr == nil {
			s.ctr = &Counter{}
		}
	case kindGauge:
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	case kindHistogram:
		if s.hist == nil {
			s.hist = newHistogram(buckets)
		}
	}
	return s
}

// Counter returns the counter for name and the given label key/value
// pairs, creating it on first use. Labels are variadic "key", "value"
// alternations; the same set in any order names the same series.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labels).ctr
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labels).gauge
}

// GaugeFunc registers a gauge whose value fn computes at scrape time
// (process uptime, queue depths — anything cheaper to derive than to
// maintain). The first registration of a series wins and the function is
// immutable afterwards, so concurrent scrapes never race a swap; calls
// for a series that already exists are ignored.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	s := r.lookup(name, kindGauge, nil, labels)
	r.mu.Lock()
	if s.gfn == nil {
		s.gfn = fn
	}
	r.mu.Unlock()
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket bounds on first use. Later calls for an existing series
// keep the original layout regardless of the buckets argument, so every
// series of a family shares one layout in practice.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, buckets, labels).hist
}

// renderLabels formats sorted pairs as `k1="v1",k2="v2"` with Prometheus
// escaping of the values.
func renderLabels(pairs []labelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// LatencyBuckets is the latency layout in seconds shared by the
// repository's duration histograms, so dashboards can aggregate like
// with like: 1µs to 10s in roughly 1-2.5-5 decades. Returns a fresh
// slice.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}
