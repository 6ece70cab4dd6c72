package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// recorder keeps the spans of one traced run in memory and writes them
// out when the run ends. A span is one call the benchmark makes into a
// layer, recorded from the benchmark's own code; spans nest through
// their parent id, and each track is one client goroutine whose spans
// never overlap. The recorder is the benchmark's own so that the
// program's tracing can change without touching the benchmark.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	track      int
	parent     int // -1 for a root
	start, end time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, track, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, track: track, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the durations of its
// direct children.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfByName sums self-time per layer call, folding the "/<parameter>"
// suffix of an operation kind.
func (r *recorder) selfByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range r.selfTimes() {
		name, _, _ := strings.Cut(r.spans[i].name, "/")
		out[name] += d
	}
	return out
}

// rootAccounting returns the roots' total wall time and the part of it
// no child span covers, after checking that the spans nest: each one
// finished, inside its parent, and clear of its siblings. Only nested
// spans decompose a root: their self-times, summed over the tree, equal
// the root's wall time.
func (r *recorder) rootAccounting() (wall, unattributed time.Duration, err error) {
	lastEnd := make(map[int]time.Duration) // parent -> end of its latest child
	for _, s := range r.spans {
		switch {
		case s.end < s.start:
			return 0, 0, fmt.Errorf("span %s never finished", s.name)
		case s.parent < 0:
			continue
		}
		p := r.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return 0, 0, fmt.Errorf("span %s leaves its parent %s", s.name, p.name)
		}
		if end, ok := lastEnd[s.parent]; ok && s.start < end {
			return 0, 0, fmt.Errorf("span %s overlaps a sibling under %s", s.name, p.name)
		}
		lastEnd[s.parent] = s.end
	}
	self := r.selfTimes()
	for i, s := range r.spans {
		if s.parent < 0 {
			wall += s.end - s.start
			unattributed += self[i]
		}
	}
	return wall, unattributed, nil
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x", 0, -1))
	}
	return time.Since(start) / n
}

type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// writeChromeFile writes the spans as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing.
func (r *recorder) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		}
	}
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
