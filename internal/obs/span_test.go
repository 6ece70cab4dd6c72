package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, concurrency-safe time source for span
// tests: every reading advances it by step.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// Advance moves the clock without counting as a reading.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// traces returns how many traces tr's recent ring holds.
func traces(tr *SpanTracer) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.len()
}

func TestSpanNilSafety(t *testing.T) {
	var tr *SpanTracer
	s := tr.Start("root")
	if s != nil {
		t.Fatalf("nil tracer Start = %v, want nil", s)
	}
	c := s.Child("child")
	c.Label("k", "v")
	c.Finish()
	s.Finish()
	tr.SetClock(nil)
	if got := tr.Total(); got != 0 {
		t.Fatalf("nil Total = %d", got)
	}
	if got := tr.Recent(5); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if got := tr.Slowest(); got != nil {
		t.Fatalf("nil Slowest = %v", got)
	}
	if got := tr.PhaseStats(); got != nil {
		t.Fatalf("nil PhaseStats = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, 0); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil WriteJSON = %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil WriteChromeTrace = %q", buf.String())
	}
}

func TestSpanSelfTimeTelescopes(t *testing.T) {
	tr := newSpanTracer(8, 4)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)

	// Sequential pipeline: root with three children of 10ms, 20ms, 30ms
	// and 5ms of root-only work at the end.
	root := tr.Start("epoch")
	for i, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		c := root.Child(fmt.Sprintf("phase%d", i))
		clk.Advance(d)
		c.Finish()
	}
	clk.Advance(5 * time.Millisecond)
	root.Finish()

	traces := tr.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("Recent len = %d, want 1", len(traces))
	}
	trc := traces[0]
	if got, want := trc.WallNs, int64(65*time.Millisecond); got != want {
		t.Fatalf("WallNs = %d, want %d", got, want)
	}
	var selfSum int64
	byName := map[string]SpanRecord{}
	for _, s := range trc.Spans {
		selfSum += s.SelfNs
		byName[s.Name] = s
	}
	// Self-times of a sequential trace telescope to exactly the wall time.
	if selfSum != trc.WallNs {
		t.Fatalf("sum(SelfNs) = %d, want wall %d", selfSum, trc.WallNs)
	}
	if got, want := byName["epoch"].SelfNs, int64(5*time.Millisecond); got != want {
		t.Fatalf("root SelfNs = %d, want %d", got, want)
	}
	if got, want := byName["phase1"].SelfNs, int64(20*time.Millisecond); got != want {
		t.Fatalf("phase1 SelfNs = %d, want %d", got, want)
	}
	if byName["epoch"].Parent != -1 || byName["phase2"].Parent != 0 {
		t.Fatalf("parent links wrong: %+v", trc.Spans)
	}
}

func TestSpanConcurrentChildrenClamp(t *testing.T) {
	tr := newSpanTracer(4, 2)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)

	// Fork-join: two children covering the same 10ms window. Their summed
	// durations exceed the root's wall time; self-time must clamp at 0.
	root := tr.Start("batch")
	a := root.Child("worker-0")
	b := root.Child("worker-1")
	clk.Advance(10 * time.Millisecond)
	a.Finish()
	b.Finish()
	root.Finish()

	trc := tr.Recent(0)[0]
	for _, s := range trc.Spans {
		if s.Parent == -1 && s.SelfNs != 0 {
			t.Fatalf("overlapped root SelfNs = %d, want 0", s.SelfNs)
		}
	}
}

func TestSpanRingWraparound(t *testing.T) {
	tr := newSpanTracer(4, 2)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)

	for i := 0; i < 10; i++ {
		s := tr.Start("t")
		s.Label("i", fmt.Sprint(i))
		clk.Advance(time.Duration(i+1) * time.Millisecond)
		s.Finish()
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := traces(tr); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent len = %d, want 4", len(recent))
	}
	// Oldest first: traces 6..9 survive.
	for i, trc := range recent {
		if want := fmt.Sprint(i + 6); trc.Labels["i"] != want {
			t.Fatalf("recent[%d] label = %q, want %q", i, trc.Labels["i"], want)
		}
	}
	// Recent(2) returns only the newest two.
	if last2 := tr.Recent(2); len(last2) != 2 || last2[1].Labels["i"] != "9" {
		t.Fatalf("Recent(2) = %v", last2)
	}
}

func TestSpanTopKRetention(t *testing.T) {
	tr := newSpanTracer(4, 3)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)

	// Wall times 1..10ms in shuffled order; top-3 must be 10, 9, 8 even
	// though the ring only keeps the last 4 traces.
	for _, ms := range []int{3, 10, 1, 7, 9, 2, 8, 5, 4, 6} {
		s := tr.Start("t")
		clk.Advance(time.Duration(ms) * time.Millisecond)
		s.Finish()
	}
	slow := tr.Slowest()
	if len(slow) != 3 {
		t.Fatalf("Slowest len = %d, want 3", len(slow))
	}
	for i, want := range []int64{int64(10 * time.Millisecond), int64(9 * time.Millisecond), int64(8 * time.Millisecond)} {
		if slow[i].WallNs != want {
			t.Fatalf("Slowest[%d].WallNs = %d, want %d", i, slow[i].WallNs, want)
		}
	}
}

func TestSpanPhaseStats(t *testing.T) {
	tr := newSpanTracer(8, 4)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)

	for i := 1; i <= 100; i++ {
		root := tr.Start("epoch")
		c := root.Child("refit")
		clk.Advance(time.Duration(i) * time.Millisecond)
		c.Finish()
		root.Finish()
	}
	stats := tr.PhaseStats()
	if len(stats) != 2 {
		t.Fatalf("PhaseStats rows = %d, want 2 (refit + epoch)", len(stats))
	}
	// Sorted by total self-time descending: refit carries all the time.
	if stats[0].Phase != "refit" {
		t.Fatalf("top phase = %q, want refit", stats[0].Phase)
	}
	rf := stats[0]
	if rf.Count != 100 {
		t.Fatalf("refit count = %d", rf.Count)
	}
	if rf.MaxNs != int64(100*time.Millisecond) {
		t.Fatalf("refit max = %d", rf.MaxNs)
	}
	// p50 of 1..100ms lands mid-range, p95 near the top.
	if rf.P50Ns < int64(45*time.Millisecond) || rf.P50Ns > int64(56*time.Millisecond) {
		t.Fatalf("refit p50 = %v", time.Duration(rf.P50Ns))
	}
	if rf.P95Ns < int64(90*time.Millisecond) || rf.P95Ns > int64(100*time.Millisecond) {
		t.Fatalf("refit p95 = %v", time.Duration(rf.P95Ns))
	}
	// The total is exact over every observation: 1+2+...+100 ms.
	if rf.TotalNs != int64(5050*time.Millisecond) {
		t.Fatalf("refit total = %v, want 5.05s", time.Duration(rf.TotalNs))
	}
}

func TestSpanPhaseNameCap(t *testing.T) {
	tr := newSpanTracer(4, 2)
	clk := newFakeClock(time.Microsecond)
	tr.SetClock(clk.Now)
	for i := 0; i < maxPhaseNames+50; i++ {
		s := tr.Start(fmt.Sprintf("phase-%d", i))
		s.Finish()
	}
	stats := tr.PhaseStats()
	if len(stats) > maxPhaseNames+1 {
		t.Fatalf("phase rows = %d, want <= %d", len(stats), maxPhaseNames+1)
	}
	var other *PhaseStat
	for i := range stats {
		if stats[i].Phase == "other" {
			other = &stats[i]
		}
	}
	if other == nil || other.Count != 50 {
		t.Fatalf("overflow bucket = %+v, want count 50", other)
	}
}

func TestSpanWriteJSON(t *testing.T) {
	tr := newSpanTracer(8, 4)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)
	root := tr.Start("epoch")
	root.Label("epoch", "7")
	c := root.Child("journal")
	clk.Advance(2 * time.Millisecond)
	c.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, 10); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var dump struct {
		Total   int64        `json:"total"`
		Phases  []PhaseStat  `json:"phases"`
		Recent  []*SpanTrace `json:"recent"`
		Slowest []*SpanTrace `json:"slowest"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if dump.Total != 1 || len(dump.Recent) != 1 || len(dump.Slowest) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	if dump.Recent[0].Labels["epoch"] != "7" {
		t.Fatalf("labels lost: %+v", dump.Recent[0])
	}
}

func TestSpanWriteChromeTrace(t *testing.T) {
	tr := newSpanTracer(8, 4)
	clk := newFakeClock(0)
	tr.SetClock(clk.Now)
	root := tr.Start("epoch")
	root.Label("epoch", "3")
	c := root.Child("refit")
	clk.Advance(4 * time.Millisecond)
	c.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, buf.String())
	}
	// One thread_name metadata event plus two X events.
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3:\n%s", len(events), buf.String())
	}
	var meta, complete int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Fatalf("metadata event = %v", ev)
			}
		case "X":
			complete++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event missing dur: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 1 || complete != 2 {
		t.Fatalf("meta=%d complete=%d", meta, complete)
	}
}

// TestSpanConcurrencyHammer exercises concurrent trace construction,
// fork-join children and exports under -race.
func TestSpanConcurrencyHammer(t *testing.T) {
	tr := newSpanTracer(32, 8)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: concurrent traces, each with concurrent children.
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				root := tr.Start("batch")
				root.Label("g", fmt.Sprint(g))
				var cwg sync.WaitGroup
				for w := 0; w < 3; w++ {
					cwg.Add(1)
					go func(w int) {
						defer cwg.Done()
						c := root.Child(fmt.Sprintf("worker-%d", w))
						c.Finish()
					}(w)
				}
				cwg.Wait()
				root.Finish()
			}
		}(g)
	}
	// Readers: exports race the writers.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				tr.WriteJSON(&buf, 8)
				buf.Reset()
				tr.WriteChromeTrace(&buf, 8)
				tr.PhaseStats()
				tr.Slowest()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := tr.Total(); got != 800 {
		t.Fatalf("Total = %d, want 800", got)
	}
	if got := traces(tr); got != 32 {
		t.Fatalf("Len = %d, want full ring", got)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	RegisterBuildInfo(nil, "x") // nil registry is a no-op
	reg := NewRegistry()
	RegisterBuildInfo(reg, "")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `elink_build_info{`) || !strings.Contains(out, `version="dev"`) {
		t.Fatalf("build info missing:\n%s", out)
	}
	if !strings.Contains(out, "go_version=") || !strings.Contains(out, "gomaxprocs=") {
		t.Fatalf("build info labels missing:\n%s", out)
	}
	if !strings.Contains(out, "process_start_time_seconds") {
		t.Fatalf("start time missing:\n%s", out)
	}
	// Uptime is a scrape-time function gauge: two scrapes straddling a
	// sleep must move.
	first := scrapeValue(t, reg, "process_uptime_seconds")
	time.Sleep(5 * time.Millisecond)
	second := scrapeValue(t, reg, "process_uptime_seconds")
	if second <= first {
		t.Fatalf("uptime did not advance: %v -> %v", first, second)
	}
}

func scrapeValue(t *testing.T, reg *Registry, metric string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, metric+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, metric+" "), "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found:\n%s", metric, buf.String())
	return 0
}

func TestGaugeFuncJSONExport(t *testing.T) {
	reg := NewRegistry()
	n := 41.0
	reg.GaugeFunc("live_value", func() float64 { n++; return n })
	if got := scrapeValue(t, reg, "live_value"); got != 42 {
		t.Fatalf("live_value = %v, want 42", got)
	}
	// First registration wins; a second function must not replace it.
	reg.GaugeFunc("live_value", func() float64 { return -1 })
	if got := scrapeValue(t, reg, "live_value"); got != 43 {
		t.Fatalf("live_value = %v, want 43 (GaugeFunc was replaced)", got)
	}
}
