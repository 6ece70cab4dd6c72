package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"elink/internal/experiments"
)

// smoke runs one workload at a tiny size and checks that it passes its
// own checks and reports every declared metric with a finite value.
func smoke(t *testing.T, name string, o options, fn func(*run) error) *run {
	t.Helper()
	o.workload, o.seed, o.trace = name, 2, true
	if o.work == "" {
		o.work = t.TempDir()
	}
	if o.seconds == 0 {
		o.seconds = time.Second
	}
	r := newRun(o)
	if err := fn(r); err != nil {
		t.Fatal(err)
	}
	if err := r.complete(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
	}
	for _, traced := range []bool{false, true} {
		s := r.summary(traced)
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("summary(trace=%v): %v", traced, err)
		}
		for name, m := range s.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
				t.Errorf("metric %s = %v", name, m.Value)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(o.work, "trace-"+name+"-2.json")); err != nil {
		t.Errorf("traced run wrote no trace file: %v", err)
	}
	return r
}

func TestFiguresSmoke(t *testing.T) {
	sc := experiments.Scale{TaoDays: 7, DVNodes: 60, DVTopologies: 1, SynSizes: []int{30, 60}, SynReadings: 400, Queries: 3}
	r := smoke(t, "figures-quick", options{}, func(r *run) error { return runFigures(r, sc) })
	if got := len(r.lat["experiments.fig09"]); got < 2 {
		t.Errorf("fig09 ran %d times, want at least two passes", got)
	}
}

func TestDVSmoke(t *testing.T) {
	c := dvConfig{nodes: 200, deltas: []float64{100, 300}, rangeQueries: 5, pathQueries: 3}
	r := smoke(t, "dv-paper", options{}, func(r *run) error { return runDV(r, c) })
	if r.values["elink.msgs"] == 0 || r.values["elink.rounds"] == 0 {
		t.Errorf("no ELink costs counted: %v", r.values)
	}
}

var tinyTao = taoConfig{rows: 6, cols: 9, days: 5, delta: 0.2, period: 20, warmup: 12, countEpochs: 60, validateEvery: 20}

func TestTaoSmoke(t *testing.T) {
	r := smoke(t, "tao-stream", options{}, func(r *run) error { return runTao(r, tinyTao) })
	if r.values["stream.recluster_epochs"] == 0 || r.values["persist.snapshot_bytes"] == 0 {
		t.Errorf("stream counters not read: %v", r.values)
	}
}

// TestServeSmoke builds the real elink-serve and drives it for a second.
// runServe kills and reaps every server it starts before it returns; the
// test checks that no process of the binary is left.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "elink-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/elink-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build elink-serve: %v\n%s", err, out)
	}
	t.Cleanup(func() {
		if pids := processesOf(bin); len(pids) > 0 {
			t.Errorf("elink-serve still running: pids %v", pids)
		}
	})
	c := serveConfig{tao: tinyTao, ingestPerSec: 20, queriesPerSec: 50, restarts: 1}
	r := smoke(t, "serve-mixed", options{work: dir, serve: bin}, func(r *run) error { return runServe(r, c) })
	if r.values["setup_s"] <= 0 || r.values["peak_rss_mb"] <= 0 {
		t.Errorf("recovery time or server RSS not measured: %v", r.values)
	}
}

// processesOf lists the pids whose executable is bin.
func processesOf(bin string) []string {
	entries, _ := os.ReadDir("/proc")
	var pids []string
	for _, e := range entries {
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, e.Name())
		}
	}
	return pids
}

// TestSpanTelescoping pins the decomposition the traced run reports:
// over properly nested spans, self-times sum to the root's wall time, and
// spans that overlap a sibling or leave their parent are refused.
func TestSpanTelescoping(t *testing.T) {
	ms := time.Millisecond
	nested := func() *recorder {
		return &recorder{spans: []span{
			{name: "root", parent: -1, start: 0, end: 10 * ms},
			{name: "a/1", parent: 0, start: 1 * ms, end: 4 * ms},
			{name: "b", parent: 1, start: 2 * ms, end: 3 * ms},
			{name: "a/2", parent: 0, start: 5 * ms, end: 9 * ms},
		}}
	}
	r := nested()
	wall, unattributed, err := r.rootAccounting()
	if err != nil || wall != 10*ms || unattributed != 3*ms {
		t.Fatalf("wall %v unattributed %v err %v, want 10ms 3ms nil", wall, unattributed, err)
	}
	self := r.selfByName()
	if self["a"] != 6*ms || self["b"] != ms || self["root"] != 3*ms {
		t.Fatalf("self-times %v", self)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != wall {
		t.Fatalf("self-times sum to %v, root wall time is %v", sum, wall)
	}

	for name, broken := range map[string]func(*recorder){
		"overlap":    func(r *recorder) { r.spans[3].start = 3 * ms },
		"outlives":   func(r *recorder) { r.spans[2].end = 5 * ms },
		"unfinished": func(r *recorder) { r.spans[3].end = -1 },
	} {
		r := nested()
		broken(r)
		if _, _, err := r.rootAccounting(); err == nil {
			t.Errorf("%s: spans accepted", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload lists in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(names), len(workloads))
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		program  []spec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program %d", len(c.declared), len(c.program))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.program[i].name || m.Unit != c.program[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}
