// Command bench is the repository's end-to-end benchmark. It runs one
// workload against the system's public entry points (the root elink
// facade, the internal/experiments figure functions, the streaming
// engine, and the elink-serve binary over HTTP), times every call it
// makes, checks every answer outside the timed regions, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set, and a traced run also writes its spans as Chrome
// trace-event JSON into the -work directory. README.md describes the
// workloads, the metrics and how to compare two commits.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and elink-serve inside the checkout first:
//
//	sh bench/run.sh -workload dv-paper -seed 1 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"elink"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd and perLayer are the metric sets BENCHMARK.json declares;
// every workload reports every one of them (see README.md for what each
// means on each workload).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"op_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []spec{
	{"data.gen_s", "s"},
	{"bench.check_s", "s"},
	{"bench.unattributed_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"elink.msgs", "msgs"},
	{"elink.rounds", "rounds"},
	{"baseline.msgs", "msgs"},
	{"index.msgs", "msgs"},
	{"query.msgs", "msgs"},
	{"update.msgs", "msgs"},
	{"update.silenced_ratio", "ratio"},
	{"stream.refresh_epochs", "count"},
	{"stream.rebuild_epochs", "count"},
	{"stream.recluster_epochs", "count"},
	{"persist.snapshot_bytes", "bytes"},
}

var workloads = map[string]func(*run) error{
	"figures-quick": figuresQuick,
	"dv-paper":      dvPaper,
	"tao-stream":    taoStream,
	"serve-mixed":   serveMixed,
}

// procs is the GOMAXPROCS of every process under test: the benchmark
// with its in-process workloads, and elink-serve. On a shared 2-vCPU
// host runs that used a second processor were slower and about twice as
// spread, and elink-serve's ingest cost rose 60% in a busy spell that
// slowed single-processor runs by 20%.
const procs = 1

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory: server data, trace files
	serve    string // elink-serve binary (serve-mixed only)
}

func main() {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "figures-quick | dv-paper | tao-stream | serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 12, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and report the per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for server data and trace files")
	flag.StringVar(&o.serve, "serve", "", "elink-serve binary (serve-mixed only)")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	runtime.GOMAXPROCS(procs)

	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, line := range res.lines {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.summary(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute runs one workload and returns its finished record. An error
// means the run could not produce metrics at all; failed operations and
// checks are counted in the record instead.
func execute(o options) (*run, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	r := newRun(o)
	r.detail("gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 1)
	r.detail("par_workers", float64(elink.Parallelism()), "count", 1)
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return r, r.complete()
}

// complete computes the shared metrics, writes the trace of a traced run
// and checks that the workload measured every declared metric.
func (r *run) complete() error {
	r.finish()
	o := r.opts
	if o.trace {
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := r.rec.writeChromeFile(path); err != nil {
			return err
		}
		r.linef("trace %s (%d spans)", path, len(r.rec.spans))
	}
	for _, set := range [][]spec{endToEnd, perLayer} {
		for _, s := range set {
			if _, ok := r.values[s.name]; !ok {
				return fmt.Errorf("%s: metric %s was not measured", o.workload, s.name)
			}
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *run) summary(traced bool) summary {
	set := endToEnd
	if traced {
		set = perLayer
	}
	s := summary{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		s.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	return s
}
