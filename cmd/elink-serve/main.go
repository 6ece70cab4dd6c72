// Command elink-serve runs the streaming engine as an HTTP/JSON daemon:
// sensors (or a replayer) POST reading batches, the engine maintains the
// clustering and M-tree index incrementally, and clients query ranges,
// safe paths, statistics and the current clustering snapshot while
// ingestion continues.
//
// Usage:
//
//	elink-serve -addr :8080 -rows 6 -cols 9 -order 4 -delta 0.12
//
// With -data-dir the daemon is durable: every ingested batch is
// journaled to a write-ahead log, snapshots of the full engine state are
// written periodically (-snapshot-every), on demand (POST
// /admin/snapshot) and on graceful shutdown, and on boot the newest
// valid snapshot is restored and the WAL tail replayed, recovering the
// exact pre-crash state (see DESIGN.md, "Durability"). SIGINT/SIGTERM
// trigger a graceful drain: in-flight requests finish (10s deadline),
// then a final snapshot is written.
//
// Endpoints:
//
//	GET  /healthz          readiness: 200 {"status":"ready"} once
//	                       queryable, 503 {"status":"restoring"|"warming"}
//	                       while recovering or bootstrapping, 503
//	                       {"status":"diverged"} after a WAL append
//	                       failure (restart to recover)
//	POST /v1/ingest        {"readings":[{"node":0,"value":27.1},...]}
//	                       or {"features":[{"node":0,"feature":[...]},...]}
//	POST /v1/query/range   {"feature":[...],"radius":0.1,"initiator":0}
//	POST /v1/query/path    {"danger":[...],"gamma":0.2,"src":0,"dst":53}
//	GET  /v1/stats         cumulative engine counters
//	GET  /v1/snapshot      current epoch's clustering
//	POST /admin/snapshot   write a snapshot now (requires -data-dir)
//	GET  /metrics          Prometheus text: the daemon's own HTTP, build,
//	                       WAL and snapshot metrics, then the engine's
//	                       Stats rendered at scrape time (see engineMetrics)
//	GET  /debug/spans      span traces: recent ring, top-K slowest and the
//	                       per-phase latency attribution table as JSON;
//	                       ?format=chrome emits Chrome trace-event JSON
//	                       loadable in Perfetto / chrome://tracing
//	GET  /debug/pprof/     runtime profiles (only with -pprof)
//
// Errors are JSON bodies {"error":"...","request_id":"..."} with
// meaningful statuses: bad payloads are 400, a warming-up or restoring
// engine is 503, engine-internal failures are 500. Every request gets a
// monotonic id echoed in the X-Request-ID response header, carried in
// the request's span trace and printed in the log line, so a slow span
// in /debug/spans and an error body cross-reference the same log entry.
// Requests are counted in http_requests_total / timed in
// http_request_duration_seconds (path labels are route patterns, so the
// cardinality is fixed). Every engine family on /metrics is read from
// Engine.Stats when the scrape arrives, so it always equals the
// matching /v1/stats field, restarts included.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"elink"
)

// version identifies the build in elink_build_info; stamp a release with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/elink-serve
var version = "dev"

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		rows      = flag.Int("rows", 6, "grid rows (ignored when -nodes > 0)")
		cols      = flag.Int("cols", 9, "grid cols (ignored when -nodes > 0)")
		nodes     = flag.Int("nodes", 0, "random-geometric node count (0 = use the grid)")
		degree    = flag.Float64("degree", 4, "average degree for the random network")
		order     = flag.Int("order", 2, "AR model order (0 = feature-only ingest)")
		delta     = flag.Float64("delta", 0.2, "clustering threshold δ")
		slack     = flag.Float64("slack", 0, "maintenance slack Δ (0 = δ/10)")
		policy    = flag.String("policy", "adaptive", "re-cluster policy: never | adaptive | periodic")
		frag      = flag.Float64("frag", 1.5, "fragmentation factor for -policy adaptive")
		period    = flag.Int("period", 20, "epoch period for -policy periodic")
		warmup    = flag.Int("warmup", 0, "observations per node before bootstrap (0 = 4*order)")
		seed      = flag.Int64("seed", 1, "seed for topology and clustering runs")
		withPprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		dataDir   = flag.String("data-dir", "", "durability directory for snapshots + WAL (empty = no persistence)")
		restore   = flag.Bool("restore", true, "restore from -data-dir on boot (false discards prior state)")
		snapEvery = flag.Duration("snapshot-every", 0, "periodic background snapshot interval (0 = only on demand/shutdown)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always | interval | never")
	)
	flag.Parse()

	var g *elink.Graph
	if *nodes > 0 {
		g = elink.NewRandomNetwork(*nodes, *degree, *seed)
	} else {
		g = elink.NewGrid(*rows, *cols)
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elink-serve:", err)
		os.Exit(2)
	}
	s := *slack
	if s == 0 {
		s = *delta / 10
	}
	reg := elink.NewMetricsRegistry()
	elink.RegisterBuildInfo(reg, version) // build metadata + uptime on /metrics
	spans := elink.NewSpanTracer()        // the last 256 traces and the 16 slowest
	engine, err := elink.NewEngine(g, elink.EngineConfig{
		Order:               *order,
		Delta:               *delta,
		Slack:               s,
		Metric:              elink.Euclidean(),
		Seed:                *seed,
		Policy:              pol,
		FragmentationFactor: *frag,
		Period:              *period,
		WarmupObs:           *warmup,
		Spans:               spans,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elink-serve:", err)
		os.Exit(2)
	}

	srv := &server{engine: engine, reg: reg, spans: spans, dataDir: *dataDir}
	mux := newMux(srv, *withPprof)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dataDir != "" {
		pol, err := elink.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elink-serve:", err)
			os.Exit(2)
		}
		srv.walOpts = elink.WALOptions{Fsync: pol, Metrics: elink.NewWALMetrics(reg)}
		// Recover asynchronously so the listener comes up immediately and
		// /healthz can report "restoring"; every engine-touching endpoint
		// returns 503 until recovery finishes.
		srv.restoring.Store(true)
		go func() {
			if err := srv.recover(*restore); err != nil {
				// A failed recovery must not silently degrade into a fresh
				// engine — that would break the crash-exactness contract.
				log.Fatalf("elink-serve: recovery failed: %v", err)
			}
			srv.restoring.Store(false)
		}()
		if *snapEvery > 0 {
			go srv.snapshotLoop(ctx, *snapEvery)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("elink-serve: signal received, draining requests")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("elink-serve: shutdown: %v", err)
		}
	}()

	log.Printf("elink-serve: %d nodes, order %d, delta %g, slack %g, policy %s, listening on %s",
		g.N(), *order, *delta, s, pol, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "elink-serve:", err)
		os.Exit(1)
	}
	<-shutdownDone

	if *dataDir != "" && !srv.restoring.Load() {
		if info, err := srv.writeSnapshot(); err != nil {
			log.Printf("elink-serve: shutdown snapshot: %v", err)
		} else {
			log.Printf("elink-serve: shutdown snapshot: seq %d, epoch %d, %d bytes", info.Seq, info.Epoch, info.Bytes)
		}
		if srv.wal != nil {
			if err := srv.wal.Close(); err != nil {
				log.Printf("elink-serve: close WAL: %v", err)
			}
		}
	}
	log.Printf("elink-serve: stopped")
}

func parsePolicy(s string) (elink.ReclusterPolicy, error) {
	switch strings.ToLower(s) {
	case "never":
		return elink.PolicyNever, nil
	case "adaptive":
		return elink.PolicyAdaptive, nil
	case "periodic":
		return elink.PolicyPeriodic, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want never | adaptive | periodic)", s)
}

type server struct {
	engine *elink.Engine
	reg    *elink.MetricsRegistry
	// spans collects the hierarchical request/epoch/query span traces
	// served by /debug/spans; nil disables tracing (every Span method is
	// nil-safe).
	spans *elink.SpanTracer
	// reqID mints the monotonic request id the observe middleware echoes
	// in X-Request-ID, span labels, log lines and error bodies.
	reqID atomic.Int64

	// Durability state (zero when -data-dir is unset).
	dataDir string
	walOpts elink.WALOptions
	wal     *elink.WAL
	// restoring gates every engine-touching endpoint during boot
	// recovery; /healthz reports it as "restoring".
	restoring atomic.Bool
	// snapMu serializes snapshot-to-disk writers (the periodic loop, the
	// admin endpoint and the shutdown path).
	snapMu sync.Mutex
}

const snapSuffix = ".snap"

// snapshotPath names the snapshot for one ingest sequence; lexical order
// is sequence order, so directory listings sort oldest-first.
func (s *server) snapshotPath(seq int64) string {
	return filepath.Join(s.dataDir, fmt.Sprintf("snap-%016d%s", seq, snapSuffix))
}

// listSnapshots returns the data dir's snapshot files, newest first.
func (s *server) listSnapshots() []string {
	paths, _ := filepath.Glob(filepath.Join(s.dataDir, "snap-*"+snapSuffix))
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths
}

// recover brings the engine back to its pre-crash state: newest valid
// snapshot first (falling back to older ones if the newest is damaged),
// then the WAL tail, then the WAL is attached for journaling. With
// restore=false, prior state in the data dir is discarded instead — an
// explicit fresh start.
func (s *server) recover(restore bool) error {
	walDir := filepath.Join(s.dataDir, "wal")
	// Sweep temp files a crash mid-snapshot left behind. They were never
	// renamed into place, so they are not recovery points — just garbage
	// that would otherwise accumulate forever.
	if tmps, _ := filepath.Glob(filepath.Join(s.dataDir, "snap-*.tmp")); len(tmps) > 0 {
		for _, p := range tmps {
			os.Remove(p)
		}
		log.Printf("elink-serve: swept %d stale snapshot temp file(s)", len(tmps))
	}
	if !restore {
		for _, p := range s.listSnapshots() {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("discard %s: %w", p, err)
			}
		}
		if err := os.RemoveAll(walDir); err != nil {
			return fmt.Errorf("discard WAL: %w", err)
		}
		log.Printf("elink-serve: -restore=false, discarded prior state in %s", s.dataDir)
	}
	if restore {
		for _, p := range s.listSnapshots() {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			start := time.Now()
			err = s.engine.Restore(f)
			f.Close()
			if err == nil {
				s.recordRestore(time.Since(start))
				log.Printf("elink-serve: restored %s (seq %d, epoch %d)", filepath.Base(p), s.engine.Seq(), s.engine.Snapshot().Epoch)
				break
			}
			// A torn snapshot (crash mid-write before the rename, or disk
			// damage) is expected to be survivable: fall back to the next-
			// older one and let the WAL replay cover the difference.
			log.Printf("elink-serve: snapshot %s unusable (%v), trying older", filepath.Base(p), err)
		}
	}
	w, err := elink.OpenWAL(walDir, s.walOpts)
	if err != nil {
		return err
	}
	if restore {
		n, err := s.engine.ReplayWAL(w)
		if err != nil {
			return err
		}
		if n > 0 {
			log.Printf("elink-serve: replayed %d WAL batches, engine at seq %d", n, s.engine.Seq())
		}
	}
	s.engine.AttachWAL(w)
	s.wal = w
	return nil
}

// writeSnapshot writes one snapshot atomically (temp file + rename),
// prunes all but the newest 3, and lets the WAL drop fully covered
// segments.
func (s *server) writeSnapshot() (elink.SnapshotInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	tmp, err := os.CreateTemp(s.dataDir, "snap-*.tmp")
	if err != nil {
		return elink.SnapshotInfo{}, err
	}
	info, err := s.engine.SaveSnapshot(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return info, err
	}
	if err := os.Rename(tmp.Name(), s.snapshotPath(info.Seq)); err != nil {
		os.Remove(tmp.Name())
		return info, err
	}
	s.recordSnapshot(info)
	snaps := s.listSnapshots()
	if len(snaps) > 3 {
		for _, p := range snaps[3:] {
			os.Remove(p)
		}
		snaps = snaps[:3]
	}
	// Truncate only through the OLDEST retained snapshot: recover() falls
	// back to older snapshots when the newest is damaged, and that fallback
	// needs the WAL records past the older snapshot's seq to still exist.
	// Truncating through the newest seq would make every snapshot but the
	// newest an unusable recovery point.
	if s.wal != nil && len(snaps) > 0 {
		if seq, ok := snapshotSeq(snaps[len(snaps)-1]); ok {
			if err := s.wal.TruncateThrough(seq); err != nil {
				log.Printf("elink-serve: WAL truncate: %v", err)
			}
		}
	}
	return info, nil
}

// recordSnapshot counts one snapshot written into the data dir.
func (s *server) recordSnapshot(info elink.SnapshotInfo) {
	s.reg.Help("persist_snapshot_total", "Engine snapshots written.")
	s.reg.Help("persist_snapshot_bytes_total", "Snapshot bytes written.")
	s.reg.Help("persist_snapshot_seconds", "Snapshot capture+write latency.")
	s.reg.Help("persist_snapshot_last_seq", "Ingest sequence of the newest snapshot.")
	s.reg.Help("persist_snapshot_last_bytes", "Size of the newest snapshot.")
	s.reg.Counter("persist_snapshot_total").Inc()
	s.reg.Counter("persist_snapshot_bytes_total").Add(info.Bytes)
	s.reg.Histogram("persist_snapshot_seconds", elink.LatencyBuckets()).Observe(info.Duration.Seconds())
	s.reg.Gauge("persist_snapshot_last_seq").Set(float64(info.Seq))
	s.reg.Gauge("persist_snapshot_last_bytes").Set(float64(info.Bytes))
}

// recordRestore counts one snapshot restored at boot, which took d.
func (s *server) recordRestore(d time.Duration) {
	s.reg.Help("persist_restore_total", "Snapshot restores applied.")
	s.reg.Help("persist_restore_seconds", "Snapshot restore latency.")
	s.reg.Counter("persist_restore_total").Inc()
	s.reg.Histogram("persist_restore_seconds", elink.LatencyBuckets()).Observe(d.Seconds())
}

// snapshotSeq recovers the ingest sequence number embedded in a
// snapshot's file name by snapshotPath.
func snapshotSeq(path string) (int64, bool) {
	base := strings.TrimSuffix(filepath.Base(path), snapSuffix)
	base = strings.TrimPrefix(base, "snap-")
	seq, err := strconv.ParseInt(base, 10, 64)
	return seq, err == nil && seq >= 0
}

// snapshotLoop writes periodic background snapshots until ctx ends.
func (s *server) snapshotLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.restoring.Load() {
				continue
			}
			if info, err := s.writeSnapshot(); err != nil {
				log.Printf("elink-serve: periodic snapshot: %v", err)
			} else {
				log.Printf("elink-serve: periodic snapshot: seq %d, epoch %d, %d bytes", info.Seq, info.Epoch, info.Bytes)
			}
		}
	}
}

// newMux wires every route through the observe middleware; main and the
// tests build the exact same handler tree.
func newMux(s *server, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(method, path string, h http.HandlerFunc) {
		mux.Handle(method+" "+path, s.observe(path, h))
	}
	handle("GET", "/healthz", s.health)
	handle("POST", "/v1/ingest", s.ingest)
	handle("POST", "/v1/query/range", s.rangeQuery)
	handle("POST", "/v1/query/path", s.pathQuery)
	handle("GET", "/v1/stats", s.stats)
	handle("GET", "/v1/snapshot", s.snapshot)
	handle("POST", "/admin/snapshot", s.adminSnapshot)
	handle("GET", "/metrics", s.metrics)
	handle("GET", "/debug/spans", s.spansDump)
	if withPprof {
		// The pprof handlers are wired explicitly so nothing is exposed
		// unless the flag asks for it (the blank import would register on
		// the default mux regardless).
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the status a handler wrote so the middleware
// can log and label it, and carries the request's id and span so
// handlers reached through the middleware can attach engine work to the
// request trace and stamp error bodies.
type statusRecorder struct {
	http.ResponseWriter
	status int
	reqID  int64
	span   *elink.Span
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// reqSpan recovers the request's root span from the ResponseWriter the
// observe middleware handed the handler; nil (safe everywhere a span is
// used) when the handler runs outside the middleware or tracing is off.
func reqSpan(w http.ResponseWriter) *elink.Span {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.span
	}
	return nil
}

// observe wraps a handler with per-request structured logging, the
// http_requests_total / http_request_duration_seconds metrics, a
// monotonic request id (echoed in X-Request-ID, log lines and error
// bodies) and a root "http" span the handler's engine work nests under.
// The path label is the registered route pattern, never the raw URL, so
// the label set stays bounded.
func (s *server) observe(path string, h http.HandlerFunc) http.Handler {
	s.reg.Help("http_requests_total", "HTTP requests served, by route and status code.")
	s.reg.Help("http_request_duration_seconds", "Wall-clock time serving an HTTP request, by route.")
	hist := s.reg.Histogram("http_request_duration_seconds", elink.LatencyBuckets(), "path", path)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		ids := strconv.FormatInt(id, 10)
		w.Header().Set("X-Request-ID", ids)
		sp := s.spans.Start("http")
		sp.Label("route", path)
		sp.Label("request_id", ids)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, reqID: id, span: sp}
		start := time.Now()
		h(rec, r)
		d := time.Since(start)
		sp.Label("status", strconv.Itoa(rec.status))
		sp.Finish()
		s.reg.Counter("http_requests_total", "path", path, "code", strconv.Itoa(rec.status)).Inc()
		hist.Observe(d.Seconds())
		log.Printf("elink-serve: method=%s path=%s status=%d duration=%s request_id=%s", r.Method, path, rec.status, d, ids)
	})
}

// gate rejects engine-touching requests while boot recovery is running;
// serving them against the half-restored engine would be wrong, and
// accepting ingest would fork the journal.
func (s *server) gate(w http.ResponseWriter) bool {
	if s.restoring.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("restoring from snapshot"))
		return false
	}
	return true
}

// ingestRequest carries either raw readings (engine fits AR models) or
// pre-fitted features (nodes run their own models); exactly one must be
// set.
type ingestRequest struct {
	Readings []elink.Reading       `json:"readings,omitempty"`
	Features []elink.FeatureUpdate `json:"features,omitempty"`
}

type rangeRequest struct {
	Feature   elink.Feature `json:"feature"`
	Radius    float64       `json:"radius"`
	Initiator elink.NodeID  `json:"initiator"`
}

type pathRequest struct {
	Danger elink.Feature `json:"danger"`
	Gamma  float64       `json:"gamma"`
	Src    elink.NodeID  `json:"src"`
	Dst    elink.NodeID  `json:"dst"`
}

// health reports the boot state machine: restoring (recovery in flight)
// → warming (models not yet bootstrapped) → ready. Only ready is 200, so
// orchestrators hold traffic until the engine is actually queryable. A
// diverged engine (a batch applied but never journaled — see
// elink.ErrWALDiverged) reports 503 "diverged" so the orchestrator
// restarts the process; recovery rebuilds exactly the journaled state.
func (s *server) health(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.restoring.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": true, "ready": false, "status": "restoring"})
	case s.engine.Diverged() != nil:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "ready": false, "status": "diverged"})
	case !s.engine.Ready():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": true, "ready": false, "status": "warming"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "ready": true, "status": "ready"})
	}
}

func (s *server) ingest(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch {
	case len(req.Readings) > 0 && len(req.Features) > 0:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("a batch carries readings or features, not both"))
	case len(req.Readings) > 0:
		res, err := s.engine.IngestSpanned(req.Readings, reqSpan(w))
		writeResult(w, res, err)
	case len(req.Features) > 0:
		res, err := s.engine.IngestFeaturesSpanned(req.Features, reqSpan(w))
		writeResult(w, res, err)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
	}
}

func (s *server) rangeQuery(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	var req rangeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.engine.RangeQuerySpanned(req.Feature, req.Radius, req.Initiator, reqSpan(w))
	if err != nil {
		writeError(w, queryStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"matches":  res.Matches,
		"messages": res.Stats.Messages,
	})
}

func (s *server) pathQuery(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	var req pathRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.engine.PathQuerySpanned(req.Danger, req.Gamma, req.Src, req.Dst, reqSpan(w))
	if err != nil {
		writeError(w, queryStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"found":    res.Found,
		"path":     res.Path,
		"messages": res.Stats.Messages,
	})
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	snap := s.engine.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, elink.ErrNotReady)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      snap.Epoch,
		"clusters":   snap.NumClusters(),
		"clustering": snap.Clustering,
	})
}

// adminSnapshot writes a durable snapshot on demand and returns its
// summary.
func (s *server) adminSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	if s.dataDir == "" {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("no -data-dir configured"))
		return
	}
	info, err := s.writeSnapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// metrics serves the daemon's registry, then the engine's Stats rendered
// into a registry built for this scrape, in Prometheus text exposition
// format. Reading Stats waits for an in-flight epoch, as /v1/stats does;
// while boot recovery runs only the daemon's own families are served.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	err := s.reg.WritePrometheus(w)
	if err == nil && !s.restoring.Load() {
		err = engineMetrics(s.engine.Stats(), s.engine.Config().Mode).WritePrometheus(w)
	}
	if err != nil {
		log.Printf("elink-serve: write metrics: %v", err)
	}
}

// engineMetrics renders one Stats reading as the engine's metric
// families. Each value is a field of st, so a scrape and a /v1/stats read
// of the same state agree exactly.
func engineMetrics(st elink.EngineStats, mode elink.Mode) *elink.MetricsRegistry {
	reg := elink.NewMetricsRegistry()
	reg.Help("engine_epoch", "Current published snapshot epoch.")
	reg.Help("engine_clusters", "Cluster count of the published snapshot.")
	reg.Help("engine_fragmentation", "Cluster count relative to the last full clustering run.")
	reg.Help("engine_index_depth", "Deepest M-tree entry in the published index.")
	reg.Gauge("engine_epoch").Set(float64(st.Epochs))
	reg.Gauge("engine_clusters").Set(float64(st.NumClusters))
	reg.Gauge("engine_fragmentation").Set(st.Fragmentation)
	reg.Gauge("engine_index_depth").Set(float64(st.IndexDepth))

	reg.Help("engine_readings_total", "Raw measurements ingested (feature pushes are not readings).")
	reg.Help("engine_reclusters_total", "Policy-triggered full ELink re-runs (bootstrap excluded).")
	reg.Help("engine_index_rebuilds_total", "Membership-driven M-tree rebuilds.")
	reg.Help("elink_runs_total", "Completed ELink clustering runs, bootstrap included, by signalling mode.")
	reg.Counter("engine_readings_total").Add(st.Readings)
	reg.Counter("engine_reclusters_total").Add(st.Reclusters)
	reg.Counter("engine_index_rebuilds_total").Add(st.IndexRebuilds)
	runs := st.Reclusters
	if st.Epochs > 0 {
		runs++ // epoch 1 is the bootstrap run
	}
	reg.Counter("elink_runs_total", "mode", mode.String()).Add(runs)

	sc := st.Screening
	reg.Help("maintenance_updates_total", "Feature updates screened by the slack-delta protocol.")
	reg.Help("maintenance_screened_total", "Updates silenced for free, by screening condition.")
	reg.Help("maintenance_root_fetches_total", "Full screen violations that fetched the fresh root feature.")
	reg.Help("maintenance_root_drifts_total", "Root updates that forced a broadcast.")
	reg.Help("maintenance_membership_total", "Cluster membership changes by event.")
	reg.Counter("maintenance_updates_total").Add(int64(sc.Updates))
	reg.Counter("maintenance_screened_total", "cond", "a1").Add(int64(sc.ScreenedA1))
	reg.Counter("maintenance_screened_total", "cond", "a2").Add(int64(sc.ScreenedA2))
	reg.Counter("maintenance_screened_total", "cond", "a3").Add(int64(sc.ScreenedA3))
	reg.Counter("maintenance_root_fetches_total").Add(int64(sc.RootFetches))
	reg.Counter("maintenance_root_drifts_total").Add(int64(sc.RootDrifts))
	reg.Counter("maintenance_membership_total", "event", "detach").Add(int64(sc.Detaches))
	reg.Counter("maintenance_membership_total", "event", "rejoin").Add(int64(sc.Rejoins))
	reg.Counter("maintenance_membership_total", "event", "singleton").Add(int64(sc.Singletons))

	// Kinds and phases split the same transmissions two ways, so they are
	// two families: summing either one never counts a message twice.
	reg.Help("engine_messages_total", "Update-path radio transmissions by message kind (queries excluded).")
	reg.Help("engine_phase_messages_total", "Radio transmissions by engine phase.")
	for kind, n := range st.Breakdown {
		reg.Counter("engine_messages_total", "kind", kind).Add(n)
	}
	reg.Counter("engine_phase_messages_total", "phase", "bootstrap").Add(st.BootstrapMsgs)
	reg.Counter("engine_phase_messages_total", "phase", "maintenance").Add(st.MaintenanceMsgs)
	reg.Counter("engine_phase_messages_total", "phase", "index_repair").Add(st.IndexRepairMsgs)
	reg.Counter("engine_phase_messages_total", "phase", "index_rebuild").Add(st.IndexRebuildMsgs)
	reg.Counter("engine_phase_messages_total", "phase", "recluster").Add(st.ReclusterMsgs)
	reg.Counter("engine_phase_messages_total", "phase", "query").Add(st.QueryMsgs)

	reg.Help("queries_total", "Queries answered, by query type.")
	reg.Counter("queries_total", "type", "range").Add(st.RangeQueries)
	reg.Counter("queries_total", "type", "path").Add(st.PathQueries)

	reg.Help("span_phase_spans_total", "Finished spans per traced phase.")
	reg.Help("span_phase_self_nanoseconds_total", "Summed span self-time per traced phase.")
	for _, p := range st.Phases {
		reg.Counter("span_phase_spans_total", "phase", p.Phase).Add(p.Count)
		reg.Counter("span_phase_self_nanoseconds_total", "phase", p.Phase).Add(p.TotalNs)
	}
	return reg
}

// spansDump serves the span tracer: by default a JSON document with the
// per-phase latency attribution table, the last ?n= recent traces (0 or
// unset = all buffered) and the top-K slowest; with ?format=chrome, the
// same traces as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing for a flame-graph view of the pipeline.
func (s *server) spansDump(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q: want a non-negative integer", raw))
			return
		}
		n = v
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := s.spans.WriteJSON(w, n); err != nil {
			log.Printf("elink-serve: write spans: %v", err)
		}
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="elink-trace.json"`)
		if err := s.spans.WriteChromeTrace(w, n); err != nil {
			log.Printf("elink-serve: write chrome trace: %v", err)
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q: want json or chrome", format))
	}
}

// maxBodyBytes bounds every request body the daemon decodes. It is
// about 50 times the serve-mixed workload's ingest body (≈ 80 KB for
// 2,000 readings).
const maxBodyBytes = 4 << 20

// decodeBody decodes r's JSON body into v. On failure it answers 413 for
// a body over maxBodyBytes, 400 for any other decode error, and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

// queryStatus maps engine query errors to HTTP statuses: a warming-up
// engine is 503 (retry later), anything else is a bad request.
func queryStatus(err error) int {
	if errors.Is(err, elink.ErrNotReady) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// ingestStatus maps ingest errors: payload mistakes (tagged
// ErrInvalidBatch) are the caller's fault, a diverged journal is 503 —
// retrying against this process cannot succeed (and must not: the
// engine latched read-only so a retry of an already-applied batch is
// rejected rather than double-applied) — and anything else is an engine
// failure.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, elink.ErrInvalidBatch):
		return http.StatusBadRequest
	case errors.Is(err, elink.ErrWALDiverged):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeResult(w http.ResponseWriter, res *elink.IngestResult, err error) {
	if err != nil {
		writeError(w, ingestStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if rec, ok := w.(*statusRecorder); ok && rec.reqID != 0 {
		body["request_id"] = strconv.FormatInt(rec.reqID, 10)
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("elink-serve: encode response: %v", err)
	}
}
