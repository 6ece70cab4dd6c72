package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"elink"
	"elink/internal/detrand"
)

// serveConfig shapes serve-mixed: the tao-stream grid and engine behind
// elink-serve, driven open loop by one ingest client and one query
// client, each on its own keep-alive connection.
type serveConfig struct {
	tao           taoConfig
	ingestPerSec  int
	queriesPerSec int // one in five is a path query, the rest range queries
	restarts      int
}

var serveMixedConfig = serveConfig{tao: taoStreamConfig, ingestPerSec: 20, queriesPerSec: 200, restarts: 5}

func serveMixed(r *run) error { return runServe(r, serveMixedConfig) }

// request is one pre-encoded HTTP request.
type request struct {
	kind     string // operation kind: serve.ingest, serve.range, serve.path, persist.admin_snapshot
	path     string
	body     []byte
	src, dst elink.NodeID // path queries only
}

// sample is one request's outcome.
type sample struct {
	req               request
	fromDue, fromSend float64 // ms
	late              float64 // ms the generator sent after the due time
	err               error
	body              []byte
}

func runServe(r *run, c serveConfig) error {
	if r.opts.serve == "" {
		return errors.New("serve-mixed needs -serve <elink-serve binary>")
	}
	t := c.tao
	seconds := int(r.opts.seconds / time.Second)
	ingests, queries := c.ingestPerSec*seconds, c.queriesPerSec*seconds

	// Inputs: the tao-stream series, its first epochs (warm-up plus the
	// open loop) as ingest bodies, and query bodies around features a
	// local engine fits over the warm-up epochs.
	var g *elink.Graph
	var ingestReqs, queryReqs []request
	d, err := r.untimed("data.generate", func() error {
		ds, err := elink.GenerateTao(elink.TaoGenConfig{Rows: t.rows, Cols: t.cols, Days: t.days, Seed: r.opts.seed})
		if err != nil {
			return err
		}
		g = ds.Graph
		ingestReqs, queryReqs, err = serveRequests(ds, t, t.warmup+ingests, queries, r.opts.seed)
		return err
	})
	if err != nil {
		return err
	}
	r.add("data.gen_s", d.Seconds())

	dataDir := filepath.Join(r.opts.work, fmt.Sprintf("serve-data-%d", r.opts.seed))
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	args := []string{
		"-rows", strconv.Itoa(t.rows), "-cols", strconv.Itoa(t.cols), "-order", "2",
		"-delta", strconv.FormatFloat(t.delta, 'g', -1, 64), "-policy", "periodic",
		"-period", strconv.Itoa(t.period), "-warmup", strconv.Itoa(t.warmup), "-seed", "1",
		"-data-dir", dataDir, "-fsync", "interval",
	}
	var srv *server
	defer func() { srv.stop() }()

	warmup, err := r.untimed("serve.warmup", func() error {
		var err error
		if srv, err = startServer(r.opts.serve, args); err != nil {
			return err
		}
		if err := srv.waitStatus("warming"); err != nil {
			return err
		}
		cl := newClient()
		defer cl.hc.CloseIdleConnections()
		for _, req := range append(ingestReqs[:t.warmup:t.warmup], queryReqs[:min(100, len(queryReqs))]...) {
			if _, err := cl.post(srv.url, req); err != nil {
				return err
			}
		}
		return srv.waitStatus("ready")
	})
	if err != nil {
		return err
	}
	r.detail("serve.warmup_s", warmup.Seconds(), "s", t.warmup)

	var ingestOut, queryOut []sample
	r.untimed("bench.open-loop", func() error {
		ingestOut, queryOut = openLoop(r.rec, srv.url, ingestReqs[t.warmup:], c.ingestPerSec, queryReqs, c.queriesPerSec)
		return nil
	})
	r.check(func() error {
		tallyServe(r, g, c, append(ingestOut, queryOut...))
		return nil
	})

	var before elink.EngineStats
	if err := srv.getJSON("/v1/stats", &before); err != nil {
		return err
	}
	r.detail("serve.peak_rss_mb", srv.peakRSSMB(), "MB", 1)
	r.set("elink.msgs", float64(before.BootstrapMsgs+before.ReclusterMsgs))
	r.set("index.msgs", float64(before.IndexRepairMsgs+before.IndexRebuildMsgs))
	r.set("update.msgs", float64(before.MaintenanceMsgs))
	r.set("query.msgs", float64(before.QueryMsgs))
	sc := before.Screening
	r.set("update.silenced_ratio", float64(sc.ScreenedA1+sc.ScreenedA2+sc.ScreenedA3)/float64(sc.Updates))
	r.detail("ingest_msgs", float64(before.TotalUpdateMsgs()), "msgs", int(before.Epochs))

	// Set-up of a durable server is its recovery: SIGKILL, restart on the
	// same data directory (newest snapshot plus the WAL tail), and time
	// until /healthz turns ready. The recovered server's peak RSS is the
	// reported one: it holds the same engine state as the serving phase,
	// whose own peak varies with when the garbage collector ran under
	// concurrent load (serve.peak_rss_mb).
	var recovers, rss []float64
	for i := 0; i < c.restarts; i++ {
		srv.stop()
		d, err := r.untimed("serve.recover", func() error {
			var err error
			if srv, err = startServer(r.opts.serve, args); err != nil {
				return err
			}
			return srv.waitStatus("ready")
		})
		if err != nil {
			return err
		}
		recovers = append(recovers, d.Seconds())
		rss = append(rss, srv.peakRSSMB())
		r.check(func() error {
			var after elink.EngineStats
			if err := srv.getJSON("/v1/stats", &after); err != nil {
				return err
			}
			if after.Epochs != before.Epochs {
				return fmt.Errorf("recovered at epoch %d, killed at %d", after.Epochs, before.Epochs)
			}
			return nil
		})
	}
	r.set("setup_s", median(recovers))
	r.set("peak_rss_mb", median(rss))
	r.detail("recover_s", median(recovers), "s", len(recovers))
	return nil
}

// tallyServe turns the open loop's samples into latencies, failures,
// checks and counts.
func tallyServe(r *run, g *elink.Graph, c serveConfig, samples []sample) {
	svc := make(map[string][]float64)
	epochPaths := make(map[string][]float64) // ingest service times by epoch path
	var late []float64
	for _, s := range samples {
		kind := s.req.kind
		r.attempted++
		r.lat[kind] = append(r.lat[kind], s.fromDue)
		svc[kind] = append(svc[kind], s.fromSend)
		late = append(late, s.late)
		var epochPath string
		if s.err == nil {
			epochPath, s.err = checkResponse(r, g, s)
		}
		if s.err != nil {
			r.fail(fmt.Errorf("%s: %w", kind, s.err))
		} else if epochPath != "" {
			epochPaths[epochPath] = append(epochPaths[epochPath], s.fromSend)
		}
	}
	work, err := c.tao.periodWork(epochPaths)
	if err != nil {
		r.fail(err)
	}
	r.set("work_s", work)
	ingest := r.lat["serve.ingest"]
	r.detail("epoch_p95_ms", quantile(ingest, 0.95), "ms", len(ingest))
	q := append(append([]float64(nil), r.lat["serve.range"]...), r.lat["serve.path"]...)
	r.detail("query_p50_ms", median(q), "ms", len(q))
	r.detail("query_p99_ms", quantile(q, 0.99), "ms", len(q))
	for _, kind := range []string{"serve.ingest", "serve.range", "serve.path", "persist.admin_snapshot"} {
		r.detail(kind+"_service_ms", median(svc[kind]), "ms", len(svc[kind]))
	}
	r.detail("serve.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	r.detail("serve.late_max_ms", quantile(late, 1), "ms", len(late))
}

// checkResponse decodes one successful response, checks what can be
// checked from outside the server, and adds its counts. For an ingest it
// returns the path the epoch took: refresh, rebuild or recluster.
func checkResponse(r *run, g *elink.Graph, s sample) (string, error) {
	switch s.req.kind {
	case "serve.ingest":
		var res elink.IngestResult
		if err := json.Unmarshal(s.body, &res); err != nil {
			return "", err
		}
		if !res.Ready {
			return "", errors.New("ingest answered by an engine that is not ready")
		}
		path := epochPath(&res)
		r.add("stream."+path+"_epochs", 1)
		return path, nil
	case "serve.range":
		var res struct{ Matches []elink.NodeID }
		return "", json.Unmarshal(s.body, &res)
	case "serve.path":
		var res struct {
			Found bool
			Path  []elink.NodeID
		}
		if err := json.Unmarshal(s.body, &res); err != nil {
			return "", err
		}
		p := res.Path
		if !res.Found {
			return "", nil
		}
		if len(p) == 0 || p[0] != s.req.src || p[len(p)-1] != s.req.dst {
			return "", fmt.Errorf("path %v does not run %d→%d", p, s.req.src, s.req.dst)
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				return "", fmt.Errorf("path hop %d→%d is not an edge", p[i-1], p[i])
			}
		}
	case "persist.admin_snapshot":
		var info struct{ Bytes int64 }
		if err := json.Unmarshal(s.body, &info); err != nil {
			return "", err
		}
		r.set("persist.snapshot_bytes", float64(info.Bytes))
	}
	return "", nil
}

// serveRequests pre-encodes the ingest bodies of the first epochs of the
// series and the query bodies.
func serveRequests(ds *elink.Dataset, t taoConfig, epochs, queries int, seed int64) (ingests, qs []request, err error) {
	g := ds.Graph
	n := g.N()
	readings := make([]elink.Reading, n)
	batch := func(epoch int) []elink.Reading {
		for u := range readings {
			readings[u] = elink.Reading{Node: elink.NodeID(u), Value: ds.Series[u][epoch]}
		}
		return readings
	}
	for epoch := 0; epoch < epochs; epoch++ {
		body, err := json.Marshal(map[string]any{"readings": batch(epoch)})
		if err != nil {
			return nil, nil, err
		}
		ingests = append(ingests, request{kind: "serve.ingest", path: "/v1/ingest", body: body})
	}

	e, err := elink.NewEngine(g, t.engine())
	if err != nil {
		return nil, nil, err
	}
	for epoch := 0; epoch < t.warmup; epoch++ {
		if _, err := e.Ingest(batch(epoch)); err != nil {
			return nil, nil, err
		}
	}
	snap := e.Snapshot()
	if snap == nil {
		return nil, nil, errors.New("local engine did not bootstrap")
	}
	feats := snap.Features
	rng := detrand.New(seed)
	for j := 0; j < queries; j++ {
		frac := 0.3 + 0.6*rng.Float64()
		var req request
		var body any
		if j%5 == 4 {
			req = request{kind: "serve.path", path: "/v1/query/path", src: elink.NodeID(rng.Intn(n)), dst: elink.NodeID(rng.Intn(n))}
			body = map[string]any{"danger": feats[rng.Intn(n)], "gamma": frac * t.delta, "src": req.src, "dst": req.dst}
		} else {
			req = request{kind: "serve.range", path: "/v1/query/range"}
			body = map[string]any{"feature": feats[rng.Intn(n)], "radius": frac * t.delta, "initiator": rng.Intn(n)}
		}
		if req.body, err = json.Marshal(body); err != nil {
			return nil, nil, err
		}
		qs = append(qs, req)
	}
	return ingests, qs, nil
}

// openLoop sends the ingests and the queries on their own fixed
// schedules, each client on its own goroutine and connection, and times
// every request from when it was due, so a stall also counts against the
// requests queued behind it. Halfway through, the ingest client asks for
// a durable snapshot.
func openLoop(rec *recorder, base string, ingests []request, ingestRate int, queries []request, queryRate int) (ingestOut, queryOut []sample) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { //elink:allow godiscipline — the ingest client of the two-client load generator; openLoop waits for it
		defer wg.Done()
		ingestOut = drive(rec, 1, "ingest-client", base, ingests, ingestRate, start, len(ingests)/2)
	}()
	go func() { //elink:allow godiscipline — the query client of the two-client load generator; openLoop waits for it
		defer wg.Done()
		queryOut = drive(rec, 2, "query-client", base, queries, queryRate, start, -1)
	}()
	wg.Wait()
	return ingestOut, queryOut
}

// drive sends reqs at rate per second from start on one connection; after
// request snapshotAfter it also posts /admin/snapshot.
func drive(rec *recorder, track int, name, base string, reqs []request, rate int, start time.Time, snapshotAfter int) []sample {
	cl := newClient()
	defer cl.hc.CloseIdleConnections()
	root := rec.begin(name, track, -1)
	defer rec.end(root)
	interval := time.Second / time.Duration(rate)
	out := make([]sample, 0, len(reqs)+1)
	for i, req := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			id := rec.begin("bench.idle", track, root)
			time.Sleep(wait)
			rec.end(id)
		}
		out = append(out, cl.send(rec, track, root, base, req, due))
		if i == snapshotAfter {
			snap := request{kind: "persist.admin_snapshot", path: "/admin/snapshot"}
			out = append(out, cl.send(rec, track, root, base, snap, time.Now()))
		}
	}
	return out
}

type client struct{ hc *http.Client }

// newClient returns a client that keeps one connection open.
func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) send(rec *recorder, track, parent int, base string, req request, due time.Time) sample {
	id := rec.begin(req.kind, track, parent)
	sent := time.Now()
	body, err := c.post(base, req)
	done := time.Now()
	rec.end(id)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return sample{req: req, fromDue: ms(done.Sub(due)), fromSend: ms(done.Sub(sent)), late: ms(sent.Sub(due)), err: err, body: body}
}

func (c *client) post(base string, req request) ([]byte, error) {
	resp, err := c.hc.Post(base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// server is one elink-serve process.
type server struct {
	cmd *exec.Cmd
	url string
}

// startServer execs elink-serve on a free loopback port with GOMAXPROCS
// procs. Its per-request log goes to /dev/null; it is killed if the
// benchmark dies first.
func startServer(bin string, args []string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start elink-serve: %w", err)
	}
	return &server{cmd: cmd, url: "http://" + addr}, nil
}

// stop kills the server (SIGKILL, no graceful snapshot) and waits for
// it to exit. It is safe on a nil or already stopped server.
func (s *server) stop() {
	if s == nil || s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only if it already exited; Wait reaps it either way
	_ = s.cmd.Wait()         // the exit status of a killed process is an error by design
}

func (s *server) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)) }

// serverStartTimeout bounds how long a start or recovery may take.
const serverStartTimeout = 60 * time.Second

// waitStatus polls /healthz until the server reports the given status:
// "warming" once boot recovery is done but no clustering exists yet,
// "ready" once it answers queries.
func (s *server) waitStatus(want string) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(serverStartTimeout)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			var health struct{ Status string }
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil && health.Status == want {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("elink-serve at %s not %s after %v", s.url, want, serverStartTimeout)
}

func (s *server) getJSON(path string, v any) error {
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
