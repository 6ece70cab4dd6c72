package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"elink"
)

func newTestServer(t *testing.T) (*server, *http.ServeMux) {
	t.Helper()
	g := elink.NewGrid(1, 6)
	reg := elink.NewMetricsRegistry()
	spans := elink.NewSpanTracer()
	engine, err := elink.NewEngine(g, elink.EngineConfig{
		Order: 0, Delta: 2, Slack: 0.1, Metric: elink.Euclidean(), Seed: 1,
		Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &server{engine: engine, reg: reg, spans: spans}
	return s, newMux(s, false)
}

func do(t *testing.T, mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

func TestServeLifecycle(t *testing.T) {
	_, mux := newTestServer(t)

	// Not ready yet: queries and snapshot are 503, and health is a 503
	// "warming" until the engine is actually queryable.
	w := do(t, mux, "GET", "/healthz", "")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"status":"warming"`) {
		t.Fatalf("healthz = %d %s, want 503 warming", w.Code, w.Body.String())
	}
	if w = do(t, mux, "POST", "/v1/query/range", `{"feature":[0],"radius":1}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("range before bootstrap = %d, want 503", w.Code)
	}
	if w = do(t, mux, "GET", "/v1/snapshot", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot before bootstrap = %d, want 503", w.Code)
	}

	// Bootstrap via a feature batch: two plateaus on the 6-node path.
	batch := `{"features":[
		{"node":0,"feature":[0]},{"node":1,"feature":[0.1]},{"node":2,"feature":[0.2]},
		{"node":3,"feature":[9]},{"node":4,"feature":[9.1]},{"node":5,"feature":[9.2]}]}`
	w = do(t, mux, "POST", "/v1/ingest", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest = %d %s", w.Code, w.Body.String())
	}
	var res elink.IngestResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Ready || res.NumClusters != 2 {
		t.Fatalf("ingest result %+v, want ready with 2 clusters", res)
	}

	// Health flips to a 200 "ready" once queryable.
	w = do(t, mux, "GET", "/healthz", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ready"`) {
		t.Fatalf("healthz after bootstrap = %d %s, want 200 ready", w.Code, w.Body.String())
	}

	// Range query finds the low plateau.
	w = do(t, mux, "POST", "/v1/query/range", `{"feature":[0.1],"radius":0.5,"initiator":0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("range = %d %s", w.Code, w.Body.String())
	}
	var rr struct {
		Matches  []elink.NodeID `json:"matches"`
		Messages int64          `json:"messages"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Matches) != 3 {
		t.Errorf("range matched %v, want the 3 low-plateau nodes", rr.Matches)
	}

	// Path query avoiding the high plateau cannot cross the grid.
	w = do(t, mux, "POST", "/v1/query/path", `{"danger":[9.1],"gamma":2,"src":0,"dst":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("path = %d %s", w.Code, w.Body.String())
	}
	var pr struct {
		Found bool `json:"found"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Found {
		t.Error("path to a node inside the danger region should not exist")
	}

	// A query feature of the wrong dimension is the caller's mistake: a
	// JSON 400, not a panic that drops the connection.
	for _, bad := range []struct{ path, body string }{
		{"/v1/query/range", `{"feature":[0.1,0.2],"radius":0.5,"initiator":0}`},
		{"/v1/query/path", `{"danger":[0.1,0.2],"gamma":2,"src":0,"dst":5}`},
	} {
		w = do(t, mux, "POST", bad.path, bad.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "dimension") {
			t.Errorf("%s with a 2-dimensional feature = %d %s, want 400", bad.path, w.Code, w.Body.String())
		}
	}

	// Stats and snapshot reflect the traffic.
	w = do(t, mux, "GET", "/v1/stats", "")
	var st elink.EngineStats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epochs != 1 || st.RangeQueries != 1 || st.PathQueries != 1 {
		t.Errorf("stats = %+v, want 1 epoch, 1 range, 1 path", st)
	}
	w = do(t, mux, "GET", "/v1/snapshot", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"epoch":1`) {
		t.Errorf("snapshot = %d %s", w.Code, w.Body.String())
	}

	// Malformed ingest requests are rejected.
	for _, bad := range []string{
		`{`,
		`{}`,
		`{"readings":[{"node":0,"value":1}],"features":[{"node":0,"feature":[1]}]}`,
		`{"readings":[{"node":0,"value":1}]}`, // Order-0 engine takes features only
		`{"features":[{"node":99,"feature":[1]}]}`,
	} {
		if w = do(t, mux, "POST", "/v1/ingest", bad); w.Code != http.StatusBadRequest {
			t.Errorf("ingest %q = %d, want 400", bad, w.Code)
		}
	}
}

// bootstrapTestServer ingests a two-plateau feature batch so the engine
// is ready.
func bootstrapTestServer(t *testing.T, mux *http.ServeMux) {
	t.Helper()
	batch := `{"features":[
		{"node":0,"feature":[0]},{"node":1,"feature":[0.1]},{"node":2,"feature":[0.2]},
		{"node":3,"feature":[9]},{"node":4,"feature":[9.1]},{"node":5,"feature":[9.2]}]}`
	if w := do(t, mux, "POST", "/v1/ingest", batch); w.Code != http.StatusOK {
		t.Fatalf("bootstrap ingest = %d %s", w.Code, w.Body.String())
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	_, mux := newTestServer(t)
	bootstrapTestServer(t, mux)
	if w := do(t, mux, "POST", "/v1/query/range", `{"feature":[0.1],"radius":0.5,"initiator":0}`); w.Code != http.StatusOK {
		t.Fatalf("range = %d %s", w.Code, w.Body.String())
	}

	w := do(t, mux, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE engine_epoch gauge",
		"engine_epoch 1",
		"engine_clusters 2",
		`elink_runs_total{mode="implicit"} 1`,
		`queries_total{type="range"} 1`,
		`engine_messages_total{kind="expand"}`,
		`engine_phase_messages_total{phase="bootstrap"}`,
		`http_requests_total{code="200",path="/v1/ingest"} 1`,
		`http_request_duration_seconds_bucket{path="/v1/query/range"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// scrape parses a /metrics body into series values keyed by name and
// label string, as printed, failing on a family whose TYPE line appears
// more than once.
func scrape(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam = strings.Fields(fam)[0]
			if types[fam] {
				t.Errorf("TYPE line for %s appears twice", fam)
			}
			types[fam] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// checkMetricsMatchStats scrapes /metrics and /v1/stats from one idle
// server and requires every engine family to equal its Stats field.
func checkMetricsMatchStats(t *testing.T, mux *http.ServeMux) {
	t.Helper()
	got := scrape(t, do(t, mux, "GET", "/metrics", "").Body.String())
	var st elink.EngineStats
	if err := json.Unmarshal(do(t, mux, "GET", "/v1/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	sc := st.Screening
	want := map[string]float64{
		"engine_epoch":                                       float64(st.Epochs),
		"engine_clusters":                                    float64(st.NumClusters),
		"engine_fragmentation":                               st.Fragmentation,
		"engine_index_depth":                                 float64(st.IndexDepth),
		"engine_readings_total":                              float64(st.Readings),
		"engine_reclusters_total":                            float64(st.Reclusters),
		"engine_index_rebuilds_total":                        float64(st.IndexRebuilds),
		`elink_runs_total{mode="implicit"}`:                  float64(1 + st.Reclusters),
		"maintenance_updates_total":                          float64(sc.Updates),
		`maintenance_screened_total{cond="a1"}`:              float64(sc.ScreenedA1),
		`maintenance_screened_total{cond="a2"}`:              float64(sc.ScreenedA2),
		`maintenance_screened_total{cond="a3"}`:              float64(sc.ScreenedA3),
		"maintenance_root_fetches_total":                     float64(sc.RootFetches),
		"maintenance_root_drifts_total":                      float64(sc.RootDrifts),
		`maintenance_membership_total{event="detach"}`:       float64(sc.Detaches),
		`maintenance_membership_total{event="rejoin"}`:       float64(sc.Rejoins),
		`maintenance_membership_total{event="singleton"}`:    float64(sc.Singletons),
		`engine_phase_messages_total{phase="bootstrap"}`:     float64(st.BootstrapMsgs),
		`engine_phase_messages_total{phase="maintenance"}`:   float64(st.MaintenanceMsgs),
		`engine_phase_messages_total{phase="index_repair"}`:  float64(st.IndexRepairMsgs),
		`engine_phase_messages_total{phase="index_rebuild"}`: float64(st.IndexRebuildMsgs),
		`engine_phase_messages_total{phase="recluster"}`:     float64(st.ReclusterMsgs),
		`engine_phase_messages_total{phase="query"}`:         float64(st.QueryMsgs),
		`queries_total{type="range"}`:                        float64(st.RangeQueries),
		`queries_total{type="path"}`:                         float64(st.PathQueries),
	}
	for kind, n := range st.Breakdown {
		want[`engine_messages_total{kind="`+kind+`"}`] = float64(n)
	}
	for key, v := range want {
		if g, ok := got[key]; !ok || g != v {
			t.Errorf("/metrics %s = %v (present %v), /v1/stats says %v", key, g, ok, v)
		}
	}
	// The kind split covers the update path exactly: every transmission
	// but the queries'.
	var kinds float64
	for key, v := range got {
		if strings.HasPrefix(key, "engine_messages_total{") {
			kinds += v
		}
	}
	if update := st.TotalUpdateMsgs(); kinds != float64(update) {
		t.Errorf("engine_messages_total sums to %v, the update-path phases to %d", kinds, update)
	}
}

// TestServeMetricsMatchStats drives a feature-push server through
// batches of 6, 2 and 1 updates with a snapshot after the second, then
// restarts it from that snapshot and the one-batch WAL tail. In both
// processes every engine family on /metrics must equal its /v1/stats
// field, and /v1/stats readings must equal the sum of the ingest
// answers' readings.
func TestServeMetricsMatchStats(t *testing.T) {
	dir := t.TempDir()
	newPersistentServer := func() *http.ServeMux {
		t.Helper()
		s, mux := newTestServer(t)
		s.dataDir = dir
		s.walOpts = elink.WALOptions{Fsync: elink.FsyncAlways}
		if err := s.recover(true); err != nil {
			t.Fatalf("recover: %v", err)
		}
		return mux
	}
	mux := newPersistentServer()
	var ingested int64
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/ingest", `{"features":[
			{"node":0,"feature":[0]},{"node":1,"feature":[0.1]},{"node":2,"feature":[0.2]},
			{"node":3,"feature":[9]},{"node":4,"feature":[9.1]},{"node":5,"feature":[9.2]}]}`},
		{"POST", "/v1/ingest", `{"features":[{"node":2,"feature":[4]},{"node":4,"feature":[9.4]}]}`},
		{"POST", "/admin/snapshot", ""},
		{"POST", "/v1/ingest", `{"features":[{"node":1,"feature":[0.5]}]}`},
		{"POST", "/v1/query/range", `{"feature":[0.1],"radius":0.5,"initiator":0}`},
		{"POST", "/v1/query/path", `{"danger":[9.1],"gamma":2,"src":0,"dst":5}`},
	} {
		w := do(t, mux, req.method, req.path, req.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s = %d %s", req.method, req.path, w.Code, w.Body.String())
		}
		if req.path == "/v1/ingest" {
			var res elink.IngestResult
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			ingested += int64(res.Readings)
		}
	}
	checkMetricsMatchStats(t, mux)
	checkReadings(t, mux, ingested)

	// Restart: the snapshot covers two batches, the WAL replays the third.
	mux = newPersistentServer()
	checkMetricsMatchStats(t, mux)
	checkReadings(t, mux, ingested)
}

// checkReadings asserts /v1/stats reports want readings.
func checkReadings(t *testing.T, mux *http.ServeMux, want int64) {
	t.Helper()
	var st elink.EngineStats
	if err := json.Unmarshal(do(t, mux, "GET", "/v1/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Readings != want {
		t.Errorf("/v1/stats readings = %d, want %d (the sum of the ingest answers)", st.Readings, want)
	}
}

// TestServeHugeFeatureRange ingests a feature of 1e308, whose squared
// distance to the others overflows, and checks a range query of radius
// 1e308 around it still finds it and the low plateau (|1e308 - x| rounds
// to 1e308), but not the high plateau.
func TestServeHugeFeatureRange(t *testing.T) {
	_, mux := newTestServer(t)
	bootstrapTestServer(t, mux)
	if w := do(t, mux, "POST", "/v1/ingest", `{"features":[{"node":2,"feature":[1e308]}]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d %s", w.Code, w.Body.String())
	}
	w := do(t, mux, "POST", "/v1/query/range", `{"feature":[1e308],"radius":1e308,"initiator":0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("range = %d %s", w.Code, w.Body.String())
	}
	var rr struct {
		Matches []elink.NodeID `json:"matches"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rr.Matches) != "[0 1 2 3 4 5]" {
		t.Errorf("range around [1e308] matched %v, want every node", rr.Matches)
	}
}

// TestServePersistence drives the crash-recovery path end to end at the
// HTTP layer: ingest through a WAL-attached server, snapshot via the
// admin endpoint, ingest more (covered only by the WAL), "crash", then
// boot a second server over the same data dir and check it reports the
// identical epoch, clustering and counters.
func TestServePersistence(t *testing.T) {
	dir := t.TempDir()

	newPersistentServer := func() (*server, *http.ServeMux) {
		t.Helper()
		s, mux := newTestServer(t)
		s.dataDir = dir
		s.walOpts = elink.WALOptions{Fsync: elink.FsyncAlways}
		if err := s.recover(true); err != nil {
			t.Fatalf("recover: %v", err)
		}
		return s, mux
	}

	s1, mux1 := newPersistentServer()
	bootstrapTestServer(t, mux1)

	// Snapshot on demand, then keep ingesting so a WAL tail exists.
	w := do(t, mux1, "POST", "/admin/snapshot", "")
	if w.Code != http.StatusOK {
		t.Fatalf("admin snapshot = %d %s", w.Code, w.Body.String())
	}
	var info elink.SnapshotInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Bytes <= 0 {
		t.Fatalf("snapshot info = %+v, want seq 1 and a positive size", info)
	}
	drift := `{"features":[{"node":2,"feature":[0.3]},{"node":4,"feature":[9.4]}]}`
	if w = do(t, mux1, "POST", "/v1/ingest", drift); w.Code != http.StatusOK {
		t.Fatalf("post-snapshot ingest = %d %s", w.Code, w.Body.String())
	}
	statsBefore := do(t, mux1, "GET", "/v1/stats", "").Body.String()
	snapBefore := do(t, mux1, "GET", "/v1/snapshot", "").Body.String()
	// Crash: no shutdown snapshot, no WAL close. The fsync-always journal
	// must carry the post-snapshot batch on its own.

	s2, mux2 := newPersistentServer()
	if got := s2.engine.Seq(); got != s1.engine.Seq() {
		t.Fatalf("recovered seq = %d, want %d", got, s1.engine.Seq())
	}
	if w = do(t, mux2, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after recovery = %d %s", w.Code, w.Body.String())
	}
	snapAfter := do(t, mux2, "GET", "/v1/snapshot", "").Body.String()
	if snapAfter != snapBefore {
		t.Errorf("recovered /v1/snapshot = %s, want %s", snapAfter, snapBefore)
	}
	// Stats match except the wall-clock collection stamp.
	strip := func(s string) string {
		var m map[string]any
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "collectedAt")
		delete(m, "phases") // span telemetry is wall-clock, not engine state
		out, _ := json.Marshal(m)
		return string(out)
	}
	if got, want := strip(do(t, mux2, "GET", "/v1/stats", "").Body.String()), strip(statsBefore); got != want {
		t.Errorf("recovered /v1/stats = %s, want %s", got, want)
	}
}

// TestServeSnapshotFallbackSurvivesTruncation pins the retention
// contract: pruning keeps the newest 3 snapshots, and the WAL keeps
// every record past the OLDEST retained one — so when the newest
// snapshot turns out to be damaged, recovery can still fall back to an
// older snapshot and replay the WAL tail across the difference.
// (Truncating through the newest snapshot's seq instead would make every
// retained snapshot but the newest an unusable recovery point.)
func TestServeSnapshotFallbackSurvivesTruncation(t *testing.T) {
	dir := t.TempDir()
	newPersistentServer := func() (*server, *http.ServeMux) {
		t.Helper()
		s, mux := newTestServer(t)
		s.dataDir = dir
		// One-byte segments seal a segment per append, so truncation has
		// real segments to delete — the failure mode under test.
		s.walOpts = elink.WALOptions{Fsync: elink.FsyncAlways, SegmentBytes: 1}
		if err := s.recover(true); err != nil {
			t.Fatalf("recover: %v", err)
		}
		return s, mux
	}

	s1, mux1 := newPersistentServer()
	bootstrapTestServer(t, mux1)
	// Four snapshots with an ingested batch between each: pruning kicks in
	// at the fourth, and WAL records separate every adjacent pair.
	for i := 0; i < 4; i++ {
		if w := do(t, mux1, "POST", "/admin/snapshot", ""); w.Code != http.StatusOK {
			t.Fatalf("snapshot %d = %d %s", i, w.Code, w.Body.String())
		}
		batch := fmt.Sprintf(`{"features":[{"node":2,"feature":[%g]}]}`, 0.3+0.1*float64(i))
		if w := do(t, mux1, "POST", "/v1/ingest", batch); w.Code != http.StatusOK {
			t.Fatalf("ingest %d = %d %s", i, w.Code, w.Body.String())
		}
	}
	statsBefore := do(t, mux1, "GET", "/v1/stats", "").Body.String()
	snaps := s1.listSnapshots()
	if len(snaps) != 3 {
		t.Fatalf("%d retained snapshots, want 3", len(snaps))
	}
	// Damage the two newest snapshots (crash mid-write, disk corruption),
	// then boot over the same data dir: recovery must fall all the way
	// back to the oldest retained snapshot and replay the WAL across the
	// records every newer snapshot covered.
	if err := os.Truncate(snaps[0], 10); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snaps[1], 10); err != nil {
		t.Fatal(err)
	}

	s2, mux2 := newPersistentServer()
	if got, want := s2.engine.Seq(), s1.engine.Seq(); got != want {
		t.Fatalf("recovered seq = %d, want %d", got, want)
	}
	strip := func(s string) string {
		var m map[string]any
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "collectedAt")
		delete(m, "phases") // span telemetry is wall-clock, not engine state
		out, _ := json.Marshal(m)
		return string(out)
	}
	if got, want := strip(do(t, mux2, "GET", "/v1/stats", "").Body.String()), strip(statsBefore); got != want {
		t.Errorf("recovered /v1/stats = %s, want %s", got, want)
	}
}

// TestServeRestoringGate checks that every engine-touching endpoint is a
// 503 while boot recovery is in flight, and that /healthz names the
// state.
func TestServeRestoringGate(t *testing.T) {
	s, mux := newTestServer(t)
	s.restoring.Store(true)

	w := do(t, mux, "GET", "/healthz", "")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"status":"restoring"`) {
		t.Fatalf("healthz while restoring = %d %s, want 503 restoring", w.Code, w.Body.String())
	}
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/ingest", `{"features":[{"node":0,"feature":[1]}]}`},
		{"POST", "/v1/query/range", `{"feature":[0],"radius":1}`},
		{"POST", "/v1/query/path", `{"danger":[0],"gamma":1}`},
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/snapshot", ""},
		{"POST", "/admin/snapshot", ""},
	} {
		if w := do(t, mux, req.method, req.path, req.body); w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while restoring = %d, want 503", req.method, req.path, w.Code)
		}
	}

	// /metrics stays up, with the daemon's own families only.
	if w := do(t, mux, "GET", "/metrics", ""); w.Code != http.StatusOK || strings.Contains(w.Body.String(), "engine_epoch") {
		t.Errorf("metrics while restoring = %d, engine families present: %v", w.Code, strings.Contains(w.Body.String(), "engine_epoch"))
	}

	s.restoring.Store(false)
	bootstrapTestServer(t, mux)
	if w := do(t, mux, "GET", "/v1/stats", ""); w.Code != http.StatusOK {
		t.Errorf("stats after restore gate lifted = %d", w.Code)
	}
}

// TestServeRequestID checks the request-id plumbing: monotonic ids in
// the X-Request-ID header, the same id stamped into error bodies, and
// the id carried as a label on the request's span trace.
func TestServeRequestID(t *testing.T) {
	s, mux := newTestServer(t)

	w1 := do(t, mux, "GET", "/healthz", "")
	w2 := do(t, mux, "GET", "/healthz", "")
	id1, err1 := strconv.ParseInt(w1.Header().Get("X-Request-ID"), 10, 64)
	id2, err2 := strconv.ParseInt(w2.Header().Get("X-Request-ID"), 10, 64)
	if err1 != nil || err2 != nil || id2 != id1+1 {
		t.Fatalf("X-Request-ID = %q then %q, want consecutive integers",
			w1.Header().Get("X-Request-ID"), w2.Header().Get("X-Request-ID"))
	}

	// An error body carries the id that the header and log line carry.
	w := do(t, mux, "POST", "/v1/ingest", `{}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty ingest = %d, want 400", w.Code)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != w.Header().Get("X-Request-ID") || body.RequestID == "" {
		t.Fatalf("error body request_id = %q, header = %q, want matching non-empty ids",
			body.RequestID, w.Header().Get("X-Request-ID"))
	}

	// Every request trace is labelled with its route and id.
	var found bool
	for _, tr := range s.spans.Recent(0) {
		if tr.Name == "http" && tr.Labels["request_id"] == body.RequestID {
			found = true
			if tr.Labels["route"] != "/v1/ingest" || tr.Labels["status"] != "400" {
				t.Fatalf("request trace labels = %v", tr.Labels)
			}
		}
	}
	if !found {
		t.Fatal("no http span trace carries the failed request's id")
	}
}

// TestServeSpansEndpoint drives traffic through the mux and checks
// /debug/spans: the JSON dump carries the request and engine phases with
// the engine's epoch work nested under the ingest request's trace, and
// ?format=chrome emits a trace-event document Perfetto accepts.
func TestServeSpansEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	bootstrapTestServer(t, mux)
	if w := do(t, mux, "POST", "/v1/query/range", `{"feature":[0.1],"radius":0.5,"initiator":0}`); w.Code != http.StatusOK {
		t.Fatalf("range = %d %s", w.Code, w.Body.String())
	}

	// The bootstrap epoch nests under the ingest request's http trace.
	var ingestTrace *elink.SpanTrace
	for _, tr := range s.spans.Recent(0) {
		if tr.Name == "http" && tr.Labels["route"] == "/v1/ingest" {
			ingestTrace = tr
		}
	}
	if ingestTrace == nil {
		t.Fatal("no http trace for the ingest request")
	}
	names := map[string]bool{}
	for _, sp := range ingestTrace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"http", "epoch", "validate", "publish"} {
		if !names[want] {
			t.Fatalf("ingest trace spans = %v, missing %q", names, want)
		}
	}
	// The published snapshot's epoch, fragmentation and index depth ride
	// on the trace as labels.
	for _, want := range []string{"epoch", "fragmentation", "index_depth"} {
		if ingestTrace.Labels[want] == "" {
			t.Fatalf("ingest trace labels = %v, missing %q", ingestTrace.Labels, want)
		}
	}

	w := do(t, mux, "GET", "/debug/spans", "")
	if w.Code != http.StatusOK {
		t.Fatalf("spans = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("spans Content-Type = %q", ct)
	}
	var dump struct {
		Total  int64             `json:"total"`
		Phases []elink.PhaseStat `json:"phases"`
		Recent []elink.SpanTrace `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatalf("spans body %q: %v", w.Body.String(), err)
	}
	if dump.Total == 0 || len(dump.Recent) == 0 {
		t.Fatalf("spans dump empty: %s", w.Body.String())
	}
	phases := map[string]bool{}
	for _, p := range dump.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"http", "epoch", "range-query"} {
		if !phases[want] {
			t.Errorf("phase table missing %q: %v", want, phases)
		}
	}

	// The phase table's counts and self-time totals reach /metrics.
	body := do(t, mux, "GET", "/metrics", "").Body.String()
	for _, want := range []string{`span_phase_spans_total{phase="http"}`, `span_phase_self_nanoseconds_total{phase="epoch"}`} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Chrome trace export: a JSON array of events with the complete-event
	// and thread-name records Perfetto needs.
	w = do(t, mux, "GET", "/debug/spans?format=chrome", "")
	if w.Code != http.StatusOK {
		t.Fatalf("chrome spans = %d", w.Code)
	}
	var events []map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace %q: %v", w.Body.String(), err)
	}
	var complete, meta bool
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete = true
		case "M":
			meta = true
		}
	}
	if !complete || !meta {
		t.Fatalf("chrome trace lacks X/M events: complete=%v meta=%v", complete, meta)
	}

	// n limits the recent window; bad n and bad format are JSON 400s.
	w = do(t, mux, "GET", "/debug/spans?n=1", "")
	var limited struct {
		Recent []elink.SpanTrace `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &limited); err != nil || len(limited.Recent) != 1 {
		t.Errorf("spans?n=1 recent = %d traces (%v), want 1", len(limited.Recent), err)
	}
	if w = do(t, mux, "GET", "/debug/spans?n=bogus", ""); w.Code != http.StatusBadRequest {
		t.Errorf("spans?n=bogus = %d, want 400", w.Code)
	}
	if w = do(t, mux, "GET", "/debug/spans?format=bogus", ""); w.Code != http.StatusBadRequest {
		t.Errorf("spans?format=bogus = %d, want 400", w.Code)
	}
}

// TestServeBuildInfoMetrics: the build metadata and uptime gauges land
// on /metrics when main's registration helper runs.
func TestServeBuildInfoMetrics(t *testing.T) {
	s, mux := newTestServer(t)
	elink.RegisterBuildInfo(s.reg, version)
	body := do(t, mux, "GET", "/metrics", "").Body.String()
	if !strings.Contains(body, `elink_build_info{go_version=`) {
		t.Error("metrics missing elink_build_info")
	}
	if !strings.Contains(body, "process_uptime_seconds") {
		t.Error("metrics missing process_uptime_seconds")
	}
}

// TestServeAdminSnapshotWithoutDataDir pins the ephemeral-mode answer.
func TestServeAdminSnapshotWithoutDataDir(t *testing.T) {
	_, mux := newTestServer(t)
	bootstrapTestServer(t, mux)
	if w := do(t, mux, "POST", "/admin/snapshot", ""); w.Code != http.StatusNotImplemented {
		t.Errorf("admin snapshot without -data-dir = %d, want 501", w.Code)
	}
}

func TestServeErrorBodies(t *testing.T) {
	_, mux := newTestServer(t)

	// Payload mistakes are JSON 400s.
	for _, bad := range []string{
		`{"features":[{"node":99,"feature":[1]}]}`,
		`{"readings":[{"node":0,"value":1}]}`, // Order-0 engine takes features only
	} {
		w := do(t, mux, "POST", "/v1/ingest", bad)
		if w.Code != http.StatusBadRequest {
			t.Errorf("ingest %q = %d, want 400", bad, w.Code)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("ingest %q body %q: want JSON {\"error\":...}", bad, w.Body.String())
		}
	}

	// Warming-up engine: 503 with a JSON body.
	w := do(t, mux, "GET", "/v1/snapshot", "")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"error"`) {
		t.Errorf("snapshot before bootstrap = %d %s, want JSON 503", w.Code, w.Body.String())
	}

	// The middleware labels failures by status.
	w = do(t, mux, "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), `http_requests_total{code="503",path="/v1/snapshot"} 1`) {
		t.Error("metrics missing the 503 snapshot request count")
	}
}

// TestServeBodyLimit sends each decoding endpoint a body one byte over
// maxBodyBytes; each answers 413 with a JSON error body.
func TestServeBodyLimit(t *testing.T) {
	for _, path := range []string{"/v1/ingest", "/v1/query/range", "/v1/query/path"} {
		t.Run(path, func(t *testing.T) {
			_, mux := newTestServer(t)
			prefix, suffix := `{"pad":"`, `"}`
			body := prefix + strings.Repeat("x", maxBodyBytes+1-len(prefix)-len(suffix)) + suffix
			w := do(t, mux, "POST", path, body)
			if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), `"error"`) {
				t.Errorf("%d-byte body = %d %.200s, want JSON 413", len(body), w.Code, w.Body.String())
			}
		})
	}
}

// TestServeIngestRejectsUnusableFeatures sends feature batches the engine
// cannot apply: each is a 400, and the published epoch does not move.
func TestServeIngestRejectsUnusableFeatures(t *testing.T) {
	_, mux := newTestServer(t)
	if w := do(t, mux, "POST", "/v1/ingest", `{"features":[{"node":0,"feature":[0]},{"node":1,"feature":[0,1]}]}`); w.Code != http.StatusBadRequest {
		t.Errorf("mixed dimensions before bootstrap = %d %s, want 400", w.Code, w.Body.String())
	}
	bootstrapTestServer(t, mux)
	for _, bad := range []string{
		`{"features":[{"node":1,"feature":[0.1,0.2]}]}`, // the engine's features are 1-dim
		`{"features":[{"node":1,"feature":[1e999]}]}`,   // not a finite float64
		`{"readings":[{"node":1,"value":1e999}]}`,
	} {
		if w := do(t, mux, "POST", "/v1/ingest", bad); w.Code != http.StatusBadRequest {
			t.Errorf("ingest %s = %d %s, want 400", bad, w.Code, w.Body.String())
		}
	}
	w := do(t, mux, "GET", "/v1/snapshot", "")
	var snap struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil || snap.Epoch != 1 {
		t.Errorf("snapshot after rejected batches = %s, want epoch 1", w.Body.String())
	}
}
