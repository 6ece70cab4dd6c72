package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"elink/internal/metric"
	"elink/internal/persist"
	"elink/internal/topology"
)

// persistTestConfig is the shared configuration of the durability tests:
// a periodic policy with a short period so recovered runs cross at least
// one full re-clustering, which is where hidden nondeterminism would
// show first.
func persistTestConfig() Config {
	return Config{
		Order: 2, Delta: 1.0, Slack: 0.1, Metric: metric.Euclidean{},
		Seed: 42, Policy: PolicyPeriodic, Period: 7,
	}
}

// driftBatch builds batch b of a deterministic reading stream over g:
// four value plateaus with slow per-batch drift plus seeded noise, so
// clusters form, drift and occasionally fragment.
func driftBatch(g *topology.Graph, b int, rng *rand.Rand) []Reading {
	batch := make([]Reading, g.N())
	for u := range batch {
		base := float64(u%4) * 5
		batch[u] = Reading{
			Node:  topology.NodeID(u),
			Value: base + 0.3*float64(b) + 0.05*rng.Float64(),
		}
	}
	return batch
}

// engineFingerprint reduces the engine's externally visible state to a
// comparable value: counters (wall-clock stamp zeroed), the published
// clustering, the published features, and range+path query answers.
func engineFingerprint(t *testing.T, e *Engine) map[string]any {
	t.Helper()
	st := e.Stats()
	st.CollectedAt = time.Time{}
	st.QueryTime, st.MaxQueryTime = 0, 0 // wall-clock, legitimately differs
	fp := map[string]any{"stats": st, "seq": e.Seq()}
	snap := e.Snapshot()
	if snap == nil {
		return fp
	}
	fp["epoch"] = snap.Epoch
	fp["assign"] = append([]int(nil), snap.Clustering.Assign...)
	var feats []metric.Feature
	for _, f := range snap.Features {
		feats = append(feats, f.Clone())
	}
	fp["features"] = feats

	rr, err := e.RangeQuery(snap.Features[0], 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp["range"] = fmt.Sprintf("%v msgs=%d", rr.Matches, rr.Stats.Messages)
	pr, err := e.PathQuery(snap.Features[g0(snap)], 0.5, 0, topology.NodeID(len(snap.Features)-1))
	if err != nil {
		t.Fatal(err)
	}
	fp["path"] = fmt.Sprintf("found=%v %v msgs=%d", pr.Found, pr.Path, pr.Stats.Messages)
	return fp
}

// g0 picks a stable "danger" node for the path query.
func g0(s *Snapshot) int { return len(s.Features) / 2 }

// TestKillAndRestoreGolden is the crash-exactness contract end to end:
// run an engine with a WAL, snapshot at epoch E, keep ingesting, kill
// it; recover a second engine from snapshot + WAL tail; then feed both
// engines the same 20 batches and require bitwise-identical results —
// ingest results, stats, cluster assignments, features and query
// answers at every step.
func TestKillAndRestoreGolden(t *testing.T) {
	g := topology.NewGrid(4, 5)
	dir := t.TempDir()

	// Engine A: journaling from the first batch.
	a, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	walA, err := persist.OpenWAL(filepath.Join(dir, "wal"), persist.WALOptions{Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	a.AttachWAL(walA)

	rngA := rand.New(rand.NewSource(99))
	var snapBuf bytes.Buffer
	const snapAt, crashAt = 15, 23
	for b := 1; b <= crashAt; b++ {
		if _, err := a.Ingest(driftBatch(g, b, rngA)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if b == snapAt {
			info, err := a.SaveSnapshot(&snapBuf)
			if err != nil {
				t.Fatal(err)
			}
			if info.Seq != snapAt || info.Bytes != int64(snapBuf.Len()) {
				t.Fatalf("snapshot info %+v, want seq %d and %d bytes", info, snapAt, snapBuf.Len())
			}
		}
	}
	// "Crash": walA is abandoned without Close. FsyncAlways already
	// flushed every record.

	// Engine B: snapshot + WAL tail.
	b, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(bytes.NewReader(snapBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := b.Seq(); got != snapAt {
		t.Fatalf("restored seq = %d, want %d", got, snapAt)
	}
	walB, err := persist.OpenWAL(filepath.Join(dir, "wal"), persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := b.ReplayWAL(walB)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != crashAt-snapAt {
		t.Fatalf("replayed %d batches, want %d", replayed, crashAt-snapAt)
	}

	if fpA, fpB := engineFingerprint(t, a), engineFingerprint(t, b); !reflect.DeepEqual(fpA, fpB) {
		t.Fatalf("recovered state differs immediately:\n  a=%v\n  b=%v", fpA, fpB)
	}

	// The next 20 epochs must be identical batch by batch. The two rngs
	// are now at the same point only if driven identically, so clone the
	// stream by reseeding and fast-forwarding.
	rngB := rand.New(rand.NewSource(99))
	for b := 1; b <= crashAt; b++ {
		driftBatch(g, b, rngB)
	}
	for step := 1; step <= 20; step++ {
		batch := driftBatch(g, crashAt+step, rngA)
		batchB := driftBatch(g, crashAt+step, rngB)
		if !reflect.DeepEqual(batch, batchB) {
			t.Fatalf("step %d: the two input streams diverged (test bug)", step)
		}
		resA, errA := a.Ingest(batch)
		resB, errB := b.Ingest(batchB)
		if errA != nil || errB != nil {
			t.Fatalf("step %d: ingest errors %v / %v", step, errA, errB)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("step %d: ingest results differ: %+v vs %+v", step, resA, resB)
		}
		if fpA, fpB := engineFingerprint(t, a), engineFingerprint(t, b); !reflect.DeepEqual(fpA, fpB) {
			t.Fatalf("step %d: engine states diverged:\n  a=%v\n  b=%v", step, fpA, fpB)
		}
	}
}

// TestSnapshotBeforeBootstrapRoundTrips covers the warming-up corner:
// snapshot mid-warmup, restore, and both engines bootstrap identically.
func TestSnapshotBeforeBootstrapRoundTrips(t *testing.T) {
	g := topology.NewGrid(2, 4)
	a, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if _, err := a.Ingest(driftBatch(g, 1, rng)); err != nil {
		t.Fatal(err)
	}
	if a.Ready() {
		t.Fatal("engine ready after one batch; warmup config changed?")
	}
	var buf bytes.Buffer
	if _, err := a.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	b, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.Snapshot() != nil || b.Ready() {
		t.Fatal("restored warming engine claims to be ready")
	}

	rng2 := rand.New(rand.NewSource(7))
	driftBatch(g, 1, rng2)
	for step := 2; step <= 12; step++ {
		resA, errA := a.Ingest(driftBatch(g, step, rng))
		resB, errB := b.Ingest(driftBatch(g, step, rng2))
		if errA != nil || errB != nil {
			t.Fatalf("step %d: %v / %v", step, errA, errB)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("step %d: results differ: %+v vs %+v", step, resA, resB)
		}
	}
	if !a.Ready() || !b.Ready() {
		t.Fatal("engines never bootstrapped")
	}
	if fpA, fpB := engineFingerprint(t, a), engineFingerprint(t, b); !reflect.DeepEqual(fpA, fpB) {
		t.Fatalf("states diverged:\n  a=%v\n  b=%v", fpA, fpB)
	}
}

// TestFeatureEngineSnapshotRoundTrips covers the Order-0 (feature-push)
// engine: no AR models in the snapshot, WAL carries feature records.
func TestFeatureEngineSnapshotRoundTrips(t *testing.T) {
	g := topology.NewGrid(1, 6)
	cfg := Config{Order: 0, Delta: 2, Slack: 0.1, Metric: metric.Euclidean{}, Seed: 3}
	dir := t.TempDir()

	a, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a.AttachWAL(wal)
	boot := []FeatureUpdate{
		{0, metric.Feature{0}}, {1, metric.Feature{0.1}}, {2, metric.Feature{0.2}},
		{3, metric.Feature{9}}, {4, metric.Feature{9.1}}, {5, metric.Feature{9.2}},
	}
	if _, err := a.IngestFeatures(boot); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := a.IngestFeatures([]FeatureUpdate{{2, metric.Feature{0.35}}}); err != nil {
		t.Fatal(err)
	}

	b, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	wal2, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.ReplayWAL(wal2); err != nil || n != 1 {
		t.Fatalf("replayed %d, %v; want the 1 post-snapshot batch", n, err)
	}
	if fpA, fpB := engineFingerprint(t, a), engineFingerprint(t, b); !reflect.DeepEqual(fpA, fpB) {
		t.Fatalf("states diverged:\n  a=%v\n  b=%v", fpA, fpB)
	}
}

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	g := topology.NewGrid(2, 3)
	cfg := persistTestConfig()
	a, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config){
		"delta": func(c *Config) { c.Delta = 1.5 },
		"seed":  func(c *Config) { c.Seed = 1000 },
		"order": func(c *Config) { c.Order = 3 },
	} {
		other := cfg
		mutate(&other)
		b, err := New(g, other)
		if err != nil {
			t.Fatal(err)
		}
		err = b.Restore(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s: restore = %v, want ErrConfigMismatch", name, err)
		}
	}
	// Different graph size, same knobs.
	b, err := New(topology.NewGrid(2, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("nodes: restore = %v, want ErrConfigMismatch", err)
	}
}

// TestIngestWALAppendFailureLatches pins the diverged contract: a WAL
// append failure leaves the batch applied in memory but must latch the
// engine read-only. The sequence number stays put — so a gap is never
// journaled across — and every further ingest (including a client retry
// of the failed batch, which would otherwise double-apply) is rejected
// with ErrWALDiverged before touching state.
func TestIngestWALAppendFailureLatches(t *testing.T) {
	g := topology.NewGrid(1, 6)
	cfg := Config{Order: 0, Delta: 2, Slack: 0.1, Metric: metric.Euclidean{}, Seed: 3}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	w, err := persist.OpenWAL(walDir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(w)
	if _, err := e.IngestFeatures([]FeatureUpdate{{0, metric.Feature{0.5}}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Seq(); got != 1 {
		t.Fatalf("seq after batch 1 = %d, want 1", got)
	}
	if e.Diverged() != nil {
		t.Fatalf("Diverged() = %v before any failure", e.Diverged())
	}

	// Force the next append to fail: closing the WAL makes it rotate, and
	// rotation cannot create a segment once the directory is gone.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestFeatures([]FeatureUpdate{{1, metric.Feature{1.5}}}); !errors.Is(err, ErrWALDiverged) {
		t.Fatalf("ingest with failing WAL: err = %v, want ErrWALDiverged", err)
	}
	if got := e.Seq(); got != 1 {
		t.Errorf("seq advanced to %d across a failed journal append, want 1", got)
	}
	if e.Diverged() == nil {
		t.Error("Diverged() = nil after a failed journal append")
	}

	// The latch holds: further writes are rejected before they apply.
	before := e.readings
	if _, err := e.IngestFeatures([]FeatureUpdate{{2, metric.Feature{2.5}}}); !errors.Is(err, ErrWALDiverged) {
		t.Fatalf("ingest after divergence: err = %v, want ErrWALDiverged", err)
	}
	if e.readings != before {
		t.Errorf("a rejected batch was still applied (%d -> %d readings)", before, e.readings)
	}
}

// TestReplayWALGapFails pins the missing-segment safety check: if the
// journal starts past the engine's sequence, replay refuses rather than
// fabricating a state that never existed.
func TestReplayWALGapFails(t *testing.T) {
	g := topology.NewGrid(2, 3)
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &persist.BatchRecord{Seq: 5, Kind: persist.RecordReadings, Nodes: []int64{0}, Values: []float64{1}}
	if err := wal.Append(rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	e, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	wal2, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReplayWAL(wal2); err == nil {
		t.Fatal("replay across a sequence gap succeeded")
	}
}

// TestIngestRejectedBatchLeavesStateUntouched pins the upfront-
// validation refactor: a batch with one bad reading must not partially
// apply (the WAL-exactness invariant).
func TestIngestRejectedBatchLeavesStateUntouched(t *testing.T) {
	g := topology.NewGrid(2, 3)
	e, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]Reading{{Node: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	seqBefore := e.Seq()

	bad := []Reading{{Node: 1, Value: 2}, {Node: 99, Value: 3}}
	if _, err := e.Ingest(bad); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("bad batch error = %v, want ErrInvalidBatch", err)
	}
	after := e.Stats()
	before.CollectedAt, after.CollectedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("rejected batch mutated stats: %+v -> %+v", before, after)
	}
	if e.Seq() != seqBefore {
		t.Errorf("rejected batch advanced seq %d -> %d", seqBefore, e.Seq())
	}

	badFeat := []FeatureUpdate{{Node: 0, Feature: metric.Feature{1}}, {Node: 1}}
	if _, err := e.IngestFeatures(badFeat); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("bad feature batch error = %v, want ErrInvalidBatch", err)
	}
	if e.Seq() != seqBefore {
		t.Errorf("rejected feature batch advanced seq")
	}
}

// TestIngestRejectsUnusableValues checks that a batch carrying a value
// the engine cannot use is refused whole with ErrInvalidBatch: a
// non-finite reading, a non-finite feature, or a feature whose dimension
// differs from the engine's. Each case leaves the published epoch and the
// features as they were, and the engine still writes a snapshot that
// Restore accepts and reproduces.
func TestIngestRejectsUnusableValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	g := topology.NewGrid(1, 4)
	featCfg := Config{Delta: 2, Slack: 0.1, Metric: metric.Euclidean{}, Seed: 3}
	for _, tc := range []struct {
		name     string
		readings []Reading
		features []FeatureUpdate
	}{
		{name: "feature of another dimension", features: []FeatureUpdate{{0, metric.Feature{0.2}}, {1, metric.Feature{0.1, 0.2}}}},
		{name: "NaN feature", features: []FeatureUpdate{{0, metric.Feature{0.2}}, {1, metric.Feature{nan}}}},
		{name: "infinite feature", features: []FeatureUpdate{{2, metric.Feature{-inf}}}},
		{name: "NaN reading", readings: []Reading{{0, 1}, {1, nan}}},
		{name: "infinite reading", readings: []Reading{{3, inf}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := featCfg
			var e *Engine
			if tc.readings == nil {
				e = featEngine(t, g, []metric.Feature{{0}, {0.1}, {9}, {9.1}}, cfg)
			} else {
				cfg = persistTestConfig()
				var err error
				if e, err = New(g, cfg); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))
				for b := 1; !e.Ready(); b++ {
					if _, err := e.Ingest(driftBatch(g, b, rng)); err != nil {
						t.Fatal(err)
					}
				}
			}
			epoch := e.Snapshot().Epoch
			feats := make([]metric.Feature, len(e.feats))
			for u, f := range e.feats {
				feats[u] = f.Clone()
			}

			var err error
			if tc.readings != nil {
				_, err = e.Ingest(tc.readings)
			} else {
				_, err = e.IngestFeatures(tc.features)
			}
			if !errors.Is(err, ErrInvalidBatch) {
				t.Fatalf("ingest error = %v, want ErrInvalidBatch", err)
			}
			if got := e.Snapshot().Epoch; got != epoch {
				t.Errorf("rejected batch moved the epoch %d -> %d", epoch, got)
			}
			if !reflect.DeepEqual(e.feats, feats) {
				t.Errorf("rejected batch changed the features: %v -> %v", feats, e.feats)
			}

			var buf bytes.Buffer
			if _, err := e.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Restore(&buf); err != nil {
				t.Fatalf("restore after a rejected batch: %v", err)
			}
			if fpE, fpR := engineFingerprint(t, e), engineFingerprint(t, r); !reflect.DeepEqual(fpE, fpR) {
				t.Fatalf("restored state differs:\n  engine=%v\n  restored=%v", fpE, fpR)
			}
		})
	}

	// Before any feature is set, the batch's first entry sets the
	// dimension the rest of the batch must match.
	e, err := New(g, featCfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := []FeatureUpdate{{0, metric.Feature{1}}, {1, metric.Feature{1, 2}}}
	if _, err := e.IngestFeatures(mixed); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("mixed-dimension first batch error = %v, want ErrInvalidBatch", err)
	}
	if e.featCovered != 0 {
		t.Errorf("rejected first batch covered %d nodes", e.featCovered)
	}
}

// TestWALFilesOnDisk sanity-checks that journaling actually hits disk
// through the engine path (segments exist and carry the batch count).
func TestWALFilesOnDisk(t *testing.T) {
	g := topology.NewGrid(2, 3)
	dir := t.TempDir()
	e, err := New(g, persistTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(wal)
	rng := rand.New(rand.NewSource(1))
	for b := 1; b <= 3; b++ {
		if _, err := e.Ingest(driftBatch(g, b, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("WAL dir entries %v, err %v", ents, err)
	}
	wal2, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := wal2.Replay(0, func(*persist.BatchRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("journal carries %d records, want 3", n)
	}
}
