package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"elink/internal/ar"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/persist"
	"elink/internal/topology"
	"elink/internal/update"
)

// ErrConfigMismatch is returned by Restore when the snapshot was taken
// by an engine with a different configuration. Replaying a journal
// against different δ/slack/seed/policy would silently diverge from the
// pre-crash trajectory instead of reproducing it, so the mismatch is an
// error, not a warning.
var ErrConfigMismatch = errors.New("stream: snapshot configuration does not match this engine")

// ErrWALDiverged tags the latched state after a journal append failure:
// a batch was applied in memory but never reached the WAL. The engine
// rejects every further ingest with it (queries keep working), because
// accepting more writes would let the in-memory history and the journal
// drift apart silently — and a client retry of the failed batch would
// double-apply it. The recovery is operational: snapshot (the snapshot
// captures the applied state) and restart.
var ErrWALDiverged = errors.New("stream: WAL diverged (a batch was applied but not journaled); ingest disabled until restart")

// Seq returns the engine's ingest sequence number: the count of
// successfully applied batches (warmup included).
func (e *Engine) Seq() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// AttachWAL makes the engine journal every applied batch to w
// (journal-after-commit, under the ingest lock). Attach after Restore
// and ReplayWAL so recovery replays are not re-journaled. Passing nil
// detaches.
func (e *Engine) AttachWAL(w *persist.WAL) {
	e.mu.Lock()
	e.wal = w
	e.mu.Unlock()
}

// Diverged returns the latched journal-failure error, or nil while the
// engine and its WAL agree. Once non-nil it never clears; the HTTP
// daemon surfaces it through /healthz so an orchestrator restarts the
// process.
func (e *Engine) Diverged() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.walErr
}

// cfgState is the engine's configuration fingerprint as embedded in
// snapshots.
func (e *Engine) cfgState() persist.ConfigState {
	return persist.ConfigState{
		Nodes:               e.g.N(),
		Order:               e.cfg.Order,
		Delta:               e.cfg.Delta,
		Slack:               e.cfg.Slack,
		Seed:                e.cfg.Seed,
		Mode:                int(e.cfg.Mode),
		Policy:              int(e.cfg.Policy),
		FragmentationFactor: e.cfg.FragmentationFactor,
		Period:              e.cfg.Period,
		WarmupObs:           e.cfg.WarmupObs,
	}
}

// stateLocked assembles the engine's complete serializable state. Every
// slice is a deep copy, so the caller may encode it after releasing the
// engine lock.
func (e *Engine) stateLocked() *persist.EngineState {
	st := &persist.EngineState{
		Config:         e.cfgState(),
		Seq:            e.seq,
		Epoch:          e.epoch,
		SinceRecluster: int64(e.sinceRecluster),
		Ready:          e.ready,
		Warm:           e.warm,
		FeatCovered:    e.featCovered,
		Feats:          make([]metric.Feature, len(e.feats)),
		FeatSet:        append([]bool(nil), e.featSet...),
		Readings:       e.readings,
		Updates:        e.updates,
		Reclusters:     e.reclusters,
		Rebuilds:       e.rebuilds,
		RefreshMsgs:    e.refreshMsgs,
		Screening:      e.screening,
		MaintMsgs:      e.maintMsgs.Clone(),
		BootstrapStats: e.bootstrapStats.Clone(),
		ReclusterStats: e.reclusterStats.Clone(),
		RebuildStats:   e.rebuildStats.Clone(),
	}
	for u, f := range e.feats {
		st.Feats[u] = f.Clone()
	}
	if e.models != nil {
		st.Models = make([]ar.State, len(e.models))
		for u, m := range e.models {
			st.Models[u] = m.State()
		}
	}
	if e.ready {
		ms := e.maint.State()
		st.Maint = &ms
		st.IndexClustering = e.idx.Clustering()
	}
	return st
}

// SaveSnapshot writes the engine's complete state to w in the
// internal/persist snapshot format. The engine lock is held only while
// the state is copied out, not while it is encoded and written, so
// ingest stalls for the copy, never for the I/O.
func (e *Engine) SaveSnapshot(w io.Writer) (persist.SnapshotInfo, error) {
	sp := e.cfg.Spans.Start("snapshot")
	defer sp.Finish()
	start := time.Now() //elink:allow walltime — snapshot latency telemetry; not part of the snapshot bytes
	cs := sp.Child("copy-state")
	e.mu.Lock()
	st := e.stateLocked()
	e.mu.Unlock()
	cs.Finish()
	n, err := persist.WriteSnapshot(w, st, sp)
	info := persist.SnapshotInfo{
		Bytes:    n,
		Seq:      st.Seq,
		Epoch:    st.Epoch,
		Duration: time.Since(start), //elink:allow walltime — snapshot latency telemetry; not part of the snapshot bytes
	}
	if err != nil {
		return info, fmt.Errorf("stream: write snapshot: %w", err)
	}
	return info, nil
}

// Restore replaces the engine's state with a snapshot previously written
// by SaveSnapshot. The snapshot must come from an engine with the same
// configuration (ErrConfigMismatch otherwise). Query-side telemetry is
// not part of snapshots and is left untouched. After Restore, replay the
// WAL tail with ReplayWAL to reach the exact pre-crash state.
func (e *Engine) Restore(r io.Reader) error {
	sp := e.cfg.Spans.Start("restore")
	defer sp.Finish()
	ds := sp.Child("decode")
	st, err := persist.ReadSnapshot(r)
	ds.Finish()
	if err != nil {
		return fmt.Errorf("stream: read snapshot: %w", err)
	}

	rb := sp.Child("rebuild")
	defer rb.Finish()
	e.mu.Lock()
	defer e.mu.Unlock()
	if got, want := st.Config, e.cfgState(); got != want {
		return fmt.Errorf("%w: snapshot %+v, engine %+v", ErrConfigMismatch, got, want)
	}
	if len(st.Feats) != e.g.N() || len(st.FeatSet) != e.g.N() {
		return fmt.Errorf("stream: snapshot has %d features / %d coverage flags for %d nodes",
			len(st.Feats), len(st.FeatSet), e.g.N())
	}

	// Rebuild the component state first so a corrupt snapshot is rejected
	// before anything is overwritten.
	var models []*ar.Model
	if e.cfg.Order >= 1 {
		if len(st.Models) != e.g.N() {
			return fmt.Errorf("stream: snapshot has %d models for %d nodes", len(st.Models), e.g.N())
		}
		models = make([]*ar.Model, len(st.Models))
		for u := range st.Models {
			m, err := ar.FromState(st.Models[u])
			if err != nil {
				return fmt.Errorf("stream: restore model %d: %w", u, err)
			}
			models[u] = m
		}
	}
	// The maintainer and the index are restored over the engine's
	// features, which they held bitwise equal when the snapshot was
	// taken; the index is rebuilt over the clustering it was built over.
	var maint *update.Maintainer
	var idx *index.Index
	if st.Ready {
		if err := checkFeatures(st.Feats, st.Maint.RootFeatAt); err != nil {
			return err
		}
		maint, err = update.FromState(e.g, update.Config{
			Delta: e.cfg.Delta, Slack: e.cfg.Slack, Metric: e.cfg.Metric,
		}, *st.Maint, st.Feats)
		if err != nil {
			return fmt.Errorf("stream: restore maintainer: %w", err)
		}
		idx, err = index.Build(e.g, st.IndexClustering, st.Feats, e.cfg.Metric)
		if err != nil {
			return fmt.Errorf("stream: restore index: %w", err)
		}
	}

	e.seq = st.Seq
	e.epoch = st.Epoch
	e.sinceRecluster = int(st.SinceRecluster)
	e.ready = st.Ready
	e.warm = st.Warm
	e.featCovered = st.FeatCovered
	e.models = models
	e.feats = make([]metric.Feature, e.g.N())
	for u, f := range st.Feats {
		e.feats[u] = f.Clone()
	}
	e.featSet = append([]bool(nil), st.FeatSet...)
	e.maint, e.idx = maint, idx
	e.readings = st.Readings
	e.updates = st.Updates
	e.reclusters = st.Reclusters
	e.rebuilds = st.Rebuilds
	e.refreshMsgs = st.RefreshMsgs
	e.screening = st.Screening
	e.maintMsgs = st.MaintMsgs.Clone()
	e.bootstrapStats = st.BootstrapStats.Clone()
	e.reclusterStats = st.ReclusterStats.Clone()
	e.rebuildStats = st.RebuildStats.Clone()

	if e.ready {
		// Publish the restored epoch directly — publish() would mint a new
		// epoch number, but this state IS epoch st.Epoch.
		e.idxPublished = true
		e.snap.Store(&Snapshot{
			Epoch:      e.epoch,
			Clustering: e.maint.Clustering(),
			Index:      e.idx,
			Features:   e.idx.Features,
		})
	} else {
		e.idxPublished = false
		e.snap.Store(nil)
	}
	return nil
}

// checkFeatures rejects restored features no query or update could run
// on safely: a non-finite value, or a dimension other than the first
// feature's.
func checkFeatures(sets ...[]metric.Feature) error {
	dim := -1
	for _, feats := range sets {
		for u, f := range feats {
			if dim < 0 {
				dim = len(f)
			}
			if len(f) != dim {
				return fmt.Errorf("stream: snapshot feature %d has dimension %d, want %d", u, len(f), dim)
			}
			if !finite(f...) {
				return fmt.Errorf("stream: snapshot feature %d is not finite: %v", u, f)
			}
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ReplayWAL applies every journaled batch with a sequence number past
// the engine's current one — the recovery tail. Records are applied
// through the normal ingest path but never re-journaled. A gap in the
// sequence numbers (a missing segment) is an error: replaying across it
// would produce a state that never existed.
func (e *Engine) ReplayWAL(w *persist.WAL) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	replayed := 0
	err := w.Replay(e.seq, func(rec *persist.BatchRecord) error {
		if rec.Seq != e.seq+1 {
			return fmt.Errorf("stream: WAL gap: record seq %d after engine seq %d", rec.Seq, e.seq)
		}
		switch rec.Kind {
		case persist.RecordReadings:
			batch := make([]Reading, len(rec.Nodes))
			for i := range rec.Nodes {
				batch[i] = Reading{Node: topology.NodeID(rec.Nodes[i]), Value: rec.Values[i]}
			}
			if _, err := e.ingestLocked(batch, nil); err != nil {
				return fmt.Errorf("stream: replay batch %d: %w", rec.Seq, err)
			}
		case persist.RecordFeatures:
			batch := make([]FeatureUpdate, len(rec.Nodes))
			for i := range rec.Nodes {
				batch[i] = FeatureUpdate{Node: topology.NodeID(rec.Nodes[i]), Feature: metric.Feature(rec.Features[i])}
			}
			if _, err := e.ingestFeaturesLocked(batch, nil); err != nil {
				return fmt.Errorf("stream: replay batch %d: %w", rec.Seq, err)
			}
		default:
			return fmt.Errorf("stream: replay batch %d: unknown record kind %d", rec.Seq, rec.Kind)
		}
		e.seq = rec.Seq
		replayed++
		return nil
	})
	return replayed, err
}
