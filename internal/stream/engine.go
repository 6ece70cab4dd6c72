package stream

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"elink/internal/ar"
	"elink/internal/cluster"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/persist"
	"elink/internal/query"
	"elink/internal/topology"
	"elink/internal/update"
)

// ErrNotReady is returned by queries and snapshot-dependent calls before
// every node's AR model has warmed up and the bootstrap clustering ran.
var ErrNotReady = errors.New("stream: engine has no clustering yet (models still warming up)")

// ErrInvalidBatch tags ingest errors caused by the batch payload itself —
// a node id outside the graph, a non-finite value, an empty feature
// vector or one whose dimension differs from the engine's, or the wrong
// ingest call for the engine's configuration. Callers (e.g. the HTTP
// daemon) match it with errors.Is to map payload mistakes to 4xx
// statuses while treating every other ingest error as engine-internal.
var ErrInvalidBatch = errors.New("stream: invalid batch")

// Engine is the live streaming engine: single ingest writer, lock-free
// concurrent query readers against an atomically published Snapshot.
type Engine struct {
	g   *topology.Graph
	cfg Config

	// mu serializes the ingest/maintenance path and guards every field
	// below it. Queries never take it.
	mu sync.Mutex
	// seq counts successfully applied ingest batches (warmup included).
	// Snapshots record it and WAL records carry it, so recovery knows
	// exactly where the snapshot ends and the journal tail begins.
	seq int64
	// wal, when attached, journals every applied batch (journal-after-
	// commit: the record is appended only once the batch took effect).
	wal *persist.WAL
	// walErr latches the first journal append failure. Once set, every
	// further ingest is rejected with it (wrapping ErrWALDiverged): the
	// in-memory state holds a batch the journal lacks, so accepting more
	// writes would let the two histories drift apart silently.
	walErr      error
	models      []*ar.Model // nil when Order == 0 (feature-push deployments)
	feats       []metric.Feature
	warm        int    // nodes whose models have reached WarmupObs
	featSet     []bool // nodes covered by IngestFeatures before bootstrap
	featCovered int
	ready       bool

	// touched marks the nodes an epoch changed; takeTouched lists them
	// in id order into touchedIDs and clears the marks. Both are reused
	// across epochs.
	touched    []bool
	touchedIDs []topology.NodeID

	maint *update.Maintainer
	idx   *index.Index
	// idxPublished marks idx as visible to readers via the current
	// snapshot; the next in-place mutation must clone first.
	idxPublished bool

	epoch          int64
	sinceRecluster int // epochs since the last full ELink run

	readings int64
	updates  int64
	// Accumulators over finished maintainer generations (a recluster
	// retires the current maintainer; its telemetry folds in here).
	screening      update.Counters
	maintMsgs      cluster.Stats
	bootstrapStats cluster.Stats
	reclusterStats cluster.Stats
	rebuildStats   cluster.Stats
	reclusters     int64
	rebuilds       int64
	refreshMsgs    int64

	snap atomic.Pointer[Snapshot]

	// qmu guards only the query-side telemetry, so recording a query
	// never contends with ingest.
	qmu          sync.Mutex
	rangeQ       int64
	pathQ        int64
	queryMsgs    int64
	queryTime    time.Duration
	maxQueryTime time.Duration
}

// New builds an engine over g. With Order >= 1 the engine starts cold:
// every node runs an untrained AR(Order) model fed by Ingest, and the
// first clustering is bootstrapped once all models have seen WarmupObs
// readings. With Order == 0 the engine skips local model fitting and
// accepts coefficient pushes via IngestFeatures only (nodes that refit
// their own models and ship drift directly).
func New(g *topology.Graph, cfg Config) (*Engine, error) {
	if g == nil || g.N() == 0 {
		return nil, errors.New("stream: nil or empty graph")
	}
	if cfg.Order < 0 {
		return nil, fmt.Errorf("stream: AR order must be >= 0, got %d", cfg.Order)
	}
	if cfg.Metric == nil {
		return nil, errors.New("stream: Metric is required")
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("stream: Delta must be > 0, got %v", cfg.Delta)
	}
	if cfg.Slack < 0 || 2*cfg.Slack >= cfg.Delta {
		return nil, fmt.Errorf("stream: slack %v must satisfy 0 <= 2Δ < δ=%v", cfg.Slack, cfg.Delta)
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		g:       g,
		cfg:     cfg,
		feats:   make([]metric.Feature, g.N()),
		featSet: make([]bool, g.N()),
		touched: make([]bool, g.N()),
	}
	if cfg.Order >= 1 {
		e.models = make([]*ar.Model, g.N())
		for u := range e.models {
			e.models[u] = ar.NewModel(cfg.Order)
		}
	}
	return e, nil
}

// Graph returns the engine's communication graph.
func (e *Engine) Graph() *topology.Graph { return e.g }

// Config returns the engine's configuration (defaults resolved).
func (e *Engine) Config() Config { return e.cfg }

// Ready reports whether the bootstrap clustering has run.
func (e *Engine) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ready
}

// Snapshot returns the current immutable epoch view, or nil before
// bootstrap. The returned structure is frozen; it stays valid and
// consistent while ingest continues.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// startSpan opens the engine-side span for one operation: a child of
// parent when the caller is already traced (an HTTP request span), else
// a new root from the configured tracer (nil when spans are off — every
// span method is nil-safe).
func (e *Engine) startSpan(name string, parent *obs.Span) *obs.Span {
	if parent != nil {
		return parent.Child(name)
	}
	return e.cfg.Spans.Start(name)
}

// Ingest consumes one batch of readings as a single epoch: models refit
// by RLS, drifted features stream through the slack-Δ protocol, the
// index is repaired or rebuilt, the re-cluster policy is applied, and a
// fresh snapshot is published. Ingest calls are serialized; concurrent
// queries keep running against the previous snapshot throughout.
func (e *Engine) Ingest(batch []Reading) (*IngestResult, error) {
	return e.IngestSpanned(batch, nil)
}

// IngestSpanned is Ingest with the epoch traced as an "epoch" span —
// a child of parent when non-nil, else a new root on Config.Spans. The
// pipeline phases (validate, refit, maintain, index/recluster, journal,
// publish) become child spans whose self-times sum to the epoch wall
// time.
func (e *Engine) IngestSpanned(batch []Reading, parent *obs.Span) (*IngestResult, error) {
	return e.ingestEpoch(parent, func(sp *obs.Span) (*IngestResult, error) {
		return e.ingestLocked(batch, sp)
	}, func() *persist.BatchRecord {
		rec := &persist.BatchRecord{Kind: persist.RecordReadings, Nodes: make([]int64, len(batch)), Values: make([]float64, len(batch))}
		for i, r := range batch {
			rec.Nodes[i], rec.Values[i] = int64(r.Node), r.Value
		}
		return rec
	})
}

// ingestEpoch runs one batch as an epoch under the engine lock, traced
// as an "epoch" span: apply applies the batch, and record builds its
// journal record, called only when a WAL is attached. The record
// carries the sequence number the batch commits as; e.seq advances only
// after the append succeeds, so a failed append never leaves a gap for
// the next record to journal across. On failure the engine latches
// ErrWALDiverged — the batch is applied in memory but not durable, and
// every further ingest is rejected until the process restarts
// (typically after a snapshot, which captures the applied state).
func (e *Engine) ingestEpoch(parent *obs.Span, apply func(sp *obs.Span) (*IngestResult, error), record func() *persist.BatchRecord) (*IngestResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.walErr != nil {
		return nil, e.walErr
	}
	sp := e.startSpan("epoch", parent)
	defer sp.Finish()
	res, err := apply(sp)
	if err != nil {
		sp.Label("error", err.Error())
		return nil, err
	}
	if e.wal != nil {
		rec := record()
		rec.Seq = e.seq + 1
		js := sp.Child("journal")
		err := e.wal.Append(rec, js)
		js.Finish()
		if err != nil {
			e.walErr = fmt.Errorf("%w: batch %d: %v", ErrWALDiverged, rec.Seq, err)
			return res, e.walErr
		}
	}
	e.seq++
	e.labelEpoch(sp)
	return res, nil
}

// labelEpoch annotates a traced epoch with the published snapshot's
// epoch number and, once bootstrapped, its fragmentation and index
// depth. Nothing is formatted when sp is nil.
func (e *Engine) labelEpoch(sp *obs.Span) {
	if sp == nil {
		return
	}
	sp.Label("epoch", strconv.FormatInt(e.epoch, 10))
	if e.ready {
		sp.Label("fragmentation", strconv.FormatFloat(e.maint.Fragmentation(), 'g', -1, 64))
		sp.Label("index_depth", strconv.Itoa(e.idx.MaxDepth()))
	}
}

// ingestLocked validates the whole batch up front, then applies it, so a
// rejected batch leaves the engine untouched — the invariant the WAL
// relies on (an invalid batch is never journaled, a journaled batch
// replays without partial-application ambiguity).
func (e *Engine) ingestLocked(batch []Reading, sp *obs.Span) (*IngestResult, error) {
	if e.models == nil {
		return nil, fmt.Errorf("%w: engine configured with Order=0 ingests features only (use IngestFeatures)", ErrInvalidBatch)
	}
	vs := sp.Child("validate")
	var verr error
	for _, r := range batch {
		if int(r.Node) < 0 || int(r.Node) >= e.g.N() {
			verr = fmt.Errorf("%w: reading for node %d outside [0,%d)", ErrInvalidBatch, r.Node, e.g.N())
			break
		}
		if !finite(r.Value) {
			verr = fmt.Errorf("%w: reading for node %d is not finite: %v", ErrInvalidBatch, r.Node, r.Value)
			break
		}
	}
	vs.Finish()
	if verr != nil {
		return nil, verr
	}

	rs := sp.Child("refit")
	res := &IngestResult{}
	for _, r := range batch {
		m := e.models[r.Node]
		before := m.Seen()
		if m.Observe(r.Value) && e.ready {
			e.touched[r.Node] = true
		}
		if before < e.cfg.WarmupObs && m.Seen() >= e.cfg.WarmupObs {
			e.warm++
		}
		e.readings++
		res.Readings++
	}

	if !e.ready {
		if e.warm < e.g.N() {
			rs.Finish()
			return res, nil // still warming up
		}
		for u := range e.models {
			e.feats[u] = metric.Feature(e.models[u].Snapshot())
		}
		rs.Finish()
		return res, e.finishBootstrap(res, sp)
	}

	nodes := e.takeTouched()
	for _, u := range nodes {
		e.feats[u] = metric.Feature(e.models[u].Snapshot())
	}
	rs.Finish()
	return res, e.applyEpoch(nodes, res, sp)
}

// IngestFeatures consumes one batch of already-fitted coefficient
// updates as a single epoch, for deployments where nodes refit their own
// models and ship drift directly. Before bootstrap the updates accumulate
// until every node has a feature; afterwards each batch flows through the
// same maintenance/index/policy path as Ingest.
func (e *Engine) IngestFeatures(batch []FeatureUpdate) (*IngestResult, error) {
	return e.IngestFeaturesSpanned(batch, nil)
}

// IngestFeaturesSpanned is IngestFeatures with the epoch traced (see
// IngestSpanned).
func (e *Engine) IngestFeaturesSpanned(batch []FeatureUpdate, parent *obs.Span) (*IngestResult, error) {
	return e.ingestEpoch(parent, func(sp *obs.Span) (*IngestResult, error) {
		return e.ingestFeaturesLocked(batch, sp)
	}, func() *persist.BatchRecord {
		rec := &persist.BatchRecord{Kind: persist.RecordFeatures, Nodes: make([]int64, len(batch)), Features: make([][]float64, len(batch))}
		for i, up := range batch {
			rec.Nodes[i], rec.Features[i] = int64(up.Node), up.Feature
		}
		return rec
	})
}

// ingestFeaturesLocked validates the whole batch up front, then applies
// it (see ingestLocked for why).
func (e *Engine) ingestFeaturesLocked(batch []FeatureUpdate, sp *obs.Span) (*IngestResult, error) {
	vs := sp.Child("validate")
	var verr error
	dim := e.featureDim()
	for _, up := range batch {
		if int(up.Node) < 0 || int(up.Node) >= e.g.N() {
			verr = fmt.Errorf("%w: feature update for node %d outside [0,%d)", ErrInvalidBatch, up.Node, e.g.N())
			break
		}
		if len(up.Feature) == 0 {
			verr = fmt.Errorf("%w: empty feature for node %d", ErrInvalidBatch, up.Node)
			break
		}
		if dim == 0 {
			dim = len(up.Feature) // no feature set yet: the batch's first entry decides
		}
		if len(up.Feature) != dim {
			verr = fmt.Errorf("%w: feature for node %d has dimension %d, want %d", ErrInvalidBatch, up.Node, len(up.Feature), dim)
			break
		}
		if !finite(up.Feature...) {
			verr = fmt.Errorf("%w: feature for node %d is not finite: %v", ErrInvalidBatch, up.Node, up.Feature)
			break
		}
	}
	vs.Finish()
	if verr != nil {
		return nil, verr
	}

	rs := sp.Child("refit")
	res := &IngestResult{}
	for _, up := range batch {
		e.feats[up.Node] = up.Feature.Clone()
		if !e.featSet[up.Node] {
			e.featSet[up.Node] = true
			e.featCovered++
		}
		if e.ready {
			e.touched[up.Node] = true
		}
		e.readings++
		res.Readings++
	}

	if !e.ready {
		rs.Finish()
		if e.featCovered < e.g.N() {
			return res, nil // waiting for full feature coverage
		}
		return res, e.finishBootstrap(res, sp)
	}
	nodes := e.takeTouched()
	rs.Finish()
	return res, e.applyEpoch(nodes, res, sp)
}

// featureDim returns the dimension of the features already set, or 0
// when no node has one yet.
func (e *Engine) featureDim() int {
	for _, f := range e.feats {
		if len(f) > 0 {
			return len(f)
		}
	}
	return 0
}

// takeTouched returns the marked nodes in id order and clears their
// marks. Before bootstrap nothing is marked: the bootstrap clustering
// covers every node.
func (e *Engine) takeTouched() []topology.NodeID {
	e.touchedIDs = e.touchedIDs[:0]
	for u, t := range e.touched {
		if t {
			e.touchedIDs = append(e.touchedIDs, topology.NodeID(u))
			e.touched[u] = false
		}
	}
	return e.touchedIDs
}

// applyEpoch streams the touched nodes' current features through the
// maintenance protocol, keeps the index consistent, applies the
// re-cluster policy and publishes the epoch's snapshot.
func (e *Engine) applyEpoch(nodes []topology.NodeID, res *IngestResult, sp *obs.Span) error {
	ms := sp.Child("maintain")
	before := e.maint.CountersSnapshot()
	for _, u := range nodes {
		e.maint.Update(u, e.feats[u])
		e.updates++
		res.Updates++
	}
	after := e.maint.CountersSnapshot()
	res.Detaches = after.Detaches - before.Detaches
	ms.Finish()

	e.sinceRecluster++
	switch {
	case e.cfg.Policy == PolicyPeriodic && e.sinceRecluster >= e.cfg.Period,
		e.cfg.Policy == PolicyAdaptive && e.maint.NeedsRecluster(e.cfg.FragmentationFactor):
		cs := sp.Child("recluster")
		err := e.recluster(cs)
		cs.Finish()
		if err != nil {
			return err
		}
		res.Reclustered = true
	case res.Detaches > 0:
		// Membership changed: the M-tree topology is stale, rebuild it
		// over the maintained clustering.
		is := sp.Child("index")
		err := e.rebuildIndex()
		is.Finish()
		if err != nil {
			return err
		}
	case len(nodes) > 0:
		// Membership stable: repair routing features and covering radii
		// with one convergecast over the drifted nodes.
		is := sp.Child("index")
		e.cloneIndexIfPublished()
		msgs, err := e.idx.Refresh(nodes, e.feats)
		is.Finish()
		if err != nil {
			return err
		}
		e.refreshMsgs += msgs
	}

	ps := sp.Child("publish")
	e.publish()
	ps.Finish()
	res.Ready = true
	res.Epoch = e.epoch
	res.NumClusters = e.maint.NumClusters()
	return nil
}

// finishBootstrap runs the first full clustering over e.feats and fills
// the batch result.
func (e *Engine) finishBootstrap(res *IngestResult, sp *obs.Span) error {
	bs := sp.Child("bootstrap")
	idx, m, err := e.fullCluster(bs, &e.bootstrapStats)
	bs.Finish()
	if err != nil {
		return err
	}
	e.maint, e.idx = m, idx
	e.ready = true
	e.sinceRecluster = 0
	ps := sp.Child("publish")
	e.publish()
	ps.Finish()
	res.Ready = true
	res.Epoch = e.epoch
	res.NumClusters = e.maint.NumClusters()
	return nil
}

// recluster retires the current maintainer and re-runs ELink on the
// current features (the §6 fallback the policy knob gates).
func (e *Engine) recluster(sp *obs.Span) error {
	e.screening = addCounters(e.screening, e.maint.CountersSnapshot())
	e.maintMsgs.Add(e.maint.Stats())
	idx, m, err := e.fullCluster(sp, &e.reclusterStats)
	if err != nil {
		return err
	}
	e.reclusters++
	e.maint, e.idx, e.idxPublished = m, idx, false
	e.sinceRecluster = 0
	return nil
}

// fullCluster runs ELink at δ − 2Δ on the current features, wraps the
// result with a fresh maintainer and index, and adds the run's and the
// index build's messages to stats.
func (e *Engine) fullCluster(sp *obs.Span, stats *cluster.Stats) (*index.Index, *update.Maintainer, error) {
	feats := make([]metric.Feature, len(e.feats))
	for u := range feats {
		feats[u] = e.feats[u].Clone()
	}
	rs := sp.Child("elink-run")
	res, err := elink.Run(e.g, elink.Config{
		Delta:    e.cfg.Delta - 2*e.cfg.Slack,
		Metric:   e.cfg.Metric,
		Features: feats,
		Mode:     e.cfg.Mode,
		Seed:     e.cfg.Seed,
	})
	rs.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("stream: clustering run: %w", err)
	}
	if rs != nil {
		rs.Label("elink_rounds", strconv.FormatFloat(res.Stats.Time, 'g', -1, 64))
		rs.Label("elink_msgs", strconv.FormatInt(res.Stats.Messages, 10))
	}
	m, err := update.NewMaintainer(e.g, res.Clustering, feats, update.Config{
		Delta: e.cfg.Delta, Slack: e.cfg.Slack, Metric: e.cfg.Metric,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("stream: maintainer: %w", err)
	}
	is := sp.Child("index-build")
	idx, err := index.Build(e.g, res.Clustering, feats, e.cfg.Metric)
	is.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("stream: index build: %w", err)
	}
	stats.Add(res.Stats)
	stats.Add(idx.BuildStats)
	return idx, m, nil
}

// rebuildIndex rebuilds the M-tree over the maintained membership.
func (e *Engine) rebuildIndex() error {
	idx, err := index.Build(e.g, e.maint.Clustering(), e.feats, e.cfg.Metric)
	if err != nil {
		return fmt.Errorf("stream: index rebuild: %w", err)
	}
	e.rebuildStats.Add(idx.BuildStats)
	e.rebuilds++
	e.idx, e.idxPublished = idx, false
	return nil
}

// cloneIndexIfPublished implements the copy-on-write epoch swap: the
// published index stays frozen for readers while the writer mutates a
// private clone.
func (e *Engine) cloneIndexIfPublished() {
	if e.idxPublished {
		e.idx = e.idx.Clone()
		e.idxPublished = false
	}
}

// publish freezes the writer's state into a new snapshot and swaps it in
// for readers.
func (e *Engine) publish() {
	e.epoch++
	e.idxPublished = true
	e.snap.Store(&Snapshot{
		Epoch:      e.epoch,
		Clustering: e.maint.Clustering(),
		Index:      e.idx,
		Features:   e.idx.Features,
	})
}

// RangeQuery answers a §7.2 range query against the current snapshot.
// Safe for arbitrary concurrency with Ingest and other queries.
func (e *Engine) RangeQuery(q metric.Feature, r float64, initiator topology.NodeID) (*query.RangeResult, error) {
	return e.RangeQuerySpanned(q, r, initiator, nil)
}

// RangeQuerySpanned is RangeQuery traced as a "range-query" span (child
// of parent when non-nil, else a root on Config.Spans) with the query's
// execution phases as children.
func (e *Engine) RangeQuerySpanned(q metric.Feature, r float64, initiator topology.NodeID, parent *obs.Span) (*query.RangeResult, error) {
	s := e.snap.Load()
	if s == nil {
		return nil, ErrNotReady
	}
	if int(initiator) < 0 || int(initiator) >= e.g.N() {
		return nil, fmt.Errorf("stream: initiator %d outside [0,%d)", initiator, e.g.N())
	}
	if err := s.checkDim("query feature", q); err != nil {
		return nil, err
	}
	sp := e.startSpan("range-query", parent)
	start := time.Now() //elink:allow walltime — query latency telemetry; never feeds deterministic figure state
	res := query.Range(s.Index, q, r, initiator, sp)
	d := time.Since(start) //elink:allow walltime — query latency telemetry; never feeds deterministic figure state
	sp.Finish()
	e.recordQuery(&e.rangeQ, d, res.Stats.Messages)
	return res, nil
}

// PathQuery answers a §7.3 path query against the current snapshot.
// Safe for arbitrary concurrency with Ingest and other queries.
func (e *Engine) PathQuery(danger metric.Feature, gamma float64, src, dst topology.NodeID) (*query.PathResult, error) {
	return e.PathQuerySpanned(danger, gamma, src, dst, nil)
}

// PathQuerySpanned is PathQuery traced as a "path-query" span (see
// RangeQuerySpanned).
func (e *Engine) PathQuerySpanned(danger metric.Feature, gamma float64, src, dst topology.NodeID, parent *obs.Span) (*query.PathResult, error) {
	s := e.snap.Load()
	if s == nil {
		return nil, ErrNotReady
	}
	if int(src) < 0 || int(src) >= e.g.N() || int(dst) < 0 || int(dst) >= e.g.N() {
		return nil, fmt.Errorf("stream: endpoints (%d,%d) outside [0,%d)", src, dst, e.g.N())
	}
	if err := s.checkDim("danger feature", danger); err != nil {
		return nil, err
	}
	sp := e.startSpan("path-query", parent)
	start := time.Now() //elink:allow walltime — query latency telemetry; never feeds deterministic figure state
	res := query.Path(s.Index, danger, gamma, src, dst, sp)
	d := time.Since(start) //elink:allow walltime — query latency telemetry; never feeds deterministic figure state
	sp.Finish()
	e.recordQuery(&e.pathQ, d, res.Stats.Messages)
	return res, nil
}

// checkDim rejects a query feature whose dimension differs from the
// snapshot's features; the metric would panic on it.
func (s *Snapshot) checkDim(what string, f metric.Feature) error {
	if want := len(s.Features[0]); len(f) != want {
		return fmt.Errorf("stream: %s has dimension %d, the engine's features have %d", what, len(f), want)
	}
	return nil
}

func (e *Engine) recordQuery(counter *int64, d time.Duration, msgs int64) {
	e.qmu.Lock()
	*counter++
	e.queryMsgs += msgs
	e.queryTime += d
	if d > e.maxQueryTime {
		e.maxQueryTime = d
	}
	e.qmu.Unlock()
}

// Stats returns the engine's cumulative counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Epochs:        e.epoch,
		CollectedAt:   time.Now(), //elink:allow walltime — Stats.CollectedAt is a scrape timestamp, not engine state
		Readings:      e.readings,
		Updates:       e.updates,
		Screening:     e.screening,
		BootstrapMsgs: e.bootstrapStats.Messages,
		ReclusterMsgs: e.reclusterStats.Messages,
		Reclusters:    e.reclusters,
		IndexRebuilds: e.rebuilds,
		Breakdown:     make(map[string]int64),
	}
	merge := func(cs cluster.Stats) {
		for k, v := range cs.Breakdown {
			s.Breakdown[k] += v
		}
	}
	merge(e.maintMsgs)
	merge(e.bootstrapStats)
	merge(e.reclusterStats)
	merge(e.rebuildStats)
	s.MaintenanceMsgs = e.maintMsgs.Messages
	s.IndexRebuildMsgs = e.rebuildStats.Messages
	s.IndexRepairMsgs = e.refreshMsgs
	if e.refreshMsgs > 0 {
		s.Breakdown["refresh"] = e.refreshMsgs
	}
	if e.maint != nil {
		cur := e.maint.Stats()
		merge(cur)
		s.MaintenanceMsgs += cur.Messages
		s.Screening = addCounters(s.Screening, e.maint.CountersSnapshot())
		s.NumClusters = e.maint.NumClusters()
		s.Fragmentation = e.maint.Fragmentation()
		s.IndexDepth = e.idx.MaxDepth()
	}
	e.mu.Unlock()

	e.qmu.Lock()
	s.RangeQueries = e.rangeQ
	s.PathQueries = e.pathQ
	s.QueryMsgs = e.queryMsgs
	s.QueryTime = e.queryTime
	s.MaxQueryTime = e.maxQueryTime
	e.qmu.Unlock()

	// Attribution table from the span tracer (nil-safe: empty when spans
	// are off). Read outside both engine locks — the tracer has its own.
	s.Phases = e.cfg.Spans.PhaseStats()
	return s
}
