// Package stream turns the batch clustering pipeline into a live,
// continuously maintained one.
//
// The batch entry points (elink.Run, index.Build, query.Range/Path) fit
// models, cluster once, answer queries and exit. Engine instead runs
// indefinitely: it ingests per-node reading batches, refits each node's
// AR model online with the recursive-least-squares state of internal/ar
// (Appendix A), screens the resulting feature drift through the slack-Δ
// maintenance protocol of internal/update (§6), keeps the internal/index
// M-tree consistent — incrementally where membership is stable, by
// rebuild where it is not — and serves internal/query range and path
// queries concurrently against an immutable snapshot.
//
// Concurrency model: single writer, lock-free readers. Ingest calls are
// serialized by the engine mutex; at the end of every ingested batch
// (an "epoch") the engine publishes a frozen Snapshot — clustering,
// M-tree index, features — through an atomic pointer. Queries load the
// pointer and run entirely against that immutable structure, so readers
// never block ingest and ingest never blocks readers. Before the next
// epoch refreshes the index it clones the published copy, sharing the
// tree topology and copying only features and radii (copy-on-write at
// epoch granularity, see index.Clone).
//
// Amortization is the point: a full ELink run costs O(N) messages every
// time, while the slack-Δ screens silence most updates for free and the
// index repair is one convergecast per epoch over only the tree edges
// whose child summary changed, so maintaining the clustering across a
// stream is far cheaper than re-clustering per batch. The ReclusterPolicy
// knob controls when the engine still falls back to a full re-run.
package stream

import (
	"time"

	"elink/internal/cluster"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/topology"
	"elink/internal/update"
)

// ReclusterPolicy selects when the engine abandons incremental
// maintenance and re-runs ELink from scratch (the trade-off §6 motivates
// and the recluster-policy experiment quantifies).
type ReclusterPolicy int

const (
	// PolicyNever maintains forever; quality decays as fragmentation
	// accumulates but no full re-clustering cost is ever paid.
	PolicyNever ReclusterPolicy = iota
	// PolicyAdaptive re-clusters when the cluster count exceeds
	// FragmentationFactor times the count right after the last full run.
	PolicyAdaptive
	// PolicyPeriodic re-clusters every Period epochs.
	PolicyPeriodic
)

// String implements fmt.Stringer.
func (p ReclusterPolicy) String() string {
	switch p {
	case PolicyNever:
		return "never"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyPeriodic:
		return "periodic"
	}
	return "unknown"
}

// Config parameterizes the streaming engine.
type Config struct {
	// Order is the AR model order fitted per node; features are the
	// Order RLS coefficients.
	Order int
	// Delta is the target δ of the maintained clustering.
	Delta float64
	// Slack is the maintenance Δ; clustering runs use the tightened
	// threshold δ − 2Δ so drift has room (must satisfy 0 ≤ 2Δ < δ).
	Slack float64
	// Metric measures feature dissimilarity.
	Metric metric.Metric
	// Mode selects the ELink signalling technique for (re-)clustering
	// runs.
	Mode elink.Mode
	// Seed drives every randomized component (ELink delay/loss processes)
	// so engine runs are reproducible end-to-end.
	Seed int64
	// Policy selects the re-cluster trigger (default PolicyAdaptive).
	Policy ReclusterPolicy
	// FragmentationFactor is PolicyAdaptive's threshold (default 1.5).
	FragmentationFactor float64
	// Period is PolicyPeriodic's epoch interval (default 20).
	Period int
	// WarmupObs is how many observations every node must have seen
	// before the engine bootstraps its first clustering (default
	// 4*Order, minimum Order+1).
	WarmupObs int
	// Spans, when non-nil, receives one hierarchical span trace per
	// engine operation: every ingested epoch (children: validate, refit,
	// maintain, index/recluster, journal, publish), every query, and
	// every snapshot save/restore. Span timings never feed figure tables,
	// so attaching a tracer leaves golden determinism untouched.
	Spans *obs.SpanTracer
}

func (c Config) withDefaults() Config {
	if c.FragmentationFactor == 0 {
		c.FragmentationFactor = 1.5
	}
	if c.Period == 0 {
		c.Period = 20
	}
	if c.WarmupObs == 0 {
		c.WarmupObs = 4 * c.Order
	}
	if c.WarmupObs < c.Order+1 {
		c.WarmupObs = c.Order + 1
	}
	return c
}

// Reading is one raw measurement at one node.
type Reading struct {
	Node  topology.NodeID `json:"node"`
	Value float64         `json:"value"`
}

// FeatureUpdate is one already-fitted coefficient vector at one node,
// for deployments where nodes run their own RLS and ship drift directly
// (Engine.IngestFeatures).
type FeatureUpdate struct {
	Node    topology.NodeID `json:"node"`
	Feature metric.Feature  `json:"feature"`
}

// Snapshot is the immutable per-epoch view queries run against. All
// fields are frozen once published; the engine never mutates a snapshot
// it has handed out.
type Snapshot struct {
	// Epoch counts published snapshots (1 = the bootstrap clustering).
	Epoch int64
	// Clustering is the epoch's membership.
	Clustering *cluster.Clustering
	// Index is the M-tree + leader backbone over that membership, with
	// routing features current as of the epoch.
	Index *index.Index
	// Features aliases the index's owned feature vectors.
	Features []metric.Feature
}

// NumClusters returns the snapshot's cluster count.
func (s *Snapshot) NumClusters() int { return s.Clustering.NumClusters() }

// Validate checks the snapshot against the repo's clustering validators:
// every cluster connected, pairwise feature distances within the given
// bound, and the index covering-radius invariant exact. Maintained
// clusterings guarantee member-to-root distance ≤ δ (one slack lag), so
// pairwise compactness holds at 2δ, not δ; pass 2*Delta for maintained
// epochs and Delta right after a full (re-)clustering.
func (s *Snapshot) Validate(g *topology.Graph, m metric.Metric, pairwiseBound float64) error {
	if err := s.Clustering.Validate(g, s.Features, m, pairwiseBound, 1e-9); err != nil {
		return err
	}
	return s.Index.Validate()
}

// IngestResult summarizes what one batch did to the engine.
type IngestResult struct {
	// Epoch is the snapshot epoch after this batch (0 while warming up).
	Epoch int64 `json:"epoch"`
	// Ready reports whether the engine has bootstrapped a clustering.
	Ready bool `json:"ready"`
	// Readings is how many raw measurements or feature updates the batch
	// carried.
	Readings int `json:"readings"`
	// Updates is how many feature updates were pushed through the
	// maintenance protocol.
	Updates int `json:"updates"`
	// Detaches is how many nodes left their cluster this epoch.
	Detaches int `json:"detaches"`
	// Reclustered reports whether the policy triggered a full ELink run.
	Reclustered bool `json:"reclustered"`
	// NumClusters is the cluster count after the batch.
	NumClusters int `json:"clusters"`
}

// Stats exposes the engine's cumulative counters: messages by kind and
// phase, screening telemetry, re-cluster triggers and query latencies.
//
// Snapshot semantics: Stats is a point-in-time copy, not a live view.
// Engine.Stats assembles it in two phases — the ingest-side counters are
// copied under the engine lock, then the query-side counters under the
// separate query-telemetry lock — so the query counters can be slightly
// newer than the ingest counters when both paths are running. Within
// each group the values are mutually consistent. Epochs is the snapshot
// epoch the ingest-side counters correspond to (it matches
// Snapshot.Epoch taken at the same moment), and CollectedAt stamps when
// the copy was taken, so scrapes can be ordered and correlated with
// snapshots.
type Stats struct {
	// Epochs is the number of published snapshots; it equals the current
	// Snapshot.Epoch and increases monotonically, so two Stats values can
	// be ordered and diffed per epoch.
	Epochs int64 `json:"epochs"`
	// CollectedAt is the wall-clock time this copy was taken.
	CollectedAt time.Time `json:"collectedAt"`
	// Readings is how many raw measurements or feature updates all
	// batches carried: the sum of their IngestResult.Readings, across
	// snapshot restore and WAL replay.
	Readings int64 `json:"readings"`
	// Updates is the total feature updates through the maintainer.
	Updates int64 `json:"updates"`
	// NumClusters is the current cluster count (0 while warming up).
	NumClusters int `json:"clusters"`
	// Fragmentation is NumClusters relative to the count right after the
	// last full clustering run (the ratio PolicyAdaptive compares with
	// FragmentationFactor); 0 while warming up.
	Fragmentation float64 `json:"fragmentation"`
	// IndexDepth is the deepest M-tree entry of the current index; 0
	// while warming up.
	IndexDepth int `json:"indexDepth"`

	// Screening is the maintenance protocol's telemetry, accumulated
	// across maintainer generations.
	Screening update.Counters `json:"screening"`

	// Message costs by phase.
	BootstrapMsgs    int64 `json:"bootstrapMsgs"`    // initial ELink run + index build
	MaintenanceMsgs  int64 `json:"maintenanceMsgs"`  // slack-Δ protocol traffic
	IndexRepairMsgs  int64 `json:"indexRepairMsgs"`  // incremental Refresh convergecasts
	IndexRebuildMsgs int64 `json:"indexRebuildMsgs"` // rebuilds after membership changes
	ReclusterMsgs    int64 `json:"reclusterMsgs"`    // policy-triggered re-runs + index

	// Reclusters counts policy-triggered full runs (the bootstrap is not
	// included); IndexRebuilds counts membership-driven index rebuilds.
	Reclusters    int64 `json:"reclusters"`
	IndexRebuilds int64 `json:"indexRebuilds"`

	// Breakdown decomposes every update-path message by protocol kind
	// (fetch/rootfeat/broadcast/probe/reroot, the ELink kinds, index and
	// backbone builds, plus "refresh" for index repair).
	Breakdown map[string]int64 `json:"breakdown"`

	// Query-side counters.
	RangeQueries int64         `json:"rangeQueries"`
	PathQueries  int64         `json:"pathQueries"`
	QueryMsgs    int64         `json:"queryMsgs"`
	QueryTime    time.Duration `json:"queryTimeNs"`
	MaxQueryTime time.Duration `json:"maxQueryTimeNs"`

	// Phases is the per-phase latency attribution table (p50/p95/max
	// self-time per span phase), present only when Config.Spans is set.
	Phases []obs.PhaseStat `json:"phases,omitempty"`
}

// SteadyStateMsgs is the total streaming update cost after bootstrap:
// maintenance traffic, index repairs and rebuilds, and any policy-
// triggered re-clusterings. This is the number the amortization claim is
// about — it must undercut re-running ELink per batch.
func (s Stats) SteadyStateMsgs() int64 {
	return s.MaintenanceMsgs + s.IndexRepairMsgs + s.IndexRebuildMsgs + s.ReclusterMsgs
}

// TotalUpdateMsgs is SteadyStateMsgs plus the bootstrap cost.
func (s Stats) TotalUpdateMsgs() int64 { return s.BootstrapMsgs + s.SteadyStateMsgs() }

// addCounters accumulates b into a field by field.
func addCounters(a, b update.Counters) update.Counters {
	a.Updates += b.Updates
	a.ScreenedA1 += b.ScreenedA1
	a.ScreenedA2 += b.ScreenedA2
	a.ScreenedA3 += b.ScreenedA3
	a.RootFetches += b.RootFetches
	a.Detaches += b.Detaches
	a.Rejoins += b.Rejoins
	a.Singletons += b.Singletons
	a.RootDrifts += b.RootDrifts
	return a
}
