// Package elink is a complete implementation of distributed spatial
// clustering for sensor networks, reproducing "Distributed Spatial
// Clustering in Sensor Networks" (Meka & Singh, EDBT 2006).
//
// The package partitions a sensor network's communication graph into
// δ-clusters — connected regions whose per-node model features pairwise
// differ by at most δ — using the in-network ELink algorithm, which runs
// in O(√N log N) time and O(N) messages on both synchronous and
// asynchronous networks. On top of the clusters it offers slack-based
// dynamic maintenance, a distributed M-tree index, and communication-
// efficient range and path queries, together with the baselines the
// paper evaluates against (centralized spectral clustering, spanning
// forest, hierarchical agglomeration, TAG and BFS flooding).
//
// # Quick start
//
//	g := elink.NewGrid(8, 8)
//	feats := ...                       // one model feature per node
//	res, err := elink.Cluster(g, elink.Config{
//		Delta:    2.0,
//		Metric:   elink.Scalar(),
//		Features: feats,
//	})
//	// res.Clustering partitions the grid; res.Stats counts messages.
//
// Everything runs on a built-in discrete-event network simulator, so
// results are reproducible and message costs are exact. An asynchronous
// network is a seeded random hop delay: Config{Mode: Explicit, Delay:
// AsynchronousDelay(min, max), Seed: s}.
package elink

import (
	"io"

	"elink/internal/baseline"
	"elink/internal/cluster"
	"elink/internal/data"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/par"
	"elink/internal/persist"
	"elink/internal/query"
	"elink/internal/sim"
	"elink/internal/stream"
	"elink/internal/topology"
	"elink/internal/update"
	"elink/internal/viz"
)

// Core types, aliased from the internal packages so downstream code uses
// one import path.
type (
	// NodeID identifies a sensor node; ids are dense in [0, N).
	NodeID = topology.NodeID
	// Point is a position on the deployment plane.
	Point = topology.Point
	// Graph is the communication graph over positioned nodes.
	Graph = topology.Graph
	// Feature is a node's model-coefficient vector.
	Feature = metric.Feature
	// Metric measures feature dissimilarity; it must satisfy the metric
	// axioms for every pruning rule in this package to be exact.
	Metric = metric.Metric
	// Clustering is a partition of the network into clusters.
	Clustering = cluster.Clustering
	// Quality summarizes a clustering (cluster count, diameters, sizes).
	Quality = cluster.Quality
	// Stats records communication cost (total and per message kind).
	Stats = cluster.Stats
	// Result couples a clustering with the cost of computing it.
	Result = cluster.Result
	// Config parameterizes the ELink clustering run.
	Config = elink.Config
	// Mode selects ELink's signalling technique.
	Mode = elink.Mode
	// DelayModel customizes per-hop delays of the simulator.
	DelayModel = sim.DelayModel
	// Index is the distributed M-tree plus leader backbone.
	Index = index.Index
	// RangeResult is a range query's answer and cost.
	RangeResult = query.RangeResult
	// PathResult is a path query's answer and cost.
	PathResult = query.PathResult
	// Maintainer applies the slack-Δ update protocol to a clustering.
	Maintainer = update.Maintainer
	// MaintainerConfig parameterizes dynamic maintenance.
	MaintainerConfig = update.Config
	// UpdateCounters exposes the maintenance screening telemetry.
	UpdateCounters = update.Counters
	// CentralizedUpdater is the update baseline that ships coefficients
	// to a base station.
	CentralizedUpdater = update.CentralizedUpdater
	// Dataset bundles a generated network with data and features.
	Dataset = data.Dataset
)

// ELink signalling modes.
const (
	// Implicit is the timer-driven technique for synchronous networks
	// (paper §4).
	Implicit = elink.Implicit
	// Explicit is the synchronization-wave technique for asynchronous
	// networks (paper §5).
	Explicit = elink.Explicit
	// Unordered is the compressed-schedule ablation sketched at the end
	// of §5.
	Unordered = elink.Unordered
)

// NewGrid builds a rows x cols grid network with 4-neighbour
// connectivity.
func NewGrid(rows, cols int) *Graph { return topology.NewGrid(rows, cols) }

// NewRandomGeometric places n nodes uniformly on a side x side square and
// connects pairs within the radio radius, stitching stray components so
// the result is connected. Use a math/rand.Rand for reproducibility via
// topology.NewRandomGeometric if finer control is needed.
func NewRandomGeometric(n int, side, radius float64, seed int64) *Graph {
	return topology.NewRandomGeometric(n, side, radius, newRand(seed))
}

// NewRandomNetwork places n nodes at unit density with approximately the
// requested average degree (the paper's synthetic deployments use 4).
func NewRandomNetwork(n int, avgDegree float64, seed int64) *Graph {
	return topology.RandomGeometricForDegree(n, avgDegree, newRand(seed))
}

// Euclidean returns the unweighted L2 metric.
func Euclidean() Metric { return metric.Euclidean{} }

// Manhattan returns the L1 metric.
func Manhattan() Metric { return metric.Manhattan{} }

// Scalar returns |a-b| over 1-dimensional features.
func Scalar() Metric { return metric.Scalar{} }

// WeightedEuclidean returns the weighted L2 metric the paper uses to
// emphasize higher-order model coefficients. Weights must be positive.
func WeightedEuclidean(weights ...float64) Metric {
	return metric.NewWeightedEuclidean(weights...)
}

// AsynchronousDelay returns a per-hop delay drawn uniformly from
// [min, max], modelling an asynchronous network inside the deterministic
// simulator.
func AsynchronousDelay(min, max float64) DelayModel { return sim.UniformDelay{Min: min, Max: max} }

// Cluster runs ELink on the deterministic event-driven simulator and
// returns the δ-clustering with its exact communication cost.
func Cluster(g *Graph, cfg Config) (*Result, error) { return elink.Run(g, cfg) }

// SpectralConfig parameterizes the centralized baseline.
type SpectralConfig = baseline.SpectralConfig

// SpectralCluster runs the paper's centralized baseline: spectral
// clustering at a base station, searching for the smallest k whose
// clusters all satisfy the δ-condition.
func SpectralCluster(g *Graph, cfg SpectralConfig) (*Result, error) {
	return baseline.Spectral(g, cfg)
}

// ForestConfig parameterizes the spanning-forest baseline.
type ForestConfig = baseline.ForestConfig

// SpanningForestCluster runs the distributed spanning-forest baseline
// (§8.3): greedy parent selection followed by a height sweep that splits
// δ-violating subtrees.
func SpanningForestCluster(g *Graph, cfg ForestConfig) (*Result, error) {
	return baseline.SpanningForest(g, cfg)
}

// HierConfig parameterizes the hierarchical baseline.
type HierConfig = baseline.HierConfig

// HierarchicalCluster runs the distributed agglomerative baseline (§8.3):
// mutually-best adjacent clusters merge while the δ-condition holds.
func HierarchicalCluster(g *Graph, cfg HierConfig) (*Result, error) {
	return baseline.Hierarchical(g, cfg)
}

// BuildIndex constructs the distributed M-tree index and leader backbone
// over an existing clustering (§7.1).
func BuildIndex(g *Graph, c *Clustering, feats []Feature, m Metric) (*Index, error) {
	return index.Build(g, c, feats, m)
}

// RangeQuery finds every node whose feature is within radius r of q,
// pruning whole clusters by their covering radii and descending the
// M-tree only where the boundary cuts through (§7.2).
func RangeQuery(idx *Index, q Feature, r float64, initiator NodeID) *RangeResult {
	return query.Range(idx, q, r, initiator, nil)
}

// PathQuery returns a path from src to dst on which every node's feature
// stays at least gamma away from the danger feature (§7.3).
func PathQuery(idx *Index, danger Feature, gamma float64, src, dst NodeID) *PathResult {
	return query.Path(idx, danger, gamma, src, dst, nil)
}

// TAGCost returns the fixed per-query cost of the TAG aggregation
// baseline on g: twice the overlay spanning tree's edges.
func TAGCost(g *Graph) Stats { return query.TAG(g) }

// BFSFloodPath runs the path-query baseline: flood the safe region from
// the source until the destination is reached.
func BFSFloodPath(g *Graph, feats []Feature, m Metric, danger Feature, gamma float64, src, dst NodeID) *PathResult {
	return query.BFSFlood(g, feats, m, danger, gamma, src, dst)
}

// NewMaintainer wraps a clustering with the slack-Δ update protocol (§6).
// The clustering should have been computed with threshold δ − 2Δ.
func NewMaintainer(g *Graph, c *Clustering, feats []Feature, cfg MaintainerConfig) (*Maintainer, error) {
	return update.NewMaintainer(g, c, feats, cfg)
}

// NewCentralizedUpdater builds the §8.5 update baseline with the base
// station at base; each violation ships coeffs coefficient messages over
// the node's hop distance.
func NewCentralizedUpdater(g *Graph, base NodeID, feats []Feature, cfg MaintainerConfig, coeffs int64) *CentralizedUpdater {
	return update.NewCentralizedUpdater(g, base, feats, cfg, coeffs)
}

// SVGOptions controls WriteNetworkSVG rendering.
type SVGOptions = viz.Options

// WriteNetworkSVG renders the network as a standalone SVG plan view,
// coloured by the clustering (nil for a plain network), with optional
// edges, cluster-root rings, node highlights and path overlays — the
// visual counterpart of the paper's figures 1 and 3–5.
func WriteNetworkSVG(w io.Writer, g *Graph, c *Clustering, opts SVGOptions) error {
	return viz.WriteSVG(w, g, c, opts)
}

// KMedoidsConfig parameterizes the distributed k-medoids alternative.
type KMedoidsConfig = baseline.KMedoidsConfig

// KMedoidsCluster runs the distributed k-medoids alternative the paper's
// related-work section dismisses as communication intensive (§9): every
// refinement round broadcasts all medoids network-wide. It exists to
// quantify that cost argument against ELink.
func KMedoidsCluster(g *Graph, cfg KMedoidsConfig) (*Result, error) {
	return baseline.KMedoids(g, cfg)
}

// ClusterTxPerNode runs ELink like Cluster but returns per-node
// transmission counts (each hop charged to its sender) — the input to
// energy and network-lifetime analyses.
func ClusterTxPerNode(g *Graph, cfg Config) ([]int64, error) {
	return elink.TxPerNode(g, cfg)
}

// OptimalCluster computes a minimum δ-clustering exactly by subset DP.
// δ-clustering is NP-complete (paper Theorem 1), so this is exponential
// and limited to small instances (n ≤ 16); it is the ground-truth
// reference the optimality-gap experiment measures the distributed
// algorithms against.
func OptimalCluster(g *Graph, feats []Feature, m Metric, delta float64) (*Clustering, error) {
	return cluster.Optimal(g, feats, m, delta)
}

// Streaming engine types, aliased from internal/stream.
type (
	// Engine is the live streaming engine: it ingests reading batches,
	// maintains the clustering and M-tree index incrementally, and serves
	// range/path queries concurrently against immutable epoch snapshots.
	Engine = stream.Engine
	// EngineConfig parameterizes the streaming engine.
	EngineConfig = stream.Config
	// EngineStats exposes the engine's cumulative counters.
	EngineStats = stream.Stats
	// EngineSnapshot is the immutable per-epoch view queries run against.
	EngineSnapshot = stream.Snapshot
	// IngestResult summarizes what one ingested batch did to the engine.
	IngestResult = stream.IngestResult
	// Reading is one raw measurement at one node.
	Reading = stream.Reading
	// FeatureUpdate is one already-fitted feature vector at one node.
	FeatureUpdate = stream.FeatureUpdate
	// ReclusterPolicy selects when the engine re-runs full ELink.
	ReclusterPolicy = stream.ReclusterPolicy
)

// Re-cluster policies for the streaming engine.
const (
	// PolicyNever maintains forever and never re-clusters.
	PolicyNever = stream.PolicyNever
	// PolicyAdaptive re-clusters when fragmentation exceeds the
	// configured factor (the default policy).
	PolicyAdaptive = stream.PolicyAdaptive
	// PolicyPeriodic re-clusters every Period epochs.
	PolicyPeriodic = stream.PolicyPeriodic
)

// ErrNotReady is returned by engine queries before the first clustering
// has been bootstrapped (AR models still warming up).
var ErrNotReady = stream.ErrNotReady

// ErrInvalidBatch tags engine ingest errors caused by the batch payload
// itself (unknown node, non-finite value, empty feature or one of the
// wrong dimension, wrong ingest mode); match with
// errors.Is to separate caller mistakes from engine failures.
var ErrInvalidBatch = stream.ErrInvalidBatch

// Durability types, aliased from internal/persist. Engine.SaveSnapshot /
// Engine.Restore write and load the full engine state; a WAL attached
// with Engine.AttachWAL journals every ingested batch, and
// Engine.ReplayWAL replays the tail past a restored snapshot — together
// they give crash-exact recovery (see DESIGN.md, "Durability").
type (
	// WAL is the append-only, segmented journal of ingest batches.
	WAL = persist.WAL
	// WALOptions parameterizes OpenWAL (fsync policy, segment size).
	WALOptions = persist.WALOptions
	// FsyncPolicy selects when WAL appends reach stable storage.
	FsyncPolicy = persist.FsyncPolicy
	// SnapshotInfo summarizes one written engine snapshot.
	SnapshotInfo = persist.SnapshotInfo
)

// WAL fsync policies.
const (
	// FsyncAlways flushes after every append (the durable default).
	FsyncAlways = persist.FsyncAlways
	// FsyncInterval flushes at most once per WALOptions.FsyncEvery.
	FsyncInterval = persist.FsyncInterval
	// FsyncNever leaves flushing to the operating system.
	FsyncNever = persist.FsyncNever
)

// ErrCorrupt tags snapshot/WAL decode failures caused by damaged bytes
// (bad magic, CRC mismatch, truncation); match with errors.Is.
var ErrCorrupt = persist.ErrCorrupt

// ErrSnapshotVersion tags decode failures caused by a format version
// newer than this build understands.
var ErrSnapshotVersion = persist.ErrVersion

// ErrConfigMismatch is returned by Engine.Restore when the snapshot was
// taken under a different engine configuration.
var ErrConfigMismatch = stream.ErrConfigMismatch

// ErrWALDiverged tags ingest errors after a WAL append failure left the
// in-memory state ahead of the journal: the engine refuses further
// writes (queries keep working) until the process restarts. Check
// Engine.Diverged for the latched error.
var ErrWALDiverged = stream.ErrWALDiverged

// OpenWAL opens (creating if needed) a write-ahead log in dir. Attach it
// to an engine with Engine.AttachWAL after any restore/replay so
// recovered batches are not re-journaled.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) { return persist.OpenWAL(dir, opts) }

// ParseFsyncPolicy parses "always" | "interval" | "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return persist.ParseFsyncPolicy(s) }

// NewWALMetrics registers the WAL telemetry counters on reg for use as
// WALOptions.Metrics.
func NewWALMetrics(reg *MetricsRegistry) persist.WALMetrics { return persist.NewWALMetrics(reg) }

// MetricsRegistry is a concurrency-safe registry of counters, gauges and
// histograms with Prometheus-text and JSON export, aliased from
// internal/obs. It holds what a serving process measures itself (HTTP
// traffic, build info, WAL and snapshot I/O); the engine's own counts
// live in Engine.Stats, which a server renders into a registry at
// scrape time.
type MetricsRegistry = obs.Registry

// Span tracing types, aliased from internal/obs. Hand a SpanTracer to
// EngineConfig.Spans and every epoch, snapshot and query records a
// hierarchical trace whose per-phase self-times telescope to the
// operation's wall time (see DESIGN.md, "Span tracing & latency
// attribution").
type (
	// SpanTracer collects hierarchical span traces into a bounded ring of
	// recent traces plus a top-K slowest set, and aggregates per-phase
	// latency statistics.
	SpanTracer = obs.SpanTracer
	// Span is one timed region inside a trace; Child opens a nested
	// region, Finish closes it.
	Span = obs.Span
	// SpanTrace is one completed trace: a root operation and its tree of
	// phase spans.
	SpanTrace = obs.SpanTrace
	// SpanRecord is one finished span inside a trace.
	SpanRecord = obs.SpanRecord
	// PhaseStat is one row of the per-phase latency attribution table
	// (count, p50/p95/max, total self-time).
	PhaseStat = obs.PhaseStat
)

// NewSpanTracer returns a span tracer keeping the last 256 traces and
// the 16 slowest. All methods are nil-receiver safe, so an unset tracer
// costs one nil test.
func NewSpanTracer() *SpanTracer { return obs.NewSpanTracer() }

// RegisterBuildInfo registers the elink_build_info gauge (version, Go
// version, GOMAXPROCS as labels, value constant 1) plus
// process_start_time_seconds and the scrape-time-computed
// process_uptime_seconds on reg.
func RegisterBuildInfo(reg *MetricsRegistry, version string) { obs.RegisterBuildInfo(reg, version) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// LatencyBuckets returns the shared latency histogram layout (1µs–10s)
// used by every *_seconds histogram on elink-serve's /metrics.
func LatencyBuckets() []float64 { return obs.LatencyBuckets() }

// Parallelism reports the worker count the parallel execution layer
// resolves for new work.
func Parallelism() int { return par.Workers() }

// NewEngine builds a streaming engine over the network. Ingest batches
// with Engine.Ingest (raw readings, Order >= 1) or Engine.IngestFeatures
// (pre-fitted features, any Order); query with Engine.RangeQuery and
// Engine.PathQuery; observe costs with Engine.Stats.
func NewEngine(g *Graph, cfg EngineConfig) (*Engine, error) {
	return stream.New(g, cfg)
}

// Dataset generator configurations, aliased so every knob — including
// the Seed that drives all randomness — is settable from the public API.
type (
	// TaoGenConfig parameterizes the Tao-like sea-surface-temperature
	// generator (grid shape, days, noise, Seed).
	TaoGenConfig = data.TaoConfig
	// DeathValleyGenConfig parameterizes the terrain elevation generator.
	DeathValleyGenConfig = data.DeathValleyConfig
	// SyntheticGenConfig parameterizes the uncorrelated AR(1) generator.
	SyntheticGenConfig = data.SyntheticConfig
)

// GenerateTao generates the Tao-like sea-surface-temperature dataset
// (spatially correlated, dynamic; see DESIGN.md for the substitution).
func GenerateTao(cfg TaoGenConfig) (*Dataset, error) { return data.Tao(cfg) }

// GenerateDeathValley generates the terrain elevation dataset
// (spatially correlated, static).
func GenerateDeathValley(cfg DeathValleyGenConfig) (*Dataset, error) {
	return data.DeathValley(cfg)
}

// GenerateSynthetic generates the paper's spatially uncorrelated AR(1)
// dataset.
func GenerateSynthetic(cfg SyntheticGenConfig) (*Dataset, error) {
	return data.Synthetic(cfg)
}

// FitTaoFeature fits the Tao mixed-model feature vector (the 4
// coefficients the Tao dataset's Metric weighs) to a raw temperature
// series — the per-day refit step when replaying Tao data through the
// streaming engine.
func FitTaoFeature(series []float64) (Feature, error) { return data.FitTaoModel(series) }
