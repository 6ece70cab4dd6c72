package stream

import (
	"time"

	"elink/internal/obs"
	"elink/internal/persist"
)

// engineObs caches the engine's metric handles so the per-epoch hot path
// never re-resolves label sets. The zero value is the off state: every
// obs handle method is nil-receiver safe, so an un-instrumented engine
// pays one nil test per site and nothing else.
type engineObs struct {
	epoch    *obs.Gauge
	clusters *obs.Gauge
	frag     *obs.Gauge
	depth    *obs.Gauge

	readings   *obs.Counter
	reclusters *obs.Counter
	rebuilds   *obs.Counter
	refresh    *obs.Counter

	snapTotal    *obs.Counter
	snapBytes    *obs.Counter
	snapSeconds  *obs.Histogram
	restTotal    *obs.Counter
	restSeconds  *obs.Histogram
	replayTotal  *obs.Counter
	snapLastSeq  *obs.Gauge
	snapLastSize *obs.Gauge
}

func newEngineObs(reg *obs.Registry) engineObs {
	var eo engineObs
	if reg == nil {
		return eo
	}
	reg.Help("engine_epoch", "Current published snapshot epoch.")
	reg.Help("engine_clusters", "Cluster count of the published snapshot.")
	reg.Help("engine_fragmentation", "Cluster count relative to the last full clustering run.")
	reg.Help("engine_index_depth", "Deepest M-tree entry in the published index.")
	reg.Help("engine_readings_total", "Measurements and feature updates ingested.")
	reg.Help("engine_reclusters_total", "Policy-triggered full ELink re-runs (bootstrap excluded).")
	reg.Help("engine_index_rebuilds_total", "Membership-driven M-tree rebuilds.")
	reg.Help("engine_index_refresh_messages_total", "Messages spent on in-place index repair.")
	eo.epoch = reg.Gauge("engine_epoch")
	eo.clusters = reg.Gauge("engine_clusters")
	eo.frag = reg.Gauge("engine_fragmentation")
	eo.depth = reg.Gauge("engine_index_depth")
	reg.Help("persist_snapshot_total", "Engine snapshots written.")
	reg.Help("persist_snapshot_bytes_total", "Snapshot bytes written.")
	reg.Help("persist_snapshot_seconds", "Snapshot capture+write latency.")
	reg.Help("persist_snapshot_last_seq", "Ingest sequence of the newest snapshot.")
	reg.Help("persist_snapshot_last_bytes", "Size of the newest snapshot.")
	reg.Help("persist_restore_total", "Snapshot restores applied.")
	reg.Help("persist_restore_seconds", "Snapshot restore latency.")
	reg.Help("persist_replayed_batches_total", "WAL batches replayed during recovery.")
	eo.readings = reg.Counter("engine_readings_total")
	eo.reclusters = reg.Counter("engine_reclusters_total")
	eo.rebuilds = reg.Counter("engine_index_rebuilds_total")
	eo.refresh = reg.Counter("engine_index_refresh_messages_total")
	durBuckets := []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}
	eo.snapTotal = reg.Counter("persist_snapshot_total")
	eo.snapBytes = reg.Counter("persist_snapshot_bytes_total")
	eo.snapSeconds = reg.Histogram("persist_snapshot_seconds", durBuckets)
	eo.snapLastSeq = reg.Gauge("persist_snapshot_last_seq")
	eo.snapLastSize = reg.Gauge("persist_snapshot_last_bytes")
	eo.restTotal = reg.Counter("persist_restore_total")
	eo.restSeconds = reg.Histogram("persist_restore_seconds", durBuckets)
	eo.replayTotal = reg.Counter("persist_replayed_batches_total")
	return eo
}

// publish records the per-epoch gauges. Called under the engine lock
// right after a snapshot swap.
func (eo *engineObs) publish(epoch int64, clusters int, frag float64, depth int) {
	eo.epoch.Set(float64(epoch))
	eo.clusters.Set(float64(clusters))
	eo.frag.Set(frag)
	eo.depth.Set(float64(depth))
}

// snapshot records one written snapshot.
func (eo *engineObs) snapshot(info persist.SnapshotInfo) {
	eo.snapTotal.Inc()
	eo.snapBytes.Add(info.Bytes)
	eo.snapSeconds.Observe(info.Duration.Seconds())
	eo.snapLastSeq.Set(float64(info.Seq))
	eo.snapLastSize.Set(float64(info.Bytes))
}

// restore records one applied snapshot restore.
func (eo *engineObs) restore(d time.Duration) {
	eo.restTotal.Inc()
	eo.restSeconds.Observe(d.Seconds())
}

// replayed records recovered WAL batches.
func (eo *engineObs) replayed(n int64) {
	eo.replayTotal.Add(n)
}
