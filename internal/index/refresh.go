package index

import (
	"fmt"

	"elink/internal/metric"
	"elink/internal/topology"
)

// Refresh installs new routing features for a batch of nodes and repairs
// every covering radius they affect, keeping each query-pruning
// invariant exact without rebuilding the index. feats is indexed by node
// id; only the listed nodes' entries are read. Radii end bitwise equal
// to a fresh Build over the same features.
//
// The repair is one convergecast over the cluster trees, the same
// bottom-up aggregation the build runs (§7.1): children before parents,
// each dirty node re-aggregates once, and a node reports its new
// (feature, radius) summary to its parent only if the summary changed —
// its feature was refreshed or its radius moved. Refresh returns the
// number of such reports, at most one per tree edge. A batch of one node
// costs exactly its repair wave up the root path, which stops at the
// first ancestor whose radius is unchanged.
//
// This is the index side of the §6 maintenance protocol: feature updates
// that stay inside their cluster still move routing features, and stale
// radii would make range/path pruning unsound.
func (idx *Index) Refresh(nodes []topology.NodeID, feats []metric.Feature) (int64, error) {
	if len(feats) != len(idx.Features) {
		return 0, fmt.Errorf("index: %d features for %d nodes", len(feats), len(idx.Features))
	}
	for _, u := range nodes {
		if int(u) < 0 || int(u) >= len(idx.Features) {
			return 0, fmt.Errorf("index: node %d out of range", u)
		}
	}
	const (
		dirty = 1 << iota // re-aggregate this node
		fed               // its own feature was refreshed
	)
	mark := make([]uint8, len(idx.Features))
	for _, u := range nodes {
		idx.Features[u] = feats[u].Clone()
		mark[u] = dirty | fed
	}
	var msgs int64
	for _, u := range idx.order {
		if mark[u] == 0 {
			continue
		}
		old := idx.Radius[u]
		idx.Radius[u] = idx.coverRadius(u)
		if p := idx.parent[u]; p != u && (mark[u]&fed != 0 || idx.Radius[u] != old) {
			msgs++
			mark[p] |= dirty
		}
	}
	return msgs, nil
}
