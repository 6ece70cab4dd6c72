// Package query answers range queries and path queries over the
// distributed index (paper §7.2–§7.3), and provides the TAG and BFS-flood
// baselines the paper compares against (§8.3).
//
// Message accounting follows §8.2: a query is routed from the initiator
// up its cluster tree, broadcast over the leader backbone, pruned per
// cluster (first by the root's covering bound, then by M-tree descent),
// and the results aggregate back along the same edges.
package query

import (
	"sort"

	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/topology"
)

// Message kinds charged by the query algorithms.
const (
	KindQueryRoute = "qroute" // initiator to its cluster root and back
	KindBackbone   = "qbone"  // backbone broadcast + aggregation
	KindDescend    = "qtree"  // M-tree descent inside a cluster (answers ride the replies)
)

// RangeResult is the answer to a range query plus its cost and the
// pruning telemetry the experiments report.
type RangeResult struct {
	// Matches holds the node ids whose features are within the radius,
	// sorted ascending.
	Matches []topology.NodeID
	// Stats is the communication cost of answering the query.
	Stats cluster.Stats
	// ClustersExcluded / ClustersIncluded / ClustersSearched decompose
	// the per-cluster pruning decisions.
	ClustersExcluded int
	ClustersIncluded int
	ClustersSearched int
}

// Range answers "find all nodes whose feature is within radius r of q"
// starting from the given initiator node.
func Range(idx *index.Index, q metric.Feature, r float64, initiator topology.NodeID) *RangeResult {
	return RangeSpanned(idx, q, r, initiator, nil)
}

// RangeSpanned is Range with its phases — backbone flood, per-cluster
// prune/descend, answer aggregation — traced as children of sp (nil sp:
// no tracing; span methods are nil-safe).
func RangeSpanned(idx *index.Index, q metric.Feature, r float64, initiator topology.NodeID, sp *obs.Span) *RangeResult {
	res := &RangeResult{Stats: cluster.Stats{Breakdown: make(map[string]int64)}}
	charge := func(kind string, cost int64) {
		res.Stats.Breakdown[kind] += cost
		res.Stats.Messages += cost
	}

	// Initiator -> its cluster root, and the answer back at the end.
	charge(KindQueryRoute, 2*int64(idx.Depth(initiator)))

	// The query floods the backbone tree from the initiator's root (one
	// traversal of every edge in its component); the aggregation return
	// pass is charged afterwards, only on edges that carry answers —
	// roots whose clusters were pruned suppress their (empty) replies.
	bs := sp.Child("q-backbone")
	start := idx.Clusters[idx.ClusterOf[initiator]].Root
	walkBackbone(idx, start, -1, func(e index.BackboneEdge) {
		charge(KindBackbone, int64(e.Hops))
	})
	bs.Finish()

	cs := sp.Child("q-clusters")
	answered := make(map[topology.NodeID]bool)
	for ci := range idx.Clusters {
		root := idx.Clusters[ci].Root
		dRoot := idx.Metric.Distance(q, idx.Features[root])
		before := len(res.Matches)
		switch {
		case dRoot > r+idx.Radius[root]:
			// No member can match (§7.2's exclusion, with the measured
			// covering radius in place of the a-priori δ/2 bound).
			res.ClustersExcluded++
			continue
		case dRoot <= r-idx.Radius[root]:
			// Every member matches; the root answers for the whole
			// cluster without descending.
			res.ClustersIncluded++
			res.Matches = append(res.Matches, idx.Clusters[ci].Members...)
		default:
			res.ClustersSearched++
			res.Matches = descend(res.Matches, idx, ci, root, q, r, charge)
		}
		// Answers ride back on the descent replies (already charged); a
		// wholesale inclusion is answered by the root directly, which is
		// exactly the saving the δ-compactness pruning buys (§7.2).
		if len(res.Matches) > before {
			answered[root] = true
		}
	}
	cs.Finish()
	// Aggregation return pass over the backbone: each edge on the path
	// from an answering root toward the initiator's root carries one
	// message.
	as := sp.Child("q-aggregate")
	charge(KindBackbone, backboneReturnCost(idx, start, answered))
	sort.Slice(res.Matches, func(i, j int) bool { return res.Matches[i] < res.Matches[j] })
	as.Finish()
	return res
}

// backboneReturnCost sums the hop weights of the backbone edges lying on
// a path from any answering cluster root to the initiator's root.
func backboneReturnCost(idx *index.Index, start topology.NodeID, answered map[topology.NodeID]bool) int64 {
	if len(answered) == 0 {
		return 0
	}
	// Root the backbone tree at start; an edge carries a reply iff its
	// far subtree contains an answering root.
	var cost int64
	var walk func(node, parent topology.NodeID) bool
	walk = func(node, parent topology.NodeID) bool {
		carries := answered[node]
		for _, e := range idx.BackboneAdj[node] {
			other := e.A
			if other == node {
				other = e.B
			}
			if other == parent {
				continue
			}
			if walk(other, node) {
				cost += int64(e.Hops)
				carries = true
			}
		}
		return carries
	}
	walk(start, -1)
	return cost
}

// descend runs the M-tree search below node u (which has already been
// reached; reaching a child costs one message down and its reply one up),
// appending the matches to out in pre-order.
func descend(out []topology.NodeID, idx *index.Index, ci int, u topology.NodeID, q metric.Feature, r float64, charge func(string, int64)) []topology.NodeID {
	cl := idx.Clusters[ci]
	e := cl.Entries[u]
	du := idx.Metric.Distance(q, idx.Features[u])
	if du <= r {
		out = append(out, u)
	}
	for _, ch := range e.Children {
		rch := idx.Radius[ch]
		dch := idx.Metric.Distance(idx.Features[u], idx.Features[ch])
		// Prune the child subtree from the parent's stored child info —
		// no message needed (§7.1's |d(q,F_i)-d(F_i,F_j)| > r+R_j rule).
		if abs(du-dch) > r+rch {
			continue
		}
		// Include the whole child subtree without descending.
		if du+dch <= r-rch {
			out = appendSubtree(out, cl, ch)
			continue
		}
		charge(KindDescend, 2) // one hop down, the answer back up
		out = descend(out, idx, ci, ch, q, r, charge)
	}
	return out
}

// appendSubtree appends the members of cl's subtree rooted at u to out in
// pre-order.
func appendSubtree(out []topology.NodeID, cl *index.ClusterIndex, u topology.NodeID) []topology.NodeID {
	out = append(out, u)
	for _, ch := range cl.Entries[u].Children {
		out = appendSubtree(out, cl, ch)
	}
	return out
}

// walkBackbone calls visit once for every backbone edge in the tree
// holding node, reached from parent (-1 at the start). The backbone is a
// forest — index.Build links cluster roots by Kruskal — so skipping the
// edge back to the parent visits each edge exactly once, with no visited
// set.
func walkBackbone(idx *index.Index, node, parent topology.NodeID, visit func(index.BackboneEdge)) {
	for _, e := range idx.BackboneAdj[node] {
		other := e.A
		if other == node {
			other = e.B
		}
		if other == parent {
			continue
		}
		visit(e)
		walkBackbone(idx, other, node, visit)
	}
}

// BruteForce computes the exact answer set centrally; tests and the
// experiment harness use it to verify query correctness.
func BruteForce(feats []metric.Feature, m metric.Metric, q metric.Feature, r float64) []topology.NodeID {
	var out []topology.NodeID
	for u, f := range feats {
		if m.Distance(q, f) <= r {
			out = append(out, topology.NodeID(u))
		}
	}
	return out
}

// TAG models the baseline aggregation scheme [20]: the query is pushed
// down an overlay spanning tree covering the whole network and results
// aggregate back up, so every query costs exactly twice the tree's edges
// regardless of selectivity.
func TAG(g *topology.Graph) cluster.Stats {
	edges := int64(g.N() - 1)
	return cluster.Stats{
		Messages:  2 * edges,
		Breakdown: map[string]int64{"tag": 2 * edges},
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
