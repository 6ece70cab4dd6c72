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
	"math/bits"

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
// starting from the given initiator node. Its phases — backbone flood,
// per-cluster prune/descend, answer aggregation — are traced as children
// of sp (nil sp: untraced; span methods are nil-safe).
func Range(idx *index.Index, q metric.Feature, r float64, initiator topology.NodeID, sp *obs.Span) *RangeResult {
	res := &RangeResult{}
	sc := getScratch(idx)
	defer putScratch(sc)

	// Initiator -> its cluster root, and the answer back at the end.
	route := 2 * int64(idx.Depth(initiator))

	// The query floods the backbone tree from the initiator's root (one
	// traversal of every edge in its component); the aggregation return
	// pass is charged afterwards, only on edges that carry answers —
	// roots whose clusters were pruned suppress their (empty) replies.
	bs := sp.Child("q-backbone")
	start := idx.ClusterOf[initiator]
	comp := idx.Rooted.Comp[start]
	bone := idx.Rooted.CompHops[comp]
	bs.Finish()

	cs := sp.Child("q-clusters")
	rs := rangeSearch{idx: idx, q: q, r: r, bits: sc.bits}
	for ci, cl := range idx.Clusters {
		root := cl.Root
		dRoot := idx.Metric.Distance(q, idx.Features[root])
		before := rs.matched
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
			for _, u := range cl.Members {
				rs.mark(u)
			}
		default:
			res.ClustersSearched++
			rs.descend(root, dRoot)
		}
		// Answers ride back on the descent replies (already charged); a
		// wholesale inclusion is answered by the root directly, which is
		// exactly the saving the δ-compactness pruning buys (§7.2).
		if rs.matched > before {
			sc.count[ci] = 1
		}
	}
	cs.Finish()

	// Aggregation return pass over the backbone: each edge on the path
	// from an answering root toward the initiator's root carries one
	// message.
	as := sp.Child("q-aggregate")
	sc.count[start] = 1
	bone += replyCost(&idx.Rooted, comp, sc.count)
	if rs.matched > 0 {
		res.Matches = make([]topology.NodeID, 0, rs.matched)
		for w, word := range sc.bits {
			for ; word != 0; word &= word - 1 {
				res.Matches = append(res.Matches, topology.NodeID(w<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	as.Finish()

	res.Stats = costStats(route, bone, rs.tree, true)
	return res
}

// costStats assembles a query's cost from its per-kind totals. The
// breakdown always holds the route charge, holds the backbone charge
// when the backbone was charged at all, and the descent charge when the
// query drilled any M-tree edge.
func costStats(route, bone, tree int64, boneCharged bool) cluster.Stats {
	st := cluster.Stats{Messages: route + bone + tree, Breakdown: make(map[string]int64, 3)}
	st.Breakdown[KindQueryRoute] = route
	if boneCharged {
		st.Breakdown[KindBackbone] = bone
	}
	if tree > 0 {
		st.Breakdown[KindDescend] = tree
	}
	return st
}

// replyCost sums the hop weights of the backbone edges in component comp
// that lie on a path from an answering cluster root to the initiator's
// root. count holds 1 for each answering cluster and for the initiator's
// cluster, 0 elsewhere, and is consumed. One sweep up the rooted
// component accumulates subtree counts: the edge above a subtree
// carries a reply iff the subtree holds some but not all of the marked
// clusters, i.e. separates an answering root from the initiator's.
func replyCost(rb *index.RootedBackbone, comp int, count []int) int64 {
	order := rb.Order[rb.CompStart[comp]:rb.CompStart[comp+1]]
	total := 0
	for _, c := range order {
		total += count[c]
	}
	var cost int64
	for i := len(order) - 1; i > 0; i-- { // order[0] is the component root
		c := order[i]
		if k := count[c]; k > 0 && k < total {
			cost += rb.Hops[c]
		}
		count[rb.Parent[c]] += count[c]
	}
	return cost
}

// rangeSearch is one range query's M-tree search state: matches go into
// a node bitset, and descent messages add up in tree.
type rangeSearch struct {
	idx     *index.Index
	q       metric.Feature
	r       float64
	bits    []uint64
	matched int
	tree    int64
}

func (rs *rangeSearch) mark(u topology.NodeID) {
	rs.bits[u>>6] |= 1 << (u & 63)
	rs.matched++
}

// descend runs the M-tree search below node u, which has already been
// reached and lies at feature distance du from the query; reaching a
// child costs one message down and its reply one up.
func (rs *rangeSearch) descend(u topology.NodeID, du float64) {
	idx := rs.idx
	if du <= rs.r {
		rs.mark(u)
	}
	for _, ch := range idx.Children(u) {
		rch := idx.Radius[ch]
		dch := idx.Metric.Distance(idx.Features[u], idx.Features[ch])
		// Prune the child subtree from the parent's stored child info —
		// no message needed (§7.1's |d(q,F_i)-d(F_i,F_j)| > r+R_j rule).
		if abs(du-dch) > rs.r+rch {
			continue
		}
		// Include the whole child subtree without descending.
		if du+dch <= rs.r-rch {
			rs.markSubtree(ch)
			continue
		}
		rs.tree += 2 // one hop down, the answer back up
		rs.descend(ch, idx.Metric.Distance(rs.q, idx.Features[ch]))
	}
}

// markSubtree marks every node of the cluster subtree rooted at u.
func (rs *rangeSearch) markSubtree(u topology.NodeID) {
	rs.mark(u)
	for _, ch := range rs.idx.Children(u) {
		rs.markSubtree(ch)
	}
}

// BruteForce computes the exact answer set centrally; the tests of this
// package and of internal/stream verify query answers against it.
//
//elink:allow deadexport — the range-query oracle that tests of two packages share
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
