package query

import (
	"sort"

	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/topology"
)

// Safety classifies a cluster (or subtree) against a danger feature.
type Safety int

const (
	// Unsafe: every node violates the safety margin.
	Unsafe Safety = iota
	// Safe: every node satisfies the margin.
	Safe
	// Mixed: the cluster straddles the margin and must be drilled.
	Mixed
)

// PathResult is the answer to a path query plus its cost.
type PathResult struct {
	// Path is a safe node path from source to destination inclusive, nil
	// when no safe path exists.
	Path []topology.NodeID
	// Found reports whether a safe path exists.
	Found bool
	// Stats is the communication cost.
	Stats cluster.Stats
	// ClustersSafe / ClustersUnsafe / ClustersMixed decompose the
	// cluster classification (§7.3).
	ClustersSafe, ClustersUnsafe, ClustersMixed int
}

// Path answers "return a path from src to dst on which every node's
// feature stays at least gamma away from the danger feature" (§7.3).
//
// Clusters are classified with the root index: safe when
// d(F_root, danger) > γ + R_root, unsafe when ≤ γ − R_root, and drilled
// down the M-tree otherwise (each drill step costs messages). The safe
// region is then searched cluster-by-cluster along the backbone, with the
// final hop-level path resolved inside the safe subgraph.
func Path(idx *index.Index, danger metric.Feature, gamma float64, src, dst topology.NodeID) *PathResult {
	return PathSpanned(idx, danger, gamma, src, dst, nil)
}

// PathSpanned is Path with its phases — cluster classification and the
// safe-subgraph search — traced as children of sp (nil sp: no tracing;
// span methods are nil-safe).
func PathSpanned(idx *index.Index, danger metric.Feature, gamma float64, src, dst topology.NodeID, sp *obs.Span) *PathResult {
	res := &PathResult{Stats: cluster.Stats{Breakdown: make(map[string]int64)}}
	charge := func(kind string, cost int64) {
		res.Stats.Breakdown[kind] += cost
		res.Stats.Messages += cost
	}

	// Classify clusters; collect the safe node set.
	cs := sp.Child("q-classify")
	safe := make([]bool, idx.Graph.N())
	for ci := range idx.Clusters {
		root := idx.Clusters[ci].Root
		d := idx.Metric.Distance(idx.Features[root], danger)
		switch {
		case d > gamma+idx.Radius[root]:
			res.ClustersSafe++
			for _, u := range idx.Clusters[ci].Members {
				safe[u] = true
			}
		case d <= gamma-idx.Radius[root]:
			res.ClustersUnsafe++
		default:
			res.ClustersMixed++
			classify(idx, ci, root, danger, gamma, safe, charge)
		}
	}

	cs.Finish()

	// The source routes the query to its cluster root; if the source
	// itself is unsafe there is no safe path.
	charge(KindQueryRoute, int64(idx.Depth(src)))
	if !safe[src] || !safe[dst] {
		return res
	}

	// Search the safe subgraph. The coordination travels over the safe
	// backbone (charged once per backbone edge between clusters that
	// contain safe nodes), and the answer is the hop path itself.
	ss := sp.Child("q-search")
	defer ss.Finish()
	walkBackbone(idx, idx.Clusters[idx.ClusterOf[src]].Root, -1, func(e index.BackboneEdge) {
		if clusterHasSafe(idx, e.A, safe) && clusterHasSafe(idx, e.B, safe) {
			charge(KindBackbone, int64(e.Hops))
		}
	})

	path := safeBFS(idx.Graph, safe, src, dst)
	if path == nil {
		return res
	}
	res.Path = path
	res.Found = true
	// Tracing the path back to the source costs its length (§7.3).
	charge(KindQueryRoute, int64(len(path)-1))
	return res
}

// classify drills a mixed subtree down the M-tree, stopping wherever the
// covering radius resolves a whole subtree. Each drill into a child costs
// one message down and one up.
func classify(idx *index.Index, ci int, u topology.NodeID, danger metric.Feature, gamma float64, safe []bool, charge func(string, int64)) {
	cl := idx.Clusters[ci]
	e := cl.Entries[u]
	if idx.Metric.Distance(idx.Features[u], danger) >= gamma {
		safe[u] = true
	}
	for _, ch := range e.Children {
		d := idx.Metric.Distance(idx.Features[ch], danger)
		switch {
		case d > gamma+idx.Radius[ch]:
			for _, v := range appendSubtree(nil, cl, ch) {
				safe[v] = true
			}
		case d <= gamma-idx.Radius[ch]:
			// Entire subtree unsafe.
		default:
			charge(KindDescend, 2)
			classify(idx, ci, ch, danger, gamma, safe, charge)
		}
	}
}

func clusterHasSafe(idx *index.Index, root topology.NodeID, safe []bool) bool {
	for _, u := range idx.Clusters[idx.ClusterOf[root]].Members {
		if safe[u] {
			return true
		}
	}
	return false
}

// safeBFS finds a shortest hop path between src and dst through safe
// nodes only.
func safeBFS(g *topology.Graph, safe []bool, src, dst topology.NodeID) []topology.NodeID {
	prev := make([]topology.NodeID, g.N())
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, v := range g.Neighbors(u) {
			if safe[v] && prev[v] < 0 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if prev[dst] < 0 {
		return nil
	}
	var rev []topology.NodeID
	for u := dst; ; u = prev[u] {
		rev = append(rev, u)
		if u == src {
			break
		}
	}
	out := make([]topology.NodeID, len(rev))
	for i, u := range rev {
		out[len(rev)-1-i] = u
	}
	return out
}

// BFSFlood is the path-query baseline: src floods the safe region (every
// safe node learns its own safety by evaluating the danger feature
// locally) until the destination is reached, then the path is traced
// back. The flood costs one message per edge incident to each reached
// safe node; the trace-back costs the path length.
func BFSFlood(g *topology.Graph, feats []metric.Feature, m metric.Metric, danger metric.Feature, gamma float64, src, dst topology.NodeID) *PathResult {
	res := &PathResult{Stats: cluster.Stats{Breakdown: make(map[string]int64)}}
	safe := make([]bool, g.N())
	for u := range safe {
		safe[u] = m.Distance(feats[u], danger) >= gamma
	}
	if !safe[src] || !safe[dst] {
		return res
	}
	// Flood: every reached safe node broadcasts once to all neighbours.
	var flood int64
	reached := make([]bool, g.N())
	reached[src] = true
	queue := []topology.NodeID{src}
	order := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		flood += int64(len(g.Neighbors(u)))
		for _, v := range g.Neighbors(u) {
			if safe[v] && !reached[v] {
				reached[v] = true
				queue = append(queue, v)
				order = append(order, v)
			}
		}
	}
	res.Stats.Breakdown["flood"] = flood
	res.Stats.Messages += flood

	path := safeBFS(g, safe, src, dst)
	if path == nil {
		return res
	}
	res.Path = path
	res.Found = true
	res.Stats.Breakdown["trace"] += int64(len(path) - 1)
	res.Stats.Messages += int64(len(path) - 1)
	return res
}

// VerifyPath checks that a returned path is a legal answer: consecutive
// nodes are graph neighbours and every node respects the safety margin.
func VerifyPath(g *topology.Graph, feats []metric.Feature, m metric.Metric, danger metric.Feature, gamma float64, path []topology.NodeID) bool {
	if len(path) == 0 {
		return false
	}
	for i, u := range path {
		if m.Distance(feats[u], danger) < gamma {
			return false
		}
		if i > 0 && !g.HasEdge(path[i-1], u) {
			return false
		}
	}
	return true
}

// SafeSet computes the ground-truth safe node set centrally, for tests.
func SafeSet(feats []metric.Feature, m metric.Metric, danger metric.Feature, gamma float64) []topology.NodeID {
	var out []topology.NodeID
	for u, f := range feats {
		if m.Distance(f, danger) >= gamma {
			out = append(out, topology.NodeID(u))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
