package query

import (
	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/topology"
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
// final hop-level path resolved inside the safe subgraph. Both phases
// are traced as children of sp (nil sp: untraced; span methods are
// nil-safe).
func Path(idx *index.Index, danger metric.Feature, gamma float64, src, dst topology.NodeID, sp *obs.Span) *PathResult {
	res := &PathResult{}
	sc := getScratch(idx)
	defer putScratch(sc)

	// Classify clusters; collect the safe node set and, per cluster,
	// whether it holds any safe node.
	cs := sp.Child("q-classify")
	pc := pathClassify{idx: idx, danger: danger, gamma: gamma, safe: sc.safe}
	for ci, cl := range idx.Clusters {
		root := cl.Root
		d := idx.Metric.Distance(idx.Features[root], danger)
		switch {
		case d > gamma+idx.Radius[root]:
			res.ClustersSafe++
			for _, u := range cl.Members {
				sc.safe[u] = true
			}
			sc.hasSafe[ci] = true
		case d <= gamma-idx.Radius[root]:
			res.ClustersUnsafe++
		default:
			res.ClustersMixed++
			sc.hasSafe[ci] = pc.classify(root, d)
		}
	}
	cs.Finish()

	// The source routes the query to its cluster root; if the source
	// itself is unsafe there is no safe path.
	route := int64(idx.Depth(src))
	if !sc.safe[src] || !sc.safe[dst] {
		res.Stats = costStats(route, 0, pc.tree, false)
		return res
	}

	// Search the safe subgraph. The coordination travels over the safe
	// backbone (charged once per backbone edge between clusters that
	// contain safe nodes), and the answer is the hop path itself.
	ss := sp.Child("q-search")
	defer ss.Finish()
	rb := &idx.Rooted
	comp := rb.Comp[idx.ClusterOf[src]]
	var bone int64
	boneCharged := false
	for _, c := range rb.Order[rb.CompStart[comp]+1 : rb.CompStart[comp+1]] {
		if sc.hasSafe[c] && sc.hasSafe[rb.Parent[c]] {
			bone += rb.Hops[c]
			boneCharged = true
		}
	}

	path := sc.safeBFS(idx.Graph, sc.safe, src, dst)
	if path != nil {
		res.Path = path
		res.Found = true
		// Tracing the path back to the source costs its length (§7.3).
		route += int64(len(path) - 1)
	}
	res.Stats = costStats(route, bone, pc.tree, boneCharged)
	return res
}

// pathClassify is one path query's M-tree drill state: safe nodes are
// marked in safe, and drill messages add up in tree.
type pathClassify struct {
	idx    *index.Index
	danger metric.Feature
	gamma  float64
	safe   []bool
	tree   int64
}

// classify drills a mixed subtree rooted at u, whose feature lies at
// distance d from the danger feature, down the M-tree, stopping wherever
// the covering radius resolves a whole subtree. Each drill into a child
// costs one message down and one up. It reports whether it marked any
// node safe.
func (pc *pathClassify) classify(u topology.NodeID, d float64) bool {
	idx := pc.idx
	found := false
	if d >= pc.gamma {
		pc.safe[u] = true
		found = true
	}
	for _, ch := range idx.Children(u) {
		dch := idx.Metric.Distance(idx.Features[ch], pc.danger)
		switch {
		case dch > pc.gamma+idx.Radius[ch]:
			pc.markSafe(ch)
			found = true
		case dch <= pc.gamma-idx.Radius[ch]:
			// Entire subtree unsafe.
		default:
			pc.tree += 2
			if pc.classify(ch, dch) {
				found = true
			}
		}
	}
	return found
}

// markSafe marks every node of the cluster subtree rooted at u safe.
func (pc *pathClassify) markSafe(u topology.NodeID) {
	pc.safe[u] = true
	for _, ch := range pc.idx.Children(u) {
		pc.markSafe(ch)
	}
}

// safeBFS finds a shortest hop path between src and dst through safe
// nodes only, on sc's predecessor and queue arrays.
func (sc *scratch) safeBFS(g *topology.Graph, safe []bool, src, dst topology.NodeID) []topology.NodeID {
	n := g.N()
	if cap(sc.prev) < n {
		sc.prev = make([]topology.NodeID, n)
	}
	prev := sc.prev[:n]
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := append(sc.queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
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
	sc.queue = queue
	if prev[dst] < 0 {
		return nil
	}
	hops := 0
	for u := dst; u != src; u = prev[u] {
		hops++
	}
	out := make([]topology.NodeID, hops+1)
	for i, u := hops, dst; i >= 0; i, u = i-1, prev[u] {
		out[i] = u
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

	sc := takeScratch()
	defer putScratch(sc)
	path := sc.safeBFS(g, safe, src, dst)
	if path == nil {
		return res
	}
	res.Path = path
	res.Found = true
	res.Stats.Breakdown["trace"] += int64(len(path) - 1)
	res.Stats.Messages += int64(len(path) - 1)
	return res
}
