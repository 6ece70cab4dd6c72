package query

import (
	"sort"

	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/topology"
)

// The map-based Range and Path that the flat-array queries replaced,
// kept as references: per-cluster entry maps, a backbone adjacency map
// walked recursively from the initiator's root, an answered-root set,
// and a sorted match list. They copy each node's children and depth out
// of the index once, so they share none of the flat layout under test.

// refEntry is one node's M-tree slot: its children and its depth.
type refEntry struct {
	Children []topology.NodeID
	Depth    int
}

// refIndex is the map-based view of an index.
type refIndex struct {
	idx         *index.Index
	entries     map[topology.NodeID]*refEntry
	backboneAdj map[topology.NodeID][]index.BackboneEdge
}

func newRefIndex(idx *index.Index) *refIndex {
	ri := &refIndex{
		idx:         idx,
		entries:     make(map[topology.NodeID]*refEntry),
		backboneAdj: make(map[topology.NodeID][]index.BackboneEdge),
	}
	for _, cl := range idx.Clusters {
		for _, u := range cl.Members {
			ri.entries[u] = &refEntry{Children: append([]topology.NodeID(nil), idx.Children(u)...), Depth: idx.Depth(u)}
		}
	}
	for _, e := range idx.Backbone {
		ri.backboneAdj[e.A] = append(ri.backboneAdj[e.A], e)
		ri.backboneAdj[e.B] = append(ri.backboneAdj[e.B], e)
	}
	return ri
}

func rangeRef(ri *refIndex, q metric.Feature, r float64, initiator topology.NodeID) *RangeResult {
	idx := ri.idx
	res := &RangeResult{Stats: cluster.Stats{Breakdown: make(map[string]int64)}}
	charge := func(kind string, cost int64) {
		res.Stats.Breakdown[kind] += cost
		res.Stats.Messages += cost
	}
	charge(KindQueryRoute, 2*int64(ri.entries[initiator].Depth))
	start := idx.Clusters[idx.ClusterOf[initiator]].Root
	ri.walkBackbone(start, -1, func(e index.BackboneEdge) {
		charge(KindBackbone, int64(e.Hops))
	})
	answered := make(map[topology.NodeID]bool)
	for ci := range idx.Clusters {
		root := idx.Clusters[ci].Root
		dRoot := idx.Metric.Distance(q, idx.Features[root])
		before := len(res.Matches)
		switch {
		case dRoot > r+idx.Radius[root]:
			res.ClustersExcluded++
			continue
		case dRoot <= r-idx.Radius[root]:
			res.ClustersIncluded++
			res.Matches = append(res.Matches, idx.Clusters[ci].Members...)
		default:
			res.ClustersSearched++
			res.Matches = ri.descend(res.Matches, root, q, r, charge)
		}
		if len(res.Matches) > before {
			answered[root] = true
		}
	}
	charge(KindBackbone, ri.backboneReturnCost(start, answered))
	sort.Slice(res.Matches, func(i, j int) bool { return res.Matches[i] < res.Matches[j] })
	return res
}

func (ri *refIndex) backboneReturnCost(start topology.NodeID, answered map[topology.NodeID]bool) int64 {
	if len(answered) == 0 {
		return 0
	}
	var cost int64
	var walk func(node, parent topology.NodeID) bool
	walk = func(node, parent topology.NodeID) bool {
		carries := answered[node]
		for _, e := range ri.backboneAdj[node] {
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

func (ri *refIndex) descend(out []topology.NodeID, u topology.NodeID, q metric.Feature, r float64, charge func(string, int64)) []topology.NodeID {
	idx := ri.idx
	du := idx.Metric.Distance(q, idx.Features[u])
	if du <= r {
		out = append(out, u)
	}
	for _, ch := range ri.entries[u].Children {
		rch := idx.Radius[ch]
		dch := idx.Metric.Distance(idx.Features[u], idx.Features[ch])
		if abs(du-dch) > r+rch {
			continue
		}
		if du+dch <= r-rch {
			out = ri.appendSubtree(out, ch)
			continue
		}
		charge(KindDescend, 2)
		out = ri.descend(out, ch, q, r, charge)
	}
	return out
}

func (ri *refIndex) appendSubtree(out []topology.NodeID, u topology.NodeID) []topology.NodeID {
	out = append(out, u)
	for _, ch := range ri.entries[u].Children {
		out = ri.appendSubtree(out, ch)
	}
	return out
}

func (ri *refIndex) walkBackbone(node, parent topology.NodeID, visit func(index.BackboneEdge)) {
	for _, e := range ri.backboneAdj[node] {
		other := e.A
		if other == node {
			other = e.B
		}
		if other == parent {
			continue
		}
		visit(e)
		ri.walkBackbone(other, node, visit)
	}
}

func pathRef(ri *refIndex, danger metric.Feature, gamma float64, src, dst topology.NodeID) *PathResult {
	idx := ri.idx
	res := &PathResult{Stats: cluster.Stats{Breakdown: make(map[string]int64)}}
	charge := func(kind string, cost int64) {
		res.Stats.Breakdown[kind] += cost
		res.Stats.Messages += cost
	}
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
			ri.classify(root, danger, gamma, safe, charge)
		}
	}
	charge(KindQueryRoute, int64(ri.entries[src].Depth))
	if !safe[src] || !safe[dst] {
		return res
	}
	ri.walkBackbone(idx.Clusters[idx.ClusterOf[src]].Root, -1, func(e index.BackboneEdge) {
		if ri.clusterHasSafe(e.A, safe) && ri.clusterHasSafe(e.B, safe) {
			charge(KindBackbone, int64(e.Hops))
		}
	})
	path := safeBFSRef(idx.Graph, safe, src, dst)
	if path == nil {
		return res
	}
	res.Path = path
	res.Found = true
	charge(KindQueryRoute, int64(len(path)-1))
	return res
}

func (ri *refIndex) classify(u topology.NodeID, danger metric.Feature, gamma float64, safe []bool, charge func(string, int64)) {
	idx := ri.idx
	if idx.Metric.Distance(idx.Features[u], danger) >= gamma {
		safe[u] = true
	}
	for _, ch := range ri.entries[u].Children {
		d := idx.Metric.Distance(idx.Features[ch], danger)
		switch {
		case d > gamma+idx.Radius[ch]:
			for _, v := range ri.appendSubtree(nil, ch) {
				safe[v] = true
			}
		case d <= gamma-idx.Radius[ch]:
		default:
			charge(KindDescend, 2)
			ri.classify(ch, danger, gamma, safe, charge)
		}
	}
}

func (ri *refIndex) clusterHasSafe(root topology.NodeID, safe []bool) bool {
	for _, u := range ri.idx.Clusters[ri.idx.ClusterOf[root]].Members {
		if safe[u] {
			return true
		}
	}
	return false
}

func safeBFSRef(g *topology.Graph, safe []bool, src, dst topology.NodeID) []topology.NodeID {
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
