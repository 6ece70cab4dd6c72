// Package index builds the distributed index structure of §7.1: an
// M-tree-like hierarchy embedded on each cluster tree, plus the backbone
// spanning tree that connects cluster leaders for query routing.
//
// Each cluster member i carries a routing feature F_i^R (its own feature)
// and a covering radius R_i bounding the feature distance from F_i^R to
// anything in i's cluster subtree. Leaves publish (F_i, 0) to their
// parents; every parent aggregates its children bottom-up. The build
// therefore costs one message per cluster-tree edge. The backbone is a
// minimum spanning tree over adjacent cluster leaders weighted by hop
// distance; its construction cost is charged to the clustering algorithm
// that owns it, per §8.2.
package index

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// Entry is one node's slot in a cluster's index tree. Entries are the
// tree's topology and never change after Build or FromState; the
// node's covering radius lives in Index.Radius.
type Entry struct {
	ID       topology.NodeID
	Parent   topology.NodeID // tree parent (== ID at the root)
	Children []topology.NodeID
	Depth    int // hops to the cluster root along the tree
}

// ClusterIndex is the M-tree of one cluster.
type ClusterIndex struct {
	Root    topology.NodeID
	Members []topology.NodeID
	Entries map[topology.NodeID]*Entry
}

// BackboneEdge connects two cluster roots on the backbone tree.
type BackboneEdge struct {
	A, B topology.NodeID
	Hops int
}

// Index is the complete distributed structure: one M-tree per cluster and
// the leader backbone.
//
// Only Features and Radius change after construction (through Refresh);
// everything else is the index's immutable topology, which Clone shares.
type Index struct {
	Graph    *topology.Graph
	Metric   metric.Metric
	Features []metric.Feature
	// Radius is each node's covering radius over its cluster subtree:
	// the largest feature distance from the node to any descendant.
	Radius []float64

	Clusters  []*ClusterIndex
	ClusterOf []int // node -> cluster ordinal

	// Backbone holds the spanning tree over cluster roots; BackboneAdj
	// indexes it by root for traversal.
	Backbone    []BackboneEdge
	BackboneAdj map[topology.NodeID][]BackboneEdge

	// BuildStats charges index aggregation and backbone construction.
	BuildStats cluster.Stats

	// order lists every entry children-before-parents (each cluster's
	// reversed BFS order), the schedule of a bottom-up aggregation.
	order    []*Entry
	maxDepth int
}

// Build constructs the index over an existing clustering. Every cluster
// must have a recorded root that is a member (true for all clusterings
// produced in this repository).
func Build(g *topology.Graph, c *cluster.Clustering, feats []metric.Feature, m metric.Metric) (*Index, error) {
	if len(feats) != g.N() {
		return nil, fmt.Errorf("index: %d features for %d nodes", len(feats), g.N())
	}
	owned := make([]metric.Feature, len(feats))
	for i, f := range feats {
		owned[i] = f.Clone()
	}
	idx := &Index{
		Graph:       g,
		Metric:      m,
		Features:    owned,
		Radius:      make([]float64, g.N()),
		ClusterOf:   make([]int, g.N()),
		BackboneAdj: make(map[topology.NodeID][]BackboneEdge),
		BuildStats:  cluster.Stats{Breakdown: make(map[string]int64)},
	}
	for ci, members := range c.Members {
		root := c.Roots[ci]
		if root < 0 {
			root = members[0]
		}
		tree, err := buildClusterTree(g, members, root)
		if err != nil {
			return nil, fmt.Errorf("index: cluster %d: %w", ci, err)
		}
		idx.Clusters = append(idx.Clusters, tree)
		idx.addOrder(tree)
		for _, u := range members {
			idx.ClusterOf[u] = ci
		}
		// One upward report per tree edge.
		idx.charge("index", int64(len(members)-1))
	}
	for _, e := range idx.order {
		idx.aggregate(e)
	}
	if err := idx.buildBackbone(c); err != nil {
		return nil, err
	}
	return idx, nil
}

// addOrder appends cl's entries to the aggregation order, children
// before parents, and tracks the deepest entry. It walks cl's child
// lists breadth-first from the root and reverses the visit.
func (idx *Index) addOrder(cl *ClusterIndex) {
	start := len(idx.order)
	idx.order = append(idx.order, cl.Entries[cl.Root])
	for qi := start; qi < len(idx.order); qi++ {
		e := idx.order[qi]
		idx.maxDepth = max(idx.maxDepth, e.Depth)
		for _, ch := range e.Children {
			idx.order = append(idx.order, cl.Entries[ch])
		}
	}
	slices.Reverse(idx.order[start:])
}

// aggregate recomputes e's covering radius from its own feature and its
// children's summaries (feature, radius).
func (idx *Index) aggregate(e *Entry) {
	r := 0.0
	for _, ch := range e.Children {
		if cd := idx.Metric.Distance(idx.Features[e.ID], idx.Features[ch]) + idx.Radius[ch]; cd > r {
			r = cd
		}
	}
	idx.Radius[e.ID] = r
}

func (idx *Index) charge(kind string, cost int64) {
	idx.BuildStats.Breakdown[kind] += cost
	idx.BuildStats.Messages += cost
}

// buildClusterTree hangs the members on a BFS tree from the root.
func buildClusterTree(g *topology.Graph, members []topology.NodeID, root topology.NodeID) (*ClusterIndex, error) {
	in := make(map[topology.NodeID]bool, len(members))
	for _, u := range members {
		in[u] = true
	}
	if !in[root] {
		return nil, fmt.Errorf("root %d is not a member", root)
	}
	ci := &ClusterIndex{
		Root:    root,
		Members: append([]topology.NodeID(nil), members...),
		Entries: make(map[topology.NodeID]*Entry, len(members)),
	}
	ci.Entries[root] = &Entry{ID: root, Parent: root}
	order := []topology.NodeID{root}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for _, v := range g.Neighbors(u) {
			if in[v] && ci.Entries[v] == nil {
				ci.Entries[v] = &Entry{ID: v, Parent: u, Depth: ci.Entries[u].Depth + 1}
				ci.Entries[u].Children = append(ci.Entries[u].Children, v)
				order = append(order, v)
			}
		}
	}
	if len(order) != len(members) {
		return nil, fmt.Errorf("cluster rooted at %d is not connected (%d of %d reachable)", root, len(order), len(members))
	}
	return ci, nil
}

// buildBackbone links adjacent clusters' roots into a spanning tree,
// choosing hop-cheap edges first (Kruskal over the cluster adjacency).
// Clusters in distinct graph components (possible only on disconnected
// deployments) get their own backbone trees.
func (idx *Index) buildBackbone(c *cluster.Clustering) error {
	type cedge struct {
		a, b int // cluster ordinals
		hops int
	}
	seen := make(map[[2]int]bool)
	var edges []cedge
	for u := 0; u < idx.Graph.N(); u++ {
		for _, v := range idx.Graph.Neighbors(topology.NodeID(u)) {
			a, b := idx.ClusterOf[u], idx.ClusterOf[int(v)]
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			ra, rb := idx.Clusters[a].Root, idx.Clusters[b].Root
			edges = append(edges, cedge{a: a, b: b, hops: idx.Graph.HopDistance(ra, rb)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].hops != edges[j].hops {
			return edges[i].hops < edges[j].hops
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	parent := make([]int, len(idx.Clusters))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e.a), find(e.b)
		if ra == rb {
			continue
		}
		parent[ra] = rb
		edge := BackboneEdge{A: idx.Clusters[e.a].Root, B: idx.Clusters[e.b].Root, Hops: e.hops}
		idx.Backbone = append(idx.Backbone, edge)
		idx.BackboneAdj[edge.A] = append(idx.BackboneAdj[edge.A], edge)
		idx.BackboneAdj[edge.B] = append(idx.BackboneAdj[edge.B], edge)
		idx.charge("backbone", int64(e.hops))
	}
	return nil
}

// Depth returns node u's hop depth in its cluster tree.
func (idx *Index) Depth(u topology.NodeID) int {
	return idx.Clusters[idx.ClusterOf[u]].Entries[u].Depth
}

// Validate checks the covering-radius invariant: every member's feature
// lies within the radius of every ancestor on its cluster tree. It is the
// invariant all query pruning rests on.
func (idx *Index) Validate() error {
	for ci, cl := range idx.Clusters {
		for _, u := range cl.Members {
			// Walk ancestors.
			for a := u; ; {
				e := cl.Entries[a]
				d := idx.Metric.Distance(idx.Features[e.ID], idx.Features[u])
				if d > idx.Radius[a]+1e-9 && a != u {
					return fmt.Errorf("index: cluster %d: node %d at distance %v from ancestor %d exceeds radius %v",
						ci, u, d, a, idx.Radius[a])
				}
				if e.Parent == a {
					break
				}
				a = e.Parent
			}
		}
	}
	return nil
}

// MaxDepth returns the deepest entry depth across every cluster tree —
// the worst-case hop count of one M-tree descent, and the index-shape
// gauge the streaming engine publishes per epoch.
func (idx *Index) MaxDepth() int { return idx.maxDepth }

// MaxRadius returns the largest root covering radius; useful to compare
// with δ/2 (the paper's a-priori bound).
func (idx *Index) MaxRadius() float64 {
	r := 0.0
	for ci := range idx.Clusters {
		r = math.Max(r, idx.Radius[idx.Clusters[ci].Root])
	}
	return r
}
