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
	"cmp"
	"fmt"
	"math"
	"slices"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// ClusterIndex is one cluster of the index: its root and members. The
// cluster's M-tree lives in the Index's node-indexed arrays.
type ClusterIndex struct {
	Root    topology.NodeID
	Members []topology.NodeID
}

// BackboneEdge connects two cluster roots on the backbone tree.
type BackboneEdge struct {
	A, B topology.NodeID
	Hops int
}

// RootedBackbone is the backbone rooted once per connected component, as
// arrays indexed by cluster ordinal. Each component is rooted at its
// lowest cluster ordinal and occupies one contiguous run of Order.
type RootedBackbone struct {
	// Order lists every cluster parents-before-children (breadth-first
	// per component); component c is Order[CompStart[c]:CompStart[c+1]].
	Order     []int
	CompStart []int
	// Parent is each cluster's backbone parent (itself at a component
	// root), and Hops the hop weight of the edge to it (0 at a root).
	Parent []int
	Hops   []int64
	// Comp is each cluster's component, and CompHops each component's
	// total edge weight: the cost of one flood of that component.
	Comp     []int
	CompHops []int64
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

	// Backbone holds the spanning forest over cluster roots in Kruskal
	// order; Rooted is the same forest rooted for traversal.
	Backbone []BackboneEdge
	Rooted   RootedBackbone

	// BuildStats charges index aggregation and backbone construction.
	BuildStats cluster.Stats

	// The cluster trees, flat and indexed by node id: each node's tree
	// parent (itself at a cluster root) and depth, and its children as
	// kids[kidOff[u]:kidOff[u+1]] in the order they were discovered.
	parent []topology.NodeID
	depth  []int
	kidOff []int
	kids   []topology.NodeID

	// order lists every node children-before-parents (each cluster's
	// reversed BFS order), the schedule of a bottom-up aggregation.
	order    []topology.NodeID
	maxDepth int
}

// Build constructs the index over an existing clustering. Only the
// clustering's Members and Roots are read. The clusters must be
// non-empty, connected and partition the nodes, and every cluster's root
// must be a member, or -1 to root it at its first member. Malformed
// input (a snapshot's clustering included) is an error, never a panic.
func Build(g *topology.Graph, c *cluster.Clustering, feats []metric.Feature, m metric.Metric) (*Index, error) {
	n := g.N()
	if len(feats) != n {
		return nil, fmt.Errorf("index: %d features for %d nodes", len(feats), n)
	}
	owned := make([]metric.Feature, n)
	for i, f := range feats {
		owned[i] = f.Clone()
	}
	idx := &Index{
		Graph:      g,
		Metric:     m,
		Features:   owned,
		Radius:     make([]float64, n),
		ClusterOf:  make([]int, n),
		BuildStats: cluster.Stats{Breakdown: make(map[string]int64)},
		parent:     make([]topology.NodeID, n),
		depth:      make([]int, n),
	}
	for u := range idx.ClusterOf {
		idx.ClusterOf[u] = -1
		idx.parent[u] = -1
	}
	for ci, members := range c.Members {
		if len(members) == 0 {
			return nil, fmt.Errorf("index: cluster %d has no members", ci)
		}
		for _, u := range members {
			if int(u) < 0 || int(u) >= n {
				return nil, fmt.Errorf("index: cluster %d member %d outside [0,%d)", ci, u, n)
			}
			if prev := idx.ClusterOf[u]; prev >= 0 {
				return nil, fmt.Errorf("index: node %d is in clusters %d and %d", u, prev, ci)
			}
			idx.ClusterOf[u] = ci
		}
	}
	for u, ci := range idx.ClusterOf {
		if ci < 0 {
			return nil, fmt.Errorf("index: node %d is in no cluster", u)
		}
	}
	// Hang each cluster on a BFS tree from its root. bfs collects every
	// cluster's visit order; a node's children are discovered together,
	// in neighbour order, so they are contiguous in it.
	bfs := make([]topology.NodeID, 0, n)
	for ci, members := range c.Members {
		root := c.Roots[ci]
		if root == -1 {
			root = members[0]
		}
		if root < 0 || int(root) >= n || idx.ClusterOf[root] != ci {
			return nil, fmt.Errorf("index: cluster %d: root %d is not a member", ci, root)
		}
		idx.Clusters = append(idx.Clusters, &ClusterIndex{Root: root, Members: append([]topology.NodeID(nil), members...)})
		start := len(bfs)
		idx.parent[root] = root
		bfs = append(bfs, root)
		for qi := start; qi < len(bfs); qi++ {
			u := bfs[qi]
			for _, v := range g.Neighbors(u) {
				if idx.ClusterOf[v] == ci && idx.parent[v] < 0 {
					idx.parent[v] = u
					idx.depth[v] = idx.depth[u] + 1
					bfs = append(bfs, v)
				}
			}
		}
		if got := len(bfs) - start; got != len(members) {
			return nil, fmt.Errorf("index: cluster %d: cluster rooted at %d is not connected (%d of %d reachable)", ci, root, got, len(members))
		}
		// One upward report per tree edge.
		idx.charge("index", int64(len(members)-1))
	}
	idx.kidOff = make([]int, n+1)
	for u, p := range idx.parent {
		if int(p) != u {
			idx.kidOff[p+1]++
		}
	}
	for u := 0; u < n; u++ {
		idx.kidOff[u+1] += idx.kidOff[u]
	}
	idx.kids = make([]topology.NodeID, idx.kidOff[n])
	fill := append([]int(nil), idx.kidOff[:n]...)
	for _, v := range bfs {
		if p := idx.parent[v]; p != v {
			idx.kids[fill[p]] = v
			fill[p]++
		}
	}
	idx.layout()
	for _, u := range idx.order {
		idx.Radius[u] = idx.coverRadius(u)
	}
	idx.buildBackbone()
	idx.rootBackbone()
	return idx, nil
}

// Clustering returns the clustering the index was built over, clusters
// in Build's order with their resolved roots: Build over it and the same
// features reproduces the index exactly. The result is a fresh copy.
func (idx *Index) Clustering() *cluster.Clustering {
	c := &cluster.Clustering{Assign: append([]int(nil), idx.ClusterOf...)}
	for _, cl := range idx.Clusters {
		c.Members = append(c.Members, append([]topology.NodeID(nil), cl.Members...))
		c.Roots = append(c.Roots, cl.Root)
	}
	return c
}

// layout derives the aggregation order and the maximum depth from the
// cluster trees' child lists: each cluster breadth-first from its root,
// reversed so children precede parents.
func (idx *Index) layout() {
	idx.order = make([]topology.NodeID, 0, len(idx.parent))
	idx.maxDepth = 0
	for _, cl := range idx.Clusters {
		start := len(idx.order)
		idx.order = append(idx.order, cl.Root)
		for qi := start; qi < len(idx.order); qi++ {
			u := idx.order[qi]
			idx.maxDepth = max(idx.maxDepth, idx.depth[u])
			idx.order = append(idx.order, idx.Children(u)...)
		}
		slices.Reverse(idx.order[start:])
	}
}

// coverRadius computes u's covering radius from its own feature and its
// children's summaries (feature, radius).
func (idx *Index) coverRadius(u topology.NodeID) float64 {
	r := 0.0
	for _, ch := range idx.Children(u) {
		if cd := idx.Metric.Distance(idx.Features[u], idx.Features[ch]) + idx.Radius[ch]; cd > r {
			r = cd
		}
	}
	return r
}

func (idx *Index) charge(kind string, cost int64) {
	idx.BuildStats.Breakdown[kind] += cost
	idx.BuildStats.Messages += cost
}

// buildBackbone links adjacent clusters' roots into a spanning tree,
// choosing hop-cheap edges first (Kruskal over the cluster adjacency).
// Clusters in distinct graph components (possible only on disconnected
// deployments) get their own backbone trees.
func (idx *Index) buildBackbone() {
	type cedge struct {
		a, b int // cluster ordinals
		hops int
	}
	// Each adjacent cluster pair a < b is listed once, from a's members;
	// listedBy[b] == a+1 marks b as already listed for a.
	var edges []cedge
	listedBy := make([]int, len(idx.Clusters))
	for a, cl := range idx.Clusters {
		for _, u := range cl.Members {
			for _, v := range idx.Graph.Neighbors(u) {
				b := idx.ClusterOf[v]
				if b <= a || listedBy[b] == a+1 {
					continue
				}
				listedBy[b] = a + 1
				edges = append(edges, cedge{a: a, b: b, hops: idx.Graph.HopDistance(cl.Root, idx.Clusters[b].Root)})
			}
		}
	}
	slices.SortFunc(edges, func(x, y cedge) int {
		return cmp.Or(cmp.Compare(x.hops, y.hops), cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	uf := newUnionFind(len(idx.Clusters))
	for _, e := range edges {
		if !uf.union(e.a, e.b) {
			continue
		}
		idx.Backbone = append(idx.Backbone, BackboneEdge{A: idx.Clusters[e.a].Root, B: idx.Clusters[e.b].Root, Hops: e.hops})
		idx.charge("backbone", int64(e.hops))
	}
}

// unionFind tracks the components of a growing forest.
type unionFind []int

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = i
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// union joins a's and b's components, reporting false when they were
// already one (the edge would close a cycle).
func (uf unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf[ra] = rb
	return true
}

// rootBackbone roots the backbone forest once per component, at the
// component's lowest cluster ordinal, into idx.Rooted. The backbone is
// a forest over cluster roots because Build makes it one by Kruskal.
func (idx *Index) rootBackbone() {
	k := len(idx.Clusters)
	off := make([]int, k+1)
	for _, e := range idx.Backbone {
		off[idx.ClusterOf[e.A]+1]++
		off[idx.ClusterOf[e.B]+1]++
	}
	for c := 0; c < k; c++ {
		off[c+1] += off[c]
	}
	adj := make([]int, off[k]) // backbone edge indices by cluster
	fill := append([]int(nil), off[:k]...)
	for i, e := range idx.Backbone {
		for _, c := range [2]int{idx.ClusterOf[e.A], idx.ClusterOf[e.B]} {
			adj[fill[c]] = i
			fill[c]++
		}
	}
	rb := RootedBackbone{
		Order:  make([]int, 0, k),
		Parent: make([]int, k),
		Hops:   make([]int64, k),
		Comp:   make([]int, k),
	}
	for c := range rb.Parent {
		rb.Parent[c] = -1
	}
	for c0 := 0; c0 < k; c0++ {
		if rb.Parent[c0] >= 0 {
			continue
		}
		comp := len(rb.CompStart)
		rb.CompStart = append(rb.CompStart, len(rb.Order))
		rb.Parent[c0], rb.Comp[c0] = c0, comp
		rb.Order = append(rb.Order, c0)
		var total int64
		for qi := rb.CompStart[comp]; qi < len(rb.Order); qi++ {
			c := rb.Order[qi]
			for _, ei := range adj[off[c]:off[c+1]] {
				e := idx.Backbone[ei]
				o := idx.ClusterOf[e.A]
				if o == c {
					o = idx.ClusterOf[e.B]
				}
				if rb.Parent[o] >= 0 {
					continue // c's own parent: a forest has no other visited neighbour
				}
				rb.Parent[o], rb.Hops[o], rb.Comp[o] = c, int64(e.Hops), comp
				total += int64(e.Hops)
				rb.Order = append(rb.Order, o)
			}
		}
		rb.CompHops = append(rb.CompHops, total)
	}
	rb.CompStart = append(rb.CompStart, len(rb.Order))
	idx.Rooted = rb
}

// Depth returns node u's hop depth in its cluster tree.
func (idx *Index) Depth(u topology.NodeID) int { return idx.depth[u] }

// Children returns node u's children in its cluster tree. The slice is
// the index's own and must not be modified.
func (idx *Index) Children(u topology.NodeID) []topology.NodeID {
	return idx.kids[idx.kidOff[u]:idx.kidOff[u+1]:idx.kidOff[u+1]]
}

// Validate checks the covering-radius invariant: every member's feature
// lies within the radius of every ancestor on its cluster tree. It is the
// invariant all query pruning rests on.
func (idx *Index) Validate() error {
	for ci, cl := range idx.Clusters {
		for _, u := range cl.Members {
			for a := u; idx.parent[a] != a; {
				a = idx.parent[a]
				d := idx.Metric.Distance(idx.Features[a], idx.Features[u])
				if d > idx.Radius[a]+1e-9 {
					return fmt.Errorf("index: cluster %d: node %d at distance %v from ancestor %d exceeds radius %v",
						ci, u, d, a, idx.Radius[a])
				}
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
