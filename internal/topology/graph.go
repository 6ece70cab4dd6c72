// Package topology models the physical layer of the sensor network: node
// positions, the communication graph, shortest-hop routing, spanning
// trees, and the quadtree decomposition that defines ELink's sentinel
// sets (paper §3.2).
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
)

// NodeID identifies a sensor node. IDs are dense in [0, N).
type NodeID int

// Point is a position on the deployment plane.
type Point struct {
	X, Y float64
}

// Dist returns the euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Graph is an undirected communication graph over positioned nodes.
// Topology is fixed after construction, and Pos is fixed once the graph
// is built. Routing keeps no per-graph state (see HopDistance). The graph
// keeps exactly one memo, its quadtree with ELink's sentinel layout
// (Quadtree), which AddEdge drops. A built Graph is safe for concurrent
// readers: the streaming engine serves queries while ingest computes
// routes, async simulator nodes route over one graph, and concurrent
// ELink runs share one quadtree.
type Graph struct {
	Pos []Point
	Adj [][]NodeID // sorted neighbour lists

	qt atomic.Pointer[Quadtree] // built on first use; see Quadtree
}

// NewGraph returns an edgeless graph over the given positions.
func NewGraph(pos []Point) *Graph {
	return &Graph{Pos: pos, Adj: make([][]NodeID, len(pos))}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Pos) }

// AddEdge inserts the undirected edge {u, v}. Duplicate edges and self
// loops are ignored. It drops the quadtree memo, whose wave paths route
// over the edges; like every mutation it must not race a reader.
func (g *Graph) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	g.qt.Store(nil)
	g.addDirected(u, v)
	g.addDirected(v, u)
}

func (g *Graph) addDirected(u, v NodeID) {
	adj := g.Adj[u]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return
	}
	adj = append(adj, 0)
	copy(adj[i+1:], adj[i:])
	adj[i] = v
	g.Adj[u] = adj
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.Adj[u]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Quadtree returns the quadtree decomposition of the graph (paper §3.2)
// with ELink's sentinel layout: cell leaders, each node's led cells and
// the explicit wave's leader-to-leader paths. None of it depends on δ, so
// the graph builds it on the first call and returns the same pointer
// until AddEdge drops it. Concurrent first callers may each build one;
// all are identical and one is kept.
func (g *Graph) Quadtree() *Quadtree {
	if qt := g.qt.Load(); qt != nil {
		return qt
	}
	qt := buildQuadtree(g)
	if g.qt.CompareAndSwap(nil, qt) {
		return qt
	}
	return g.qt.Load()
}

// Neighbors returns u's neighbour list. The caller must not modify it.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.Adj[u] }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	var deg int
	for _, a := range g.Adj {
		deg += len(a)
	}
	return deg / 2
}

// MaxDegree returns the largest node degree (the paper's constant d).
//
//elink:allow deadexport — the paper's d in elink's Theorem 2 message-bound tests
func (g *Graph) MaxDegree() int {
	var d int
	for _, a := range g.Adj {
		if len(a) > d {
			d = len(a)
		}
	}
	return d
}

// HopDistances returns BFS hop counts from src to every node (-1 when
// unreachable) in a slice the caller owns.
func (g *Graph) HopDistances(src NodeID) []int {
	dist, _ := g.bfs(src)
	return dist
}

// BFSTree returns the BFS spanning-tree parent of every node rooted at
// root: the neighbour that discovered it (parent[root] == root; -1 when
// unreachable).
func (g *Graph) BFSTree(root NodeID) []NodeID {
	_, parent := g.bfs(root)
	return parent
}

// bfs is the one whole-field breadth-first search: each node's hop
// distance from root and its discovery parent, -1 for both when
// unreachable.
func (g *Graph) bfs(root NodeID) ([]int, []NodeID) {
	dist := make([]int, g.N())
	parent := make([]NodeID, g.N())
	for i := range dist {
		dist[i], parent[i] = -1, -1
	}
	dist[root], parent[root] = 0, root
	queue := make([]NodeID, 1, g.N())
	queue[0] = root
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Adj[u] {
			if dist[v] < 0 {
				dist[v], parent[v] = dist[u]+1, u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// Connected reports whether the whole graph is one component.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	d := g.HopDistances(0)
	for _, v := range d {
		if v < 0 {
			return false
		}
	}
	return true
}

// ComponentsOf splits the given node subset into connected components of
// the sub-graph induced by the subset. Components are returned with node
// ids sorted and ordered by their smallest member.
func (g *Graph) ComponentsOf(subset []NodeID) [][]NodeID {
	in := make(map[NodeID]bool, len(subset))
	for _, u := range subset {
		in[u] = true
	}
	seen := make(map[NodeID]bool, len(subset))
	var comps [][]NodeID
	ordered := append([]NodeID(nil), subset...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, start := range ordered {
		if seen[start] {
			continue
		}
		comp := []NodeID{start}
		seen[start] = true
		for i := 0; i < len(comp); i++ {
			for _, v := range g.Adj[comp[i]] {
				if in[v] && !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// BoundingBox returns the axis-aligned bounding box of all node positions.
func (g *Graph) BoundingBox() (min, max Point) {
	if g.N() == 0 {
		return Point{}, Point{}
	}
	min, max = g.Pos[0], g.Pos[0]
	for _, p := range g.Pos[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return min, max
}

// NewGrid builds a rows x cols grid network with unit spacing and
// 4-neighbour (von Neumann) connectivity, matching the paper's Tao layout.
func NewGrid(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: invalid grid %dx%d", rows, cols))
	}
	pos := make([]Point, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos[r*cols+c] = Point{X: float64(c), Y: float64(r)}
		}
	}
	g := NewGraph(pos)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := NodeID(r*cols + c)
			if c+1 < cols {
				g.AddEdge(id, id+1)
			}
			if r+1 < rows {
				g.AddEdge(id, NodeID((r+1)*cols+c))
			}
		}
	}
	return g
}

// NewRandomGeometric places n nodes uniformly at random on a side x side
// square and connects pairs within the given radio radius. When the
// result is disconnected it is stitched into one component by linking
// each stray component to its nearest node in the main component — the
// paper's experiments all assume a connected network.
func NewRandomGeometric(n int, side, radius float64, rng *rand.Rand) *Graph {
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	g := NewGraph(pos)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[i].Dist(pos[j]) <= radius {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	stitch(g)
	return g
}

// RandomGeometricForDegree chooses a radius that yields approximately the
// requested average degree (the paper's synthetic data uses ~4 neighbours
// per node) and builds the graph. For average degree d on a unit-density
// square, pi r^2 ≈ d, so r = sqrt(d/pi).
func RandomGeometricForDegree(n int, avgDegree float64, rng *rand.Rand) *Graph {
	side := math.Sqrt(float64(n)) // unit density, as in the paper (rho = 1)
	r := math.Sqrt(avgDegree / math.Pi)
	return NewRandomGeometric(n, side, r, rng)
}

// stitch connects a fragmented graph into a single component by adding,
// for each non-main component, an edge between its node closest to the
// main component and that nearest main-component node.
func stitch(g *Graph) {
	for {
		all := make([]NodeID, g.N())
		for i := range all {
			all[i] = NodeID(i)
		}
		comps := g.ComponentsOf(all)
		if len(comps) <= 1 {
			return
		}
		// Largest component is the main one.
		main := comps[0]
		for _, c := range comps[1:] {
			if len(c) > len(main) {
				main = c
			}
		}
		inMain := make(map[NodeID]bool, len(main))
		for _, u := range main {
			inMain[u] = true
		}
		for _, comp := range comps {
			if inMain[comp[0]] {
				continue
			}
			bu, bv, best := NodeID(-1), NodeID(-1), math.Inf(1)
			for _, u := range comp {
				for _, v := range main {
					if d := g.Pos[u].Dist(g.Pos[v]); d < best {
						bu, bv, best = u, v, d
					}
				}
			}
			g.AddEdge(bu, bv)
		}
	}
}
