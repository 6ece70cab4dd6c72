package topology

import (
	"math"
	"slices"
	"sync"
)

// QTCell is one occupied cell of the quadtree decomposition. The node
// closest to the cell centroid is elected leader (paper footnote 1);
// sentinel set S_l is the set of level-l cell leaders.
type QTCell struct {
	Level    int
	Parent   int   // cell id of the enclosing cell, -1 for the root
	Children []int // cell ids of occupied child cells, in quadrant order
	Leader   NodeID
	Deepest  int // deepest occupied level in the cell's subtree
	lo, hi   int // the cell's nodes are the quadtree's order[lo:hi]
}

// Quadtree is the recursive spatial decomposition driving ELink's sentinel
// scheduling. Cells are subdivided until they hold at most one node, so
// every node leads some cell and Σ_l |S_l| covers the whole network.
//
// Cells are numbered in depth-first preorder, children in quadrant order.
// Every cell's nodes are one contiguous range of a single permutation of
// the node ids, and each child's range lies inside its parent's.
//
// A Quadtree depends only on its graph, never on δ, so the graph builds
// it once (Graph.Quadtree) and every ELink run on that graph shares it.
// It is read-only after construction apart from the wave paths, which
// are laid on first request under a sync.Once, so concurrent runs may
// share it.
type Quadtree struct {
	Cells []QTCell
	Depth int // deepest level with an occupied cell
	order []NodeID

	// Cells each node leads, shallowest first: node u's are
	// ledCells[ledStart[u]:ledStart[u+1]].
	ledStart []int
	ledCells []int

	// Explicit ELink's synchronization wave routes between the same leader
	// pairs round after round and run after run, so their paths are laid
	// out once. For each cell c that pair accepts, c's up path runs from
	// ℓ(c) to ℓ(parent) and is paths[pathOff[c]:pathOff[c+1]]; the down
	// path runs back from ℓ(parent) to ℓ(c) and has the same length, so
	// the down paths follow the up paths with the same offsets shifted by
	// the up half's size, pathOff[len(Cells)]. Other cells' ranges are
	// empty. Implicit and unordered runs never ask, so they never lay them.
	g       *Graph
	wave    sync.Once
	pathOff []int32
	paths   []NodeID
}

// maxQuadtreeDepth bounds subdivision when several nodes share a position.
const maxQuadtreeDepth = 32

// buildQuadtree decomposes g's bounding square. The box is padded to a
// square so cells stay square at every level.
func buildQuadtree(g *Graph) *Quadtree {
	lo, hi := g.BoundingBox()
	side := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	if side == 0 {
		side = 1
	}
	side *= 1.0000001 // keep max-coordinate nodes strictly inside
	// Scattered nodes make about 1.7 cells per node (4,296 for the
	// 2500-node Death Valley network), so one allocation usually holds
	// every cell.
	qt := &Quadtree{Cells: make([]QTCell, 0, 2*g.N()+1), order: make([]NodeID, g.N()), g: g}
	for i := range qt.order {
		qt.order[i] = NodeID(i)
	}
	qt.subdivide(g, 0, len(qt.order), lo.X, lo.Y, side, 0, -1)

	// One backing array holds every child list. Preorder numbering puts
	// each parent's children in ascending id, which is quadrant order.
	start := make([]int, len(qt.Cells)+1)
	for _, c := range qt.Cells[1:] {
		start[c.Parent+1]++
	}
	for i := range qt.Cells {
		start[i+1] += start[i]
	}
	kids := make([]int, len(qt.Cells)-1)
	for i := range qt.Cells {
		qt.Cells[i].Children = kids[start[i]:start[i]:start[i+1]]
	}
	for i := 1; i < len(qt.Cells); i++ {
		p := &qt.Cells[qt.Cells[i].Parent]
		p.Children = append(p.Children, i)
	}
	// Children follow their parent, so a reverse sweep carries subtree
	// depths upward.
	for i := len(qt.Cells) - 1; i >= 0; i-- {
		c := &qt.Cells[i]
		c.Deepest = c.Level
		for _, ch := range c.Children {
			c.Deepest = max(c.Deepest, qt.Cells[ch].Deepest)
		}
	}
	qt.bucketLeaders(g.N())
	return qt
}

// bucketLeaders buckets the cells by leader: count, prefix-sum, then fill
// in cell-id order, which is shallowest first along each leader's chain
// of nested cells. (An empty network's lone root cell has no leader.)
func (qt *Quadtree) bucketLeaders(n int) {
	qt.ledStart = make([]int, n+1)
	for i := range qt.Cells {
		if u := qt.Cells[i].Leader; u >= 0 {
			qt.ledStart[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		qt.ledStart[u+1] += qt.ledStart[u]
	}
	qt.ledCells = make([]int, qt.ledStart[n])
	fill := slices.Clone(qt.ledStart[:n])
	for i := range qt.Cells {
		if u := qt.Cells[i].Leader; u >= 0 {
			qt.ledCells[fill[u]] = i
			fill[u]++
		}
	}
}

// CellsLedBy returns the cells u leads, shallowest first. The slice
// aliases the quadtree and must not be modified.
func (qt *Quadtree) CellsLedBy(u NodeID) []int {
	return qt.ledCells[qt.ledStart[u]:qt.ledStart[u+1]:qt.ledStart[u+1]]
}

// UpPath returns the route from cell c's leader to its parent cell's
// leader, both ends included: Graph.ShortestPath's path, laid out on the
// first call for every cell at once. It is empty for the root cell and
// for a cell that shares its parent's leader. The graph must be
// connected; a pair in two components gets a one-node path. The slice
// must not be modified.
func (qt *Quadtree) UpPath(c int) []NodeID {
	qt.wave.Do(qt.layPaths)
	return qt.paths[qt.pathOff[c]:qt.pathOff[c+1]:qt.pathOff[c+1]]
}

// DownPath returns the route from cell c's parent cell's leader back to
// c's leader, laid out and shaped like UpPath's.
func (qt *Quadtree) DownPath(c int) []NodeID {
	qt.wave.Do(qt.layPaths)
	half := qt.pathOff[len(qt.pathOff)-1]
	return qt.paths[half+qt.pathOff[c] : half+qt.pathOff[c+1] : half+qt.pathOff[c+1]]
}

// layPaths fills the path arena: every up path first, walked exactly as
// Graph.Walk routes, then the down half, whose size the up paths fix.
func (qt *Quadtree) layPaths() {
	qt.pathOff = make([]int32, len(qt.Cells)+1)
	var paths []NodeID
	for c := range qt.Cells {
		qt.pathOff[c] = int32(len(paths))
		if from, to, ok := qt.pair(c); ok {
			paths = append(paths, from)
			qt.g.Walk(from, to, func(_, next NodeID) bool {
				paths = append(paths, next)
				return true
			})
		}
	}
	half := len(paths)
	qt.pathOff[len(qt.Cells)] = int32(half)
	qt.paths = append(make([]NodeID, 0, 2*half), paths...)[:2*half]
	for c := range qt.Cells {
		if from, to, ok := qt.pair(c); ok {
			down := qt.paths[half+int(qt.pathOff[c]) : half+int(qt.pathOff[c+1])]
			down[0] = to
			k := 1
			qt.g.Walk(to, from, func(_, next NodeID) bool {
				down[k] = next
				k++
				return true
			})
		}
	}
}

// pair returns the leaders of cell c and of its parent cell when c's
// synchronization messages travel between two nodes.
func (qt *Quadtree) pair(c int) (leader, parentLeader NodeID, ok bool) {
	cell := &qt.Cells[c]
	if cell.Parent < 0 {
		return 0, 0, false
	}
	leader, parentLeader = cell.Leader, qt.Cells[cell.Parent].Leader
	return leader, parentLeader, leader != parentLeader
}

// Nodes returns the nodes whose position falls in the given cell. The
// slice aliases the quadtree's permutation and must not be modified.
//
//elink:allow deadexport — a cell's members, which the quadtree and elink tests check
func (qt *Quadtree) Nodes(cell int) []NodeID {
	c := &qt.Cells[cell]
	return qt.order[c.lo:c.hi]
}

// subdivide records order[lo:hi] as one cell and recurses into its
// occupied quadrants. Each quadrant's nodes are swapped to the front of
// the range still unassigned, so the child is the contiguous range just
// filled; a node no quadrant's half-open bounds admit stays in the parent
// only, after its children.
func (qt *Quadtree) subdivide(g *Graph, lo, hi int, x0, y0, side float64, level, parent int) {
	center := Point{X: x0 + side/2, Y: y0 + side/2}
	id := len(qt.Cells)
	qt.Cells = append(qt.Cells, QTCell{
		Level:  level,
		Parent: parent,
		Leader: electLeader(g, qt.order[lo:hi], center),
		lo:     lo,
		hi:     hi,
	})
	qt.Depth = max(qt.Depth, level)
	if hi-lo <= 1 || level >= maxQuadtreeDepth {
		return
	}
	half := side / 2
	quads := [4][2]float64{
		{x0, y0}, {x0 + half, y0}, {x0, y0 + half}, {x0 + half, y0 + half},
	}
	next := lo
	for _, q := range quads {
		first := next
		for i := next; i < hi; i++ {
			p := g.Pos[qt.order[i]]
			if p.X >= q[0] && p.X < q[0]+half && p.Y >= q[1] && p.Y < q[1]+half {
				qt.order[next], qt.order[i] = qt.order[i], qt.order[next]
				next++
			}
		}
		if next > first {
			qt.subdivide(g, first, next, q[0], q[1], half, level+1, id)
		}
	}
}

// electLeader picks the node closest to the centroid, breaking ties by id.
func electLeader(g *Graph, nodes []NodeID, center Point) NodeID {
	best := NodeID(-1)
	bestD := math.Inf(1)
	for _, u := range nodes {
		d := g.Pos[u].Dist(center)
		if d < bestD || (d == bestD && u < best) {
			best, bestD = u, d
		}
	}
	return best
}
