package topology

import (
	"math"
)

// QTCell is one occupied cell of the quadtree decomposition. The node
// closest to the cell centroid is elected leader (paper footnote 1);
// sentinel set S_l is the set of level-l cell leaders.
type QTCell struct {
	Level    int
	Parent   int   // cell id of the enclosing cell, -1 for the root
	Children []int // cell ids of occupied child cells, in quadrant order
	Leader   NodeID
	lo, hi   int // the cell's nodes are the quadtree's order[lo:hi]
}

// Quadtree is the recursive spatial decomposition driving ELink's sentinel
// scheduling. Cells are subdivided until they hold at most one node, so
// every node leads some cell and Σ_l |S_l| covers the whole network.
//
// Cells are numbered in depth-first preorder, children in quadrant order.
// Every cell's nodes are one contiguous range of a single permutation of
// the node ids, and each child's range lies inside its parent's.
type Quadtree struct {
	Cells []QTCell
	Depth int // deepest level with an occupied cell
	order []NodeID
}

// maxQuadtreeDepth bounds subdivision when several nodes share a position.
const maxQuadtreeDepth = 32

// BuildQuadtree decomposes g's bounding square. The box is padded to a
// square so cells stay square at every level.
func BuildQuadtree(g *Graph) *Quadtree {
	min, max := g.BoundingBox()
	side := math.Max(max.X-min.X, max.Y-min.Y)
	if side == 0 {
		side = 1
	}
	side *= 1.0000001 // keep max-coordinate nodes strictly inside
	// Scattered nodes make about 1.7 cells per node (4,309 for the
	// 2500-node Death Valley network), so one allocation usually holds
	// every cell.
	qt := &Quadtree{Cells: make([]QTCell, 0, 2*g.N()+1), order: make([]NodeID, g.N())}
	for i := range qt.order {
		qt.order[i] = NodeID(i)
	}
	qt.subdivide(g, 0, len(qt.order), min.X, min.Y, side, 0, -1)

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
	return qt
}

// Nodes returns the nodes whose position falls in the given cell. The
// slice aliases the quadtree's permutation and must not be modified.
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
