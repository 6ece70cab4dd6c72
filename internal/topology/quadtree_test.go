package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refCell and refQuadtree are a direct quadtree builder: each cell keeps
// its own copy of its node list, and each quadrant's nodes are filtered
// into a fresh slice. buildQuadtree must match it cell for cell.
type refCell struct {
	Level    int
	Parent   int
	Children []int
	Leader   NodeID
	Deepest  int
	Nodes    []NodeID
}

func refQuadtree(g *Graph) (cells []refCell, depth int) {
	lo, hi := g.BoundingBox()
	side := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	if side == 0 {
		side = 1
	}
	side *= 1.0000001
	all := make([]NodeID, g.N())
	for i := range all {
		all[i] = NodeID(i)
	}
	var subdivide func(nodes []NodeID, x0, y0, side float64, level, parent int) int
	subdivide = func(nodes []NodeID, x0, y0, side float64, level, parent int) int {
		center := Point{X: x0 + side/2, Y: y0 + side/2}
		id := len(cells)
		cells = append(cells, refCell{
			Level:   level,
			Parent:  parent,
			Leader:  electLeader(g, nodes, center),
			Deepest: level,
			Nodes:   append([]NodeID(nil), nodes...),
		})
		if len(nodes) <= 1 || level >= maxQuadtreeDepth {
			return id
		}
		half := side / 2
		quads := [4][2]float64{
			{x0, y0}, {x0 + half, y0}, {x0, y0 + half}, {x0 + half, y0 + half},
		}
		for _, q := range quads {
			var sub []NodeID
			for _, u := range nodes {
				p := g.Pos[u]
				if p.X >= q[0] && p.X < q[0]+half && p.Y >= q[1] && p.Y < q[1]+half {
					sub = append(sub, u)
				}
			}
			if len(sub) == 0 {
				continue
			}
			child := subdivide(sub, q[0], q[1], half, level+1, id)
			cells[id].Children = append(cells[id].Children, child)
			cells[id].Deepest = max(cells[id].Deepest, cells[child].Deepest)
		}
		return id
	}
	subdivide(all, lo.X, lo.Y, side, 0, -1)
	for _, c := range cells {
		depth = max(depth, c.Level)
	}
	return cells, depth
}

// sameAsRef reports the first cell where qt differs from the reference
// builder's decomposition of g, or "" when they agree.
func sameAsRef(g *Graph, qt *Quadtree) string {
	ref, depth := refQuadtree(g)
	if len(qt.Cells) != len(ref) || qt.Depth != depth {
		return "cell count or depth differs"
	}
	for i, want := range ref {
		c := qt.Cells[i]
		got := slices.Clone(qt.Nodes(i))
		slices.Sort(got)
		if c.Level != want.Level || c.Parent != want.Parent || c.Leader != want.Leader ||
			c.Deepest != want.Deepest || !slices.Equal(c.Children, want.Children) || !slices.Equal(got, want.Nodes) {
			return "cell differs"
		}
	}
	return ""
}

// TestQuadtreeMatchesReference compares buildQuadtree with refQuadtree on
// seeded random geometric graphs and on small grids. Half the random
// instances stack nodes on shared positions, so subdivision stops at the
// depth cap with several nodes in one leaf cell.
func TestQuadtreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	capped := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		g := RandomGeometricForDegree(n, 3+rng.Float64()*5, rng)
		if trial%2 == 1 {
			for k := rng.Intn(n/2 + 1); k >= 0; k-- {
				g.Pos[rng.Intn(n)] = g.Pos[rng.Intn(n)]
			}
		}
		qt := buildQuadtree(g)
		if msg := sameAsRef(g, qt); msg != "" {
			t.Fatalf("trial %d (n=%d): %s", trial, n, msg)
		}
		if qt.Depth == maxQuadtreeDepth {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("no instance reached the quadtree depth cap; the coincident-position case went untested")
	}
	for _, dims := range [][2]int{{1, 3}, {1, 4}, {2, 2}, {2, 3}, {3, 3}, {4, 4}} {
		g := NewGrid(dims[0], dims[1])
		if msg := sameAsRef(g, buildQuadtree(g)); msg != "" {
			t.Errorf("%dx%d grid: %s", dims[0], dims[1], msg)
		}
	}
}

func TestQuadtreeGrid(t *testing.T) {
	g := NewGrid(4, 4)
	qt := buildQuadtree(g)
	if qt.Cells[0].Level != 0 || len(qt.Nodes(0)) != 16 {
		t.Fatal("root cell malformed")
	}
	if qt.Depth < 2 {
		t.Errorf("depth = %d, want >= 2 for 16 nodes", qt.Depth)
	}
}

// TestQuadtreeSentinelsDisjointCover checks that S_0 is one node and that
// every node leads some cell, so the sentinel sets cover the network.
func TestQuadtreeSentinelsDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Graph{NewGrid(4, 4), RandomGeometricForDegree(60, 4, rng)} {
		qt := buildQuadtree(g)
		leads := make([]bool, g.N())
		s0 := 0
		for _, c := range qt.Cells {
			leads[c.Leader] = true
			if c.Level == 0 {
				s0++
			}
		}
		if s0 != 1 {
			t.Fatalf("%d level-0 cells, want exactly one sentinel in S_0", s0)
		}
		for u, ok := range leads {
			if !ok {
				t.Errorf("node %d never leads a cell", u)
			}
		}
	}
}

func TestQuadtreeCellStructure(t *testing.T) {
	g := NewGrid(4, 4)
	qt := buildQuadtree(g)
	for id, c := range qt.Cells {
		nodes := qt.Nodes(id)
		if c.Parent >= 0 {
			p := qt.Cells[c.Parent]
			if p.Level != c.Level-1 {
				t.Errorf("cell %d level %d has parent at level %d", id, c.Level, p.Level)
			}
			// Child node sets are subsets of the parent's.
			for _, u := range nodes {
				if !slices.Contains(qt.Nodes(c.Parent), u) {
					t.Errorf("cell %d contains node %d not in its parent", id, u)
				}
			}
		}
		// Children partition the occupied nodes of the cell.
		if len(c.Children) > 0 {
			total := 0
			for _, ch := range c.Children {
				total += len(qt.Nodes(ch))
			}
			if total != len(nodes) {
				t.Errorf("cell %d children hold %d nodes, cell holds %d", id, total, len(nodes))
			}
		}
		if !slices.Contains(nodes, c.Leader) {
			t.Errorf("cell %d leader %d not among its nodes", id, c.Leader)
		}
	}
}

func TestQuadtreeSingleNode(t *testing.T) {
	g := NewGraph([]Point{{0, 0}})
	qt := buildQuadtree(g)
	if qt.Depth != 0 || len(qt.Cells) != 1 {
		t.Errorf("single-node quadtree: depth=%d cells=%d", qt.Depth, len(qt.Cells))
	}
	if qt.Cells[0].Leader != 0 {
		t.Error("single node must lead the root cell")
	}
}

// Property: every quadtree level's occupied cells partition the node set
// (each node appears in exactly one cell along its root-to-leaf path per
// level it reaches).
func TestQuadtreeLevelsPartitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGeometricForDegree(25+rng.Intn(50), 4, rng)
		qt := buildQuadtree(g)
		for level := 0; level <= qt.Depth; level++ {
			counts := make(map[NodeID]int)
			for id, c := range qt.Cells {
				if c.Level != level {
					continue
				}
				for _, u := range qt.Nodes(id) {
					counts[u]++
				}
			}
			for _, c := range counts {
				if c != 1 {
					return false
				}
			}
			// Every node either appears at this level or its path bottomed
			// out earlier (its singleton cell is above this level).
			for u := 0; u < g.N(); u++ {
				if counts[NodeID(u)] == 0 {
					// Must be in a leaf cell above this level.
					found := false
					for id, cell := range qt.Cells {
						if cell.Level < level && len(cell.Children) == 0 && slices.Contains(qt.Nodes(id), NodeID(u)) {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// cellsLedByScan is the full scan the leader buckets replace: the ids of
// the cells u leads, in cell-id order.
func cellsLedByScan(qt *Quadtree, u NodeID) []int {
	var out []int
	for id, c := range qt.Cells {
		if c.Leader == u {
			out = append(out, id)
		}
	}
	return out
}

// TestCellsLedByMatchesFullScan checks every node's leader list against
// the full scan over random geometric graphs. Half the instances stack
// nodes on shared positions, so subdivision stops at the quadtree's depth
// cap with several nodes in one leaf cell.
func TestCellsLedByMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	capped := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(300)
		g := RandomGeometricForDegree(n, 4+rng.Float64()*4, rng)
		if trial%2 == 1 {
			for k := rng.Intn(n/2 + 1); k >= 0; k-- {
				g.Pos[rng.Intn(n)] = g.Pos[rng.Intn(n)]
			}
		}
		qt := g.Quadtree()
		for id, c := range qt.Cells {
			if len(c.Children) == 0 && len(qt.Nodes(id)) > 1 {
				capped++
				break
			}
		}
		for u := 0; u < n; u++ {
			got := qt.CellsLedBy(NodeID(u))
			want := cellsLedByScan(qt, NodeID(u))
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, node %d: CellsLedBy = %v, full scan = %v", trial, u, got, want)
			}
		}
	}
	if capped == 0 {
		t.Fatal("no instance reached the quadtree depth cap; the coincident-position case went untested")
	}
}

// checkWavePaths reports the first cell whose laid up or down path is not
// Graph.ShortestPath's route between its leader pair, or whose paths are
// not empty when the cell sends no routed message, or "" when all agree.
func checkWavePaths(g *Graph, qt *Quadtree) string {
	for c, cell := range qt.Cells {
		up, down := qt.UpPath(c), qt.DownPath(c)
		if cell.Parent < 0 || cell.Leader == qt.Cells[cell.Parent].Leader {
			if len(up) != 0 || len(down) != 0 {
				return fmt.Sprintf("cell %d sends no routed message but has paths %v and %v", c, up, down)
			}
			continue
		}
		from, to := cell.Leader, qt.Cells[cell.Parent].Leader
		if want := g.ShortestPath(from, to); !slices.Equal(up, want) {
			return fmt.Sprintf("cell %d up path %v, ShortestPath %v", c, up, want)
		}
		if want := g.ShortestPath(to, from); !slices.Equal(down, want) {
			return fmt.Sprintf("cell %d down path %v, ShortestPath %v", c, down, want)
		}
	}
	return ""
}

// TestQuadtreeMemo checks that a graph builds its quadtree once, that its
// wave paths are Graph.ShortestPath's, that AddEdge drops it, and that
// the rebuilt one lays its paths over the new edge. (elink's
// TestSyncWaveLedgerProperty checks the paths on random graphs.)
func TestQuadtreeMemo(t *testing.T) {
	g := NewGrid(6, 6)
	qt := g.Quadtree()
	if g.Quadtree() != qt {
		t.Fatal("a second call built a second quadtree")
	}
	if msg := checkWavePaths(g, qt); msg != "" {
		t.Fatal(msg)
	}
	g.AddEdge(0, 35)
	fresh := g.Quadtree()
	if fresh == qt {
		t.Fatal("AddEdge kept the quadtree whose paths predate the edge")
	}
	if msg := sameAsRef(g, fresh); msg != "" {
		t.Fatal(msg)
	}
	if msg := checkWavePaths(g, fresh); msg != "" {
		t.Fatal(msg)
	}
}

// BenchmarkBuildQuadtree decomposes a 2500-node random geometric graph of
// average degree 5, the size of the paper's Death Valley network.
func BenchmarkBuildQuadtree(b *testing.B) {
	g := RandomGeometricForDegree(2500, 5, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildQuadtree(g)
	}
}
