package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridShape(t *testing.T) {
	g := NewGrid(6, 9)
	if g.N() != 54 {
		t.Fatalf("N = %d, want 54", g.N())
	}
	// Interior node has 4 neighbours, corner has 2.
	if deg := len(g.Neighbors(NodeID(1*9 + 1))); deg != 4 {
		t.Errorf("interior degree = %d, want 4", deg)
	}
	if deg := len(g.Neighbors(0)); deg != 2 {
		t.Errorf("corner degree = %d, want 2", deg)
	}
	// Grid edge count: rows*(cols-1) + cols*(rows-1).
	want := 6*8 + 9*5
	if g.Edges() != want {
		t.Errorf("Edges = %d, want %d", g.Edges(), want)
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := NewGraph([]Point{{0, 0}, {1, 0}})
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 0)
	if g.Edges() != 1 {
		t.Errorf("Edges = %d, want 1", g.Edges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 0) {
		t.Error("self loop should be ignored")
	}
}

func TestHopDistancesOnGrid(t *testing.T) {
	g := NewGrid(4, 4)
	d := g.HopDistances(0)
	// Manhattan distance on a grid.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got := d[r*4+c]; got != r+c {
				t.Errorf("hop(0, (%d,%d)) = %d, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := NewGrid(3, 3)
	path := g.ShortestPath(0, 8)
	if len(path) != 5 {
		t.Fatalf("path length = %d, want 5 (4 hops)", len(path))
	}
	if path[0] != 0 || path[len(path)-1] != 8 {
		t.Errorf("path endpoints wrong: %v", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Errorf("path step %v-%v is not an edge", path[i], path[i+1])
		}
	}
	// Determinism.
	again := g.ShortestPath(0, 8)
	for i := range path {
		if path[i] != again[i] {
			t.Fatal("ShortestPath is not deterministic")
		}
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := NewGraph([]Point{{0, 0}, {5, 5}})
	if p := g.ShortestPath(0, 1); p != nil {
		t.Errorf("path across disconnected graph = %v, want nil", p)
	}
	if d := g.HopDistance(0, 1); d != -1 {
		t.Errorf("HopDistance = %d, want -1", d)
	}
}

func TestComponentsOf(t *testing.T) {
	g := NewGrid(1, 6) // path 0-1-2-3-4-5
	comps := g.ComponentsOf([]NodeID{0, 1, 3, 4, 5})
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 1 {
		t.Errorf("first component = %v, want [0 1]", comps[0])
	}
	if len(comps[1]) != 3 || comps[1][0] != 3 {
		t.Errorf("second component = %v, want [3 4 5]", comps[1])
	}
}

func TestBFSTree(t *testing.T) {
	g := NewGrid(3, 3)
	parent := g.BFSTree(4) // center
	if parent[4] != 4 {
		t.Error("root should be its own parent")
	}
	count := 0
	for u := range parent {
		if parent[u] < 0 {
			t.Errorf("node %d unreachable", u)
		}
		if NodeID(u) != 4 {
			if !g.HasEdge(NodeID(u), parent[u]) {
				t.Errorf("tree edge %d-%v not in graph", u, parent[u])
			}
			count++
		}
	}
	if count != 8 {
		t.Errorf("tree edges = %d, want 8", count)
	}
}

func TestRandomGeometricConnectivityAndDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := RandomGeometricForDegree(200, 4, rng)
	if !g.Connected() {
		t.Fatal("graph should be stitched into one component")
	}
	if d := 2 * float64(g.Edges()) / float64(g.N()); d < 2.5 || d > 7 {
		t.Errorf("average degree = %v, want near 4", d)
	}
}

func TestStitchRepairsFragments(t *testing.T) {
	// Tiny radius: initially isolated nodes, stitched into a tree.
	rng := rand.New(rand.NewSource(7))
	g := NewRandomGeometric(30, 100, 0.01, rng)
	if !g.Connected() {
		t.Fatal("stitching failed to connect the graph")
	}
}

func TestBoundingBox(t *testing.T) {
	g := NewGraph([]Point{{1, 5}, {-2, 3}, {4, -1}})
	min, max := g.BoundingBox()
	if min.X != -2 || min.Y != -1 || max.X != 4 || max.Y != 5 {
		t.Errorf("bbox = %v %v", min, max)
	}
}

// Property: hop distances satisfy the triangle inequality over hops and
// symmetry on random connected geometric graphs.
func TestHopDistanceMetricProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGeometricForDegree(40, 5, rng)
		for trial := 0; trial < 10; trial++ {
			u := NodeID(rng.Intn(g.N()))
			v := NodeID(rng.Intn(g.N()))
			w := NodeID(rng.Intn(g.N()))
			duv := g.HopDistance(u, v)
			dvu := g.HopDistance(v, u)
			duw := g.HopDistance(u, w)
			dwv := g.HopDistance(w, v)
			if duv != dvu {
				return false
			}
			if duv > duw+dwv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: ShortestPath length always equals HopDistance + 1.
func TestShortestPathLengthProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGeometricForDegree(35, 4, rng)
		u := NodeID(rng.Intn(g.N()))
		v := NodeID(rng.Intn(g.N()))
		p := g.ShortestPath(u, v)
		return len(p) == g.HopDistance(u, v)+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
