package topology

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refHopDistances is an independent reference BFS (not the routing code
// under test) matching the documented semantics of HopDistances.
func refHopDistances(g *Graph, src NodeID) []int {
	d := make([]int, g.N())
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj[u] {
			if d[v] < 0 {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return d
}

// refShortestPath replicates the original Graph.ShortestPath walk:
// distances toward the destination, smallest-id tie-breaking.
func refShortestPath(g *Graph, u, v NodeID) []NodeID {
	d := refHopDistances(g, v)
	if d[u] < 0 {
		return nil
	}
	path := []NodeID{u}
	cur := u
	for cur != v {
		var next NodeID = -1
		for _, w := range g.Adj[cur] {
			if d[w] == d[cur]-1 {
				next = w
				break
			}
		}
		if next < 0 {
			return nil
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// refBFSTree is an independent reference for BFSTree: each node's parent
// is the neighbour that first discovers it, scanning sorted neighbour
// lists in queue order.
func refBFSTree(g *Graph, root NodeID) []NodeID {
	parent := make([]NodeID, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	queue := []NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj[u] {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// randomGraph builds a random graph over n nodes with edge probability p.
// It is intentionally NOT stitched, so it can be disconnected.
func randomGraph(n int, p float64, rng *rand.Rand) *Graph {
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	g := NewGraph(pos)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

func pathsEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoutesMatchReference checks HopDistance, ShortestPath and Walk
// against the reference BFS on random graphs, including disconnected
// ones, for every node pair — the exact-equivalence contract the
// simulator's accounting rests on.
func TestRoutesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*Graph{
		NewGrid(5, 7),
		randomGraph(40, 0.08, rng), // sparse, usually disconnected
		randomGraph(30, 0.02, rng), // very sparse, many components
		randomGraph(25, 0.3, rng),  // dense
	}
	for gi, g := range cases {
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				uu, vv := NodeID(u), NodeID(v)
				wantD := refHopDistances(g, uu)[vv]
				if got := g.HopDistance(uu, vv); got != wantD {
					t.Fatalf("graph %d: HopDistance(%d,%d) = %d, want %d", gi, u, v, got, wantD)
				}
				wantP := refShortestPath(g, uu, vv)
				if got := g.ShortestPath(uu, vv); !pathsEqual(got, wantP) {
					t.Fatalf("graph %d: ShortestPath(%d,%d) = %v, want %v", gi, u, v, got, wantP)
				}
				if d, got := walkedPath(g, uu, vv); d != wantD || !pathsEqual(got, wantP) {
					t.Fatalf("graph %d: Walk(%d,%d) = %d hops %v, want %d hops %v", gi, u, v, d, got, wantD, wantP)
				}
			}
		}
	}
}

// TestGraphDelegatesToRoutes pins the Graph-level routing API — the
// whole-field HopDistances and the point queries — to the same reference
// on one graph, every source against every destination.
func TestGraphDelegatesToRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(30, 0.1, rng)
	for u := 0; u < g.N(); u++ {
		wantD := refHopDistances(g, NodeID(u))
		gotD := g.HopDistances(NodeID(u))
		for v := range wantD {
			if gotD[v] != wantD[v] {
				t.Fatalf("HopDistances(%d)[%d] = %d, want %d", u, v, gotD[v], wantD[v])
			}
			if hd := g.HopDistance(NodeID(u), NodeID(v)); hd != wantD[v] {
				t.Fatalf("HopDistance(%d,%d) = %d, want %d", u, v, hd, wantD[v])
			}
			if p := g.ShortestPath(NodeID(u), NodeID(v)); !pathsEqual(p, refShortestPath(g, NodeID(u), NodeID(v))) {
				t.Fatalf("ShortestPath(%d,%d) = %v diverges from reference", u, v, p)
			}
		}
	}
}

// TestHopDistancesCallerOwned checks HopDistances hands out a slice the
// caller owns: overwriting it does not corrupt the next call's field.
func TestHopDistancesCallerOwned(t *testing.T) {
	g := NewGrid(4, 5)
	want := refHopDistances(g, 7)
	d := g.HopDistances(7)
	for i := range d {
		d[i] = -7
	}
	got := g.HopDistances(7)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("HopDistances(7)[%d] = %d after the caller overwrote an earlier result, want %d", v, got[v], want[v])
		}
	}
}

// TestRoutesAddEdgeInvalidates checks that routes follow topology edits
// instead of serving stale distances.
func TestRoutesAddEdgeInvalidates(t *testing.T) {
	g := NewGrid(1, 5) // a path: 0-1-2-3-4
	if d := g.HopDistance(0, 4); d != 4 {
		t.Fatalf("path distance = %d, want 4", d)
	}
	g.AddEdge(0, 4)
	if d := g.HopDistance(0, 4); d != 1 {
		t.Fatalf("distance after AddEdge = %d, want 1", d)
	}
}

// TestRoutesConcurrent routes over one graph from many goroutines, so
// point queries and whole-path collection interleave; run with -race.
// Every observed value must still match the reference.
func TestRoutesConcurrent(t *testing.T) {
	g := NewGrid(8, 8)
	ref := make([][]int, g.N())
	for u := range ref {
		ref[u] = refHopDistances(g, NodeID(u))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				u := NodeID(rng.Intn(g.N()))
				v := NodeID(rng.Intn(g.N()))
				if d := g.HopDistance(u, v); d != ref[v][u] {
					t.Errorf("concurrent HopDistance(%d,%d) = %d, want %d", u, v, d, ref[v][u])
					return
				}
				p := g.ShortestPath(u, v)
				if len(p) != ref[v][u]+1 || p[0] != u || p[len(p)-1] != v {
					t.Errorf("concurrent ShortestPath(%d,%d) = %v (want %d hops)", u, v, p, ref[v][u])
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// geometricGraph places n nodes uniformly on a side×side square and links
// pairs within radius, without NewRandomGeometric's stitching, so low
// radii leave it disconnected.
func geometricGraph(n int, side, radius float64, rng *rand.Rand) *Graph {
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
	return g
}

// walkedPath records the path Walk takes from u to v (nil when
// unreachable) along with its returned hop count.
func walkedPath(g *Graph, u, v NodeID) (int, []NodeID) {
	path := []NodeID{u}
	d := g.Walk(u, v, func(from, to NodeID) bool {
		if from != path[len(path)-1] {
			path = append(path, -2) // a discontinuous walk never matches
		}
		path = append(path, to)
		return true
	})
	if d < 0 {
		return d, nil
	}
	return d, path
}

// checkAllPairs compares every routing query against the references:
// HopDistances and BFSTree from every root, and HopDistance, Walk and
// ShortestPath for every ordered pair, u == v included.
func checkAllPairs(t *testing.T, name string, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		vv := NodeID(v)
		ref := refHopDistances(g, vv)
		if got := g.HopDistances(vv); !intsEqual(got, ref) {
			t.Fatalf("%s: HopDistances(%d) = %v, want %v", name, v, got, ref)
		}
		if got, want := g.BFSTree(vv), refBFSTree(g, vv); !pathsEqual(got, want) {
			t.Fatalf("%s: BFSTree(%d) = %v, want %v", name, v, got, want)
		}
		for u := 0; u < g.N(); u++ {
			uu := NodeID(u)
			if got := g.HopDistance(uu, vv); got != ref[u] {
				t.Fatalf("%s: HopDistance(%d,%d) = %d, want %d", name, u, v, got, ref[u])
			}
			want := refShortestPath(g, uu, vv)
			d, got := walkedPath(g, uu, vv)
			if d != ref[u] || !pathsEqual(got, want) {
				t.Fatalf("%s: Walk(%d,%d) = %d hops %v, want %d hops %v", name, u, v, d, got, ref[u], want)
			}
			if got := g.ShortestPath(uu, vv); !pathsEqual(got, want) {
				t.Fatalf("%s: ShortestPath(%d,%d) = %v, want %v", name, u, v, got, want)
			}
		}
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTruncatedWalkMatchesReference pins every routing query — the point
// queries and the whole fields — to the references on seeded random
// geometric graphs, connected and fragmented.
func TestTruncatedWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := []struct {
		name      string
		n         int
		radius    float64
		connected bool
	}{
		{"connected", 60, 3, true},
		{"fragmented", 60, 1.3, false},
		{"sparse", 40, 0.9, false},
	}
	for _, tc := range cases {
		g := geometricGraph(tc.n, math.Sqrt(float64(tc.n)), tc.radius, rng)
		if g.Connected() != tc.connected {
			t.Fatalf("%s: fixture connected = %v, want %v", tc.name, !tc.connected, tc.connected)
		}
		checkAllPairs(t, tc.name, g)
	}
}

// TestWalkStopsEarly checks a walk cut short by its callback still
// reports the full hop count.
func TestWalkStopsEarly(t *testing.T) {
	g := NewGrid(1, 6)
	calls := 0
	if d := g.Walk(0, 5, func(_, _ NodeID) bool { calls++; return calls < 2 }); d != 5 || calls != 2 {
		t.Fatalf("Walk(0,5) cut after 2 hops = %d hops with %d calls, want 5 and 2", d, calls)
	}
}

// TestTruncatedWalkConcurrent runs point queries from many goroutines
// that alternate between a 6-node and an 80-node graph, so the shared
// walker pool hands scratch across graphs: walkers grow on meeting the
// larger graph and carry stale generations from the other. Run with
// -race. Every answer must match the reference.
func TestTruncatedWalkConcurrent(t *testing.T) {
	graphs := []*Graph{
		geometricGraph(6, 3, 1.6, rand.New(rand.NewSource(20))),
		geometricGraph(80, 9, 1.6, rand.New(rand.NewSource(21))),
	}
	refs := make([][][]int, len(graphs))
	for gi, g := range graphs {
		refs[gi] = make([][]int, g.N())
		for v := range refs[gi] {
			refs[gi][v] = refHopDistances(g, NodeID(v))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				g, ref := graphs[i%2], refs[i%2]
				u, v := NodeID(rng.Intn(g.N())), NodeID(rng.Intn(g.N()))
				if d := g.HopDistance(u, v); d != ref[v][u] {
					t.Errorf("concurrent HopDistance(%d,%d) on %d nodes = %d, want %d", u, v, g.N(), d, ref[v][u])
					return
				}
				if d, p := walkedPath(g, u, v); d != ref[v][u] || !pathsEqual(p, refShortestPath(g, u, v)) {
					t.Errorf("concurrent Walk(%d,%d) on %d nodes = %d hops %v, want %d hops", u, v, g.N(), d, p, ref[v][u])
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// TestHopDistancesToMatchesHopDistance checks every entry of a
// multi-target search against HopDistance on connected and fragmented
// random geometric graphs, with target lists that repeat nodes, include
// the source and reach into other components (-1).
func TestHopDistancesToMatchesHopDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	unreachable := 0
	for _, radius := range []float64{3, 1.3, 0.9} {
		g := geometricGraph(60, math.Sqrt(60), radius, rng)
		var out []int
		for trial := 0; trial < 200; trial++ {
			src := NodeID(rng.Intn(g.N()))
			targets := make([]NodeID, rng.Intn(12))
			for k := range targets {
				switch rng.Intn(5) {
				case 0:
					targets[k] = src
				case 1:
					if k > 0 {
						targets[k] = targets[rng.Intn(k)]
						continue
					}
					fallthrough
				default:
					targets[k] = NodeID(rng.Intn(g.N()))
				}
			}
			out = g.HopDistancesTo(src, targets, out)
			if len(out) != len(targets) {
				t.Fatalf("radius %v: HopDistancesTo(%d, %v) returned %d entries", radius, src, targets, len(out))
			}
			for k, tg := range targets {
				if want := g.HopDistance(src, tg); out[k] != want {
					t.Fatalf("radius %v: HopDistancesTo(%d, %v)[%d] = %d, want HopDistance %d", radius, src, targets, k, out[k], want)
				}
				if out[k] < 0 {
					unreachable++
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no target was unreachable; the fragmented fixtures no longer cover -1")
	}
}

// TestHopDistancesToGenerationWrap starts a multi-target search on a
// walker whose generation counter is about to wrap, at each of the two
// generations it takes, and checks the answers survive the wrap.
func TestHopDistancesToGenerationWrap(t *testing.T) {
	g := NewGrid(4, 5)
	targets := []NodeID{19, 0, 7, 7, 12}
	ref := refHopDistances(g, 0)
	for _, start := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
		w := getWalker(g.N())
		w.gen = start
		for i := range w.labels {
			w.labels[i] = label{gen: start, dist: 99}
		}
		w.searchAll(g, 0, targets)
		for _, tg := range targets {
			if l := w.labels[tg]; l.gen != w.gen || int(l.dist) != ref[tg] {
				t.Errorf("start gen %d: target %d labelled (gen %d, dist %d), want (gen %d, dist %d)", start, tg, l.gen, l.dist, w.gen, ref[tg])
			}
		}
		putWalker(w)
	}
}

// TestHopDistancesToAllocs pins a multi-target search into a reused out
// slice at zero allocations.
func TestHopDistancesToAllocs(t *testing.T) {
	g := NewGrid(16, 16)
	targets := []NodeID{3, 200, 17, 255, 3}
	out := make([]int, 0, len(targets))
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		out = g.HopDistancesTo(NodeID((i*37)%g.N()), targets, out)
		i++
	})
	if allocs != 0 {
		t.Fatalf("HopDistancesTo allocates %v objects per call, want 0", allocs)
	}
}

// TestWalkAllocs pins a steady-state walk at zero allocations: Walk runs
// a truncated BFS on pooled scratch, and explicit ELink lays its wave
// paths with it.
func TestWalkAllocs(t *testing.T) {
	g := NewGrid(16, 16)
	hops := 0
	count := func(_, _ NodeID) bool { hops++; return true }
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		g.Walk(NodeID((i*37)%g.N()), NodeID((i*101+5)%g.N()), count)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Walk allocates %v objects per call, want 0", allocs)
	}
	if hops == 0 {
		t.Fatal("no walk took a hop")
	}
}
