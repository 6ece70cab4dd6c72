package topology

import "sync"

// Point queries (HopDistance, Walk, ShortestPath) run a BFS from the
// destination that stops as soon as it labels the source, on reused
// generation-stamped scratch: they keep no per-graph state, build no
// table and do not allocate. Every route steps from each node to its
// smallest-id neighbour one hop closer to the destination, so a route is
// deterministic and a walked route is ShortestPath's path.
//
// A walker's scratch depends only on the node count, so one free list
// serves every graph; a walker grows when it meets a larger graph. Each
// query takes its own walker, so a built Graph answers routes
// concurrently. Unlike sync.Pool the free list never drops a walker, so
// a route allocates nothing under the race detector or after a garbage
// collection either.
var walkers struct {
	sync.Mutex
	free []*walker
}

// HopDistance returns the shortest hop count between u and v, or -1 when
// disconnected.
func (g *Graph) HopDistance(u, v NodeID) int {
	if u == v {
		return 0
	}
	w := getWalker(g.N())
	d := w.search(g, u, v)
	putWalker(w)
	return d
}

// HopDistancesTo returns the hop count from src to each of targets, in
// targets' order (-1 for an unreachable target), appended to out[:0]. It
// runs one BFS from src that stops as soon as every target is labelled;
// targets may repeat and may include src. A reused out makes it
// allocation-free.
func (g *Graph) HopDistancesTo(src NodeID, targets []NodeID, out []int) []int {
	w := getWalker(g.N())
	defer putWalker(w)
	w.searchAll(g, src, targets)
	out = out[:0]
	for _, t := range targets {
		if l := w.labels[t]; l.gen == w.gen {
			out = append(out, int(l.dist))
		} else {
			out = append(out, -1)
		}
	}
	return out
}

// Walk calls hop(from, to) for each hop of the shortest path from u to v,
// in order, and returns the path's hop count (-1 when v is unreachable, in
// which case hop is never called). hop returning false stops the walk
// early; the full hop count is still returned. The path is the one
// ShortestPath returns, walked with no allocation.
func (g *Graph) Walk(u, v NodeID, hop func(from, to NodeID) bool) int {
	if u == v {
		return 0
	}
	w := getWalker(g.N())
	defer putWalker(w)
	d := w.search(g, u, v)
	for cur, k := u, d; k > 0; k-- {
		next := w.next(g, cur, k)
		if !hop(cur, next) {
			break
		}
		cur = next
	}
	return d
}

// ShortestPath returns a shortest hop path from u to v inclusive, or nil
// when disconnected. Ties are broken toward smaller node ids, making the
// route deterministic.
func (g *Graph) ShortestPath(u, v NodeID) []NodeID {
	path := []NodeID{u}
	if g.Walk(u, v, func(_, to NodeID) bool { path = append(path, to); return true }) < 0 {
		return nil
	}
	return path
}

// walker is the scratch of one truncated BFS. A node's label is valid
// only when its gen matches the walker's current generation, so starting
// a new search is one increment: nothing is cleared or allocated per call.
type walker struct {
	gen    uint32
	labels []label
	queue  []NodeID
}

type label struct {
	gen  uint32
	dist int32 // hops to the search's destination
}

// getWalker takes a walker with room for n nodes from the free list; the
// caller returns it with putWalker. Fresh labels carry generation 0,
// which no search uses, so growing keeps gen.
func getWalker(n int) *walker {
	w := takeWalker()
	if len(w.labels) < n {
		w.labels = make([]label, n)
		w.queue = make([]NodeID, 0, n)
	}
	return w
}

func takeWalker() *walker {
	walkers.Lock()
	defer walkers.Unlock()
	if last := len(walkers.free) - 1; last >= 0 {
		w := walkers.free[last]
		walkers.free = walkers.free[:last]
		return w
	}
	return new(walker)
}

func putWalker(w *walker) {
	walkers.Lock()
	walkers.free = append(walkers.free, w)
	walkers.Unlock()
}

// search runs a BFS from dst until it labels src and returns src's hop
// distance (-1 when src is unreachable, after exhausting dst's
// component). BFS labels a node only after every node closer to dst, so
// on return every node within dist-1 hops of dst carries its exact
// distance: enough for next to walk from src down to dst.
func (w *walker) search(g *Graph, src, dst NodeID) int {
	gen := w.newGen()
	w.labels[dst] = label{gen: gen}
	q := append(w.queue[:0], dst)
	for head := 0; head < len(q); head++ {
		x := q[head]
		d := w.labels[x].dist + 1
		for _, y := range g.Adj[x] {
			if w.labels[y].gen == gen {
				continue
			}
			w.labels[y] = label{gen: gen, dist: d}
			if y == src {
				w.queue = q
				return int(d)
			}
			q = append(q, y)
		}
	}
	w.queue = q
	return -1
}

// searchAll runs a BFS from src until it labels every target (or
// exhausts src's component). Targets are first marked with a generation
// of their own, one below the search's, so a target's first label is
// counted once however often it repeats in targets.
func (w *walker) searchAll(g *Graph, src NodeID, targets []NodeID) {
	mark := w.newGen()
	gen := w.newGen()
	if gen < mark { // wrapped between the two: the marks were cleared
		mark = w.newGen()
		gen = w.newGen()
	}
	left := 0
	for _, t := range targets {
		if w.labels[t].gen != mark {
			w.labels[t].gen = mark
			left++
		}
	}
	if w.labels[src].gen == mark {
		left--
	}
	w.labels[src] = label{gen: gen}
	q := append(w.queue[:0], src)
	for head := 0; head < len(q) && left > 0; head++ {
		x := q[head]
		d := w.labels[x].dist + 1
		for _, y := range g.Adj[x] {
			switch w.labels[y].gen {
			case gen:
				continue
			case mark:
				left--
			}
			w.labels[y] = label{gen: gen, dist: d}
			q = append(q, y)
		}
	}
	w.queue = q
}

// newGen starts a new generation, so every existing label goes stale.
func (w *walker) newGen() uint32 {
	w.gen++
	if w.gen == 0 { // wrapped: stale labels could alias the new generation
		clear(w.labels)
		w.gen = 1
	}
	return w.gen
}

// next returns cur's smallest-id neighbour at distance k-1 from the last
// search's destination, where k >= 1 is cur's own distance. Neighbour
// lists are sorted, so the first match is the smallest id.
func (w *walker) next(g *Graph, cur NodeID, k int) NodeID {
	want := label{gen: w.gen, dist: int32(k - 1)}
	for _, y := range g.Adj[cur] {
		if w.labels[y] == want {
			return y
		}
	}
	panic("topology: truncated BFS left a path node unlabelled")
}
