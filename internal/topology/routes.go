package topology

import (
	"sync"
	"sync/atomic"
)

// DefaultRouteTables bounds the graph-attached routing cache: at most this
// many per-root tables are kept, evicting the least recently used. Each
// table costs ~16 bytes per node, so the default caps the cache at
// 256·16·N bytes (~10 MB on the paper's 2500-node deployments).
const DefaultRouteTables = 256

// Routes is a concurrency-safe shortest-hop router over an immutable
// graph. It answers two kinds of request differently:
//
//   - Whole fields (Distances, Path, and Graph.HopDistances) build
//     the destination's full BFS table once: the hop-distance and
//     deterministic-parent arrays. Tables are kept under an LRU bound so
//     very large deployments cannot accumulate O(N²) routing state.
//   - Point queries (Dist, Walk) run a truncated BFS from the destination
//     that stops as soon as it labels the source, on pooled
//     generation-stamped scratch, so they neither build nor consult a
//     table and do not allocate. Protocols route to thousands of distinct
//     destinations, which would thrash a table cache.
//
// Determinism: every route steps from each node to its smallest-id
// neighbour one hop closer to the destination — exactly
// Graph.ShortestPath's tie-breaking — so a walked route and a table's
// path are the same path.
//
// Concurrency: the table registry is guarded by an RWMutex held only for
// map access; BFS builds run outside it (at most once per root, via the
// table's sync.Once) and built tables are immutable shared state. Each
// truncated BFS takes its own scratch from a sync.Pool.
type Routes struct {
	g     *Graph
	max   int
	clock atomic.Uint64 // recency stamps for LRU eviction
	walks sync.Pool     // *walker scratch for truncated BFS

	mu     sync.RWMutex
	tables map[NodeID]*routeTable
}

// NewRoutes builds an empty routing cache over g holding at most
// maxTables per-root tables (maxTables <= 0 means DefaultRouteTables).
// The cache snapshots g's topology lazily: it must not be used across
// AddEdge calls (graphs in this repository are immutable once built; the
// graph-attached instance from Graph.Routes is dropped on AddEdge).
func NewRoutes(g *Graph, maxTables int) *Routes {
	if maxTables <= 0 {
		maxTables = DefaultRouteTables
	}
	r := &Routes{g: g, max: maxTables, tables: make(map[NodeID]*routeTable)}
	r.walks.New = func() any { return newWalker(g.N()) }
	return r
}

// routeTable is the BFS field of one root: hop distances from every node
// to the root and each node's deterministic next hop toward it. A built
// table is immutable, so holders may keep using it after eviction.
type routeTable struct {
	g    *Graph
	root NodeID
	used atomic.Uint64
	once sync.Once

	dist   []int    // hops to root; -1 when unreachable
	parent []NodeID // next hop toward root; root at the root, -1 unreachable
}

func (t *routeTable) build() {
	g, root := t.g, t.root
	dist := g.bfs(root)
	parent := make([]NodeID, g.N())
	for u := range parent {
		parent[u] = -1
	}
	parent[root] = root
	for u := range parent {
		d := dist[u]
		if d <= 0 {
			continue // root or unreachable
		}
		// Neighbour lists are sorted, so the first neighbour one hop
		// closer is the smallest id — ShortestPath's exact tie-break.
		for _, w := range g.Adj[u] {
			if dist[w] == d-1 {
				parent[u] = w
				break
			}
		}
	}
	t.dist, t.parent = dist, parent
}

// Dist returns the hop distance from u to the root (-1 if unreachable).
func (t *routeTable) Dist(u NodeID) int { return t.dist[u] }

// Next returns u's next hop toward the root: the smallest-id neighbour
// one hop closer. It returns the root at the root and -1 when u cannot
// reach it.
func (t *routeTable) Next(u NodeID) NodeID { return t.parent[u] }

// Distances returns the full hop-distance array from the root. The
// caller must not modify it.
func (t *routeTable) Distances() []int { return t.dist }

// table returns the built routing table rooted at root, constructing it
// on first use. The BFS runs outside the registry lock; concurrent
// callers for the same root share one build.
func (r *Routes) table(root NodeID) *routeTable {
	r.mu.RLock()
	t := r.tables[root]
	r.mu.RUnlock()
	if t == nil {
		t = r.insert(root)
	}
	t.used.Store(r.clock.Add(1))
	t.once.Do(t.build)
	return t
}

// insert registers a table entry for root, evicting the least recently
// used entry when the bound is exceeded. Eviction only unlinks the table
// from the registry; existing holders keep a valid immutable table.
func (r *Routes) insert(root NodeID) *routeTable {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.tables[root]; t != nil {
		return t
	}
	t := &routeTable{g: r.g, root: root}
	r.tables[root] = t
	for len(r.tables) > r.max {
		var victim NodeID = -1
		oldest := ^uint64(0)
		for id, cand := range r.tables {
			if id == root {
				continue
			}
			if u := cand.used.Load(); u < oldest {
				victim, oldest = id, u
			}
		}
		if victim < 0 {
			break
		}
		delete(r.tables, victim)
	}
	return t
}

// Cached returns how many per-root tables the registry currently holds.
func (r *Routes) Cached() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tables)
}

// Dist returns the shortest hop count between u and v (-1 when
// disconnected), from a truncated BFS rooted at v.
func (r *Routes) Dist(u, v NodeID) int {
	if u == v {
		return 0
	}
	w := r.walks.Get().(*walker)
	d := w.search(r.g, u, v)
	r.walks.Put(w)
	return d
}

// Walk calls hop(from, to) for each hop of the shortest path from u to v,
// in order, and returns the path's hop count (-1 when v is unreachable, in
// which case hop is never called). hop returning false stops the walk
// early; the full hop count is still returned. The path is the one Path
// returns, walked over a truncated BFS from v with no allocation.
func (r *Routes) Walk(u, v NodeID, hop func(from, to NodeID) bool) int {
	if u == v {
		return 0
	}
	w := r.walks.Get().(*walker)
	defer r.walks.Put(w)
	d := w.search(r.g, u, v)
	for cur, k := u, d; k > 0; k-- {
		next := w.next(r.g, cur, k)
		if !hop(cur, next) {
			break
		}
		cur = next
	}
	return d
}

// Path returns the shortest hop path from u to v inclusive, or nil when
// disconnected, with ties broken toward smaller node ids — byte-identical
// to Graph.ShortestPath. It builds (or reuses) the full table rooted at
// v, since path callers typically route many sources to one sink.
func (r *Routes) Path(u, v NodeID) []NodeID {
	t := r.table(v)
	d := t.Dist(u)
	if d < 0 {
		return nil
	}
	path := make([]NodeID, 0, d+1)
	for cur := u; ; cur = t.Next(cur) {
		path = append(path, cur)
		if cur == v {
			return path
		}
	}
}

// Distances returns hop distances from root to every node (-1 when
// unreachable). The caller must not modify the returned slice.
func (r *Routes) Distances(root NodeID) []int {
	return r.table(root).Distances()
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

func newWalker(n int) *walker {
	return &walker{labels: make([]label, n), queue: make([]NodeID, 0, n)}
}

// search runs a BFS from dst until it labels src and returns src's hop
// distance (-1 when src is unreachable, after exhausting dst's
// component). BFS labels a node only after every node closer to dst, so
// on return every node within dist-1 hops of dst carries its exact
// distance: enough for next to walk from src down to dst.
func (w *walker) search(g *Graph, src, dst NodeID) int {
	w.gen++
	if w.gen == 0 { // wrapped: stale labels could alias the new generation
		clear(w.labels)
		w.gen = 1
	}
	gen := w.gen
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

// next returns cur's smallest-id neighbour at distance k-1 from the last
// search's destination, where k >= 1 is cur's own distance. Neighbour
// lists are sorted, so the first match is ShortestPath's tie-break.
func (w *walker) next(g *Graph, cur NodeID, k int) NodeID {
	want := label{gen: w.gen, dist: int32(k - 1)}
	for _, y := range g.Adj[cur] {
		if w.labels[y] == want {
			return y
		}
	}
	panic("topology: truncated BFS left a path node unlabelled")
}
