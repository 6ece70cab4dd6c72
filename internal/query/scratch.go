package query

import (
	"sync"

	"elink/internal/index"
	"elink/internal/topology"
)

// scratch is one query's working memory, sized to its index and
// recycled so that a query allocates only its result. Queries run
// concurrently against published snapshots; each takes its own scratch.
type scratch struct {
	bits  []uint64 // range: matched nodes, one bit per node
	count []int    // range: marked clusters, then subtree counts

	safe    []bool            // path: nodes known safe
	hasSafe []bool            // path: clusters holding a safe node
	prev    []topology.NodeID // path: BFS predecessors
	queue   []topology.NodeID // path: BFS queue
}

// scratchPool is a free list of scratches, one per query in flight at
// its busiest. Unlike sync.Pool it never drops its contents, so a
// query's allocations stay the same under the race detector and
// across garbage collections.
var scratchPool struct {
	sync.Mutex
	free []*scratch
}

// getScratch takes a scratch from the pool, sized and zeroed for idx.
// The caller returns it with putScratch.
func getScratch(idx *index.Index) *scratch {
	sc := takeScratch()
	n, k := idx.Graph.N(), len(idx.Clusters)
	sc.bits = zeroed(sc.bits, (n+63)/64)
	sc.count = zeroed(sc.count, k)
	sc.safe = zeroed(sc.safe, n)
	sc.hasSafe = zeroed(sc.hasSafe, k)
	return sc
}

func takeScratch() *scratch {
	scratchPool.Lock()
	defer scratchPool.Unlock()
	if last := len(scratchPool.free) - 1; last >= 0 {
		sc := scratchPool.free[last]
		scratchPool.free = scratchPool.free[:last]
		return sc
	}
	return new(scratch)
}

func putScratch(sc *scratch) {
	scratchPool.Lock()
	scratchPool.free = append(scratchPool.free, sc)
	scratchPool.Unlock()
}

// zeroed returns s resized to n elements, all zero, reusing its array
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
