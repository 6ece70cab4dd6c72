package sim

import (
	"fmt"
	"testing"

	"elink/internal/topology"
)

// bfsShortestPath is the original implementation: a full O(N+E) BFS per
// routed message plus the smallest-id walk. It is kept here as the
// baseline BenchmarkRouting compares Graph.Walk against:
//
//	go test -run '^$' -bench Routing ./internal/sim
func bfsShortestPath(g *topology.Graph, u, v topology.NodeID) []topology.NodeID {
	d := make([]int, g.N())
	for i := range d {
		d[i] = -1
	}
	d[v] = 0
	queue := []topology.NodeID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj[x] {
			if d[w] < 0 {
				d[w] = d[x] + 1
				queue = append(queue, w)
			}
		}
	}
	if d[u] < 0 {
		return nil
	}
	path := []topology.NodeID{u}
	for cur := u; cur != v; {
		var next topology.NodeID = -1
		for _, w := range g.Adj[cur] {
			if d[w] == d[cur]-1 {
				next = w
				break
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// uncachedRoute replays Network.Route's accounting over a freshly
// BFS-computed path — the executor's behaviour before truncated-BFS
// routing.
func uncachedRoute(n *Network, src, dst topology.NodeID, kind string) {
	path := bfsShortestPath(n.Graph, src, dst)
	var delay float64
	for i := 0; i+1 < len(path); i++ {
		n.counts[kind]++
		n.perNode[path[i]]++
		delay += n.delay.HopDelay(n.rng, path[i], path[i+1])
	}
	n.pushMessage(n.now+delay, src, dst, kind, nil, len(path)-1)
}

func benchDests(g *topology.Graph, k int) []topology.NodeID {
	dests := make([]topology.NodeID, k)
	for i := range dests {
		dests[i] = topology.NodeID((i * g.N()) / k)
	}
	return dests
}

// BenchmarkRouting measures routed-message throughput on grid (the
// paper's Tao layout) topologies, one op per routed message. Sources
// rotate over 64 nodes and destinations over a fixed leader-like set of
// 8, the pattern clustering protocols produce. The arms:
//
//   - walk: Graph.Walk, which runs a truncated BFS from each message's
//     destination on pooled scratch.
//   - bfs: a full BFS and a fresh path per message, the implementation
//     the walk replaced.
func BenchmarkRouting(b *testing.B) {
	topologies := []struct {
		name string
		g    *topology.Graph
	}{
		{"tao-6x9", topology.NewGrid(6, 9)},
		{"grid-32x32", topology.NewGrid(32, 32)},
		{"grid-45x45", topology.NewGrid(45, 45)},
	}
	for _, tc := range topologies {
		srcs := benchDests(tc.g, 64)
		dests := benchDests(tc.g, 8)
		b.Run(fmt.Sprintf("%s/walk", tc.name), func(b *testing.B) {
			n := NewNetwork(tc.g, nil, 1)
			ctx := &nodeCtx{net: n}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.id = srcs[i%len(srcs)]
				ctx.Route(dests[i%len(dests)], "bench", nil)
				n.pq = n.pq[:0] // drop the delivery event; routing cost only
			}
		})
		b.Run(fmt.Sprintf("%s/bfs", tc.name), func(b *testing.B) {
			n := NewNetwork(tc.g, nil, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				uncachedRoute(n, srcs[i%len(srcs)], dests[i%len(dests)], "bench")
				n.pq = n.pq[:0]
			}
		})
	}
}
