package baseline

import (
	"fmt"
	"math"
	"sort"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// HierConfig parameterizes the distributed hierarchical baseline (§8.3).
type HierConfig struct {
	Delta    float64
	Metric   metric.Metric
	Features []metric.Feature
}

// Hierarchical runs the round-based agglomerative baseline: every node
// starts as a singleton cluster; in each round, neighbouring clusters
// whose merged diameter bound m_i + d(F_ri, F_rj) + m_j stays within δ
// evaluate the merge fitness m_ij, and mutually-best candidate pairs
// merge. Rounds repeat until no merger is possible.
//
// The merge logic is executed centrally here, but the communication each
// round would cost is charged faithfully (that accounting is exactly why
// the paper reports this algorithm scaling poorly, Fig 13):
//
//   - per round, every cluster's members report adjacent foreign clusters
//     up the cluster tree to the root: |C| "report" messages per cluster;
//   - every adjacent root pair negotiates diameter/fitness: 2 routed
//     messages of hop-distance cost between the roots;
//   - every accepted merger broadcasts the new root and diameter to all
//     members of both clusters: |C_i| + |C_j| "merge" messages.
//
// Time and message complexity are O(N²) in the worst case (the paper's
// stated bound).
func Hierarchical(g *topology.Graph, cfg HierConfig) (*cluster.Result, error) {
	n := g.N()
	if len(cfg.Features) != n {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), n)
	}

	// Cluster state: root id per cluster; diameter bound m; member lists.
	root := make([]int, n) // cluster label per node (smallest member id)
	for i := range root {
		root[i] = i
	}
	members := make(map[int][]topology.NodeID, n)
	diam := make(map[int]float64, n)          // bound on root-to-member distance
	croot := make(map[int]topology.NodeID, n) // cluster representative node
	for i := 0; i < n; i++ {
		members[i] = []topology.NodeID{topology.NodeID(i)}
		diam[i] = 0
		croot[i] = topology.NodeID(i)
	}

	stats := cluster.Stats{Breakdown: make(map[string]int64)}
	charge := func(kind string, cost int64) {
		stats.Breakdown[kind] += cost
		stats.Messages += cost
	}

	for round := 0; ; round++ {
		// Discover adjacent cluster pairs; members report up their trees.
		adj := make(map[[2]int]bool)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(topology.NodeID(u)) {
				a, b := root[u], root[int(v)]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				adj[[2]int{a, b}] = true
			}
		}
		if len(adj) == 0 {
			break
		}
		for _, mem := range members {
			charge("report", int64(len(mem)))
		}

		// Fitness evaluation between adjacent roots.
		type cand struct {
			other   int
			fitness float64
		}
		best := make(map[int]cand)
		pairs := make([][2]int, 0, len(adj))
		for p := range adj {
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, p := range pairs {
			i, j := p[0], p[1]
			ri, rj := croot[i], croot[j]
			charge("probe", 2*int64(g.HopDistance(ri, rj)))
			d := cfg.Metric.Distance(cfg.Features[ri], cfg.Features[rj])
			if diam[i]+d+diam[j] > cfg.Delta {
				continue // rule each other out (§8.3)
			}
			var mij float64
			if diam[i] >= diam[j] {
				mij = math.Max(diam[i], diam[j]+d)
			} else {
				mij = math.Max(diam[j], diam[i]+d)
			}
			if c, ok := best[i]; !ok || mij < c.fitness || (mij == c.fitness && j < c.other) {
				best[i] = cand{other: j, fitness: mij}
			}
			if c, ok := best[j]; !ok || mij < c.fitness || (mij == c.fitness && i < c.other) {
				best[j] = cand{other: i, fitness: mij}
			}
		}

		// Mutually-best pairs merge.
		merged := false
		done := make(map[int]bool)
		labels := make([]int, 0, len(best))
		for l := range best {
			labels = append(labels, l)
		}
		sort.Ints(labels)
		for _, i := range labels {
			ci := best[i]
			j := ci.other
			if done[i] || done[j] {
				continue
			}
			if cj, ok := best[j]; !ok || cj.other != i {
				continue
			}
			// Merge under the label of the smaller id; the surviving
			// representative is the root whose side gives the better
			// radius bound (the fitness formula's case split).
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			var newRoot topology.NodeID
			if diam[i] >= diam[j] {
				newRoot = croot[i]
			} else {
				newRoot = croot[j]
			}
			charge("merge", int64(len(members[lo])+len(members[hi])))
			for _, u := range members[hi] {
				root[u] = lo
			}
			members[lo] = append(members[lo], members[hi]...)
			delete(members, hi)
			diam[lo] = best[i].fitness
			croot[lo] = newRoot
			delete(diam, hi)
			delete(croot, hi)
			done[i], done[j] = true, true
			merged = true
		}
		stats.Time = float64(round + 1)
		if !merged {
			break
		}
	}

	c := cluster.FromAssignment(root)
	for ci, mem := range c.Members {
		c.Roots[ci] = croot[root[mem[0]]]
	}
	return &cluster.Result{Clustering: c.SplitDisconnected(g), Stats: stats}, nil
}
