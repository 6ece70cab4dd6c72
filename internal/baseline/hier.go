package baseline

import (
	"fmt"
	"math"
	"slices"

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
//
// All per-cluster state is indexed by cluster label (the smallest member
// id), and each cluster's members form an intrusive list, so rounds
// reuse their scratch and a merge relabels only the absorbed side. Each
// round walks the labels in ascending order and probes every adjacent
// larger label, so pairs come out in (i, j) order, and the probe hop
// counts from one root come from a single truncated BFS.
func Hierarchical(g *topology.Graph, cfg HierConfig) (*cluster.Result, error) {
	n := g.N()
	if len(cfg.Features) != n {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), n)
	}

	root := make([]int, n) // cluster label per node (smallest member id)
	// Per label: its member list (head/next, -1 ends it; head -1 once
	// absorbed), diameter bound m, representative node and best merge
	// candidate. bestRound and doneRound are round stamps and seen a
	// per-scan stamp, so no state is cleared between rounds.
	head, next, size := make([]int, n), make([]int, n), make([]int, n)
	diam := make([]float64, n)
	croot := make([]topology.NodeID, n)
	bestOther, bestRound := make([]int, n), make([]int, n)
	bestFit := make([]float64, n)
	doneRound, seen := make([]int, n), make([]int, n)
	scan := 0
	for i := 0; i < n; i++ {
		root[i], head[i], next[i], size[i] = i, i, -1, 1
		croot[i] = topology.NodeID(i)
		bestRound[i], doneRound[i] = -1, -1
	}
	var nbrs []int
	var targets []topology.NodeID
	var hops []int

	stats := cluster.Stats{Breakdown: make(map[string]int64)}
	charge := func(kind string, cost int64) {
		stats.Breakdown[kind] += cost
		stats.Messages += cost
	}
	offer := func(round, i, j int, fitness float64) {
		if bestRound[i] != round || fitness < bestFit[i] || (fitness == bestFit[i] && j < bestOther[i]) {
			bestRound[i], bestOther[i], bestFit[i] = round, j, fitness
		}
	}

	for round := 0; ; round++ {
		// Every adjacent root pair (i < j), in (i, j) order, negotiates
		// diameter and fitness.
		adjacent := false
		for i := 0; i < n; i++ {
			if head[i] < 0 {
				continue
			}
			scan++
			nbrs = nbrs[:0]
			for u := head[i]; u >= 0; u = next[u] {
				for _, v := range g.Neighbors(topology.NodeID(u)) {
					if j := root[v]; j > i && seen[j] != scan {
						seen[j] = scan
						nbrs = append(nbrs, j)
					}
				}
			}
			if len(nbrs) == 0 {
				continue
			}
			adjacent = true
			slices.Sort(nbrs)
			targets = targets[:0]
			for _, j := range nbrs {
				targets = append(targets, croot[j])
			}
			ri := croot[i]
			hops = g.HopDistancesTo(ri, targets, hops)
			for k, j := range nbrs {
				rj := croot[j]
				charge("probe", 2*int64(hops[k]))
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
				offer(round, i, j, mij)
				offer(round, j, i, mij)
			}
		}
		if !adjacent {
			break
		}
		// Members report adjacent foreign clusters up their trees: one
		// message per node.
		charge("report", int64(n))

		// Mutually-best pairs merge, in ascending label order.
		merged := false
		for i := 0; i < n; i++ {
			if bestRound[i] != round {
				continue
			}
			j := bestOther[i]
			if doneRound[i] == round || doneRound[j] == round {
				continue
			}
			if bestRound[j] != round || bestOther[j] != i {
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
			charge("merge", int64(size[lo]+size[hi]))
			tail := -1
			for u := head[hi]; u >= 0; u = next[u] {
				root[u] = lo
				tail = u
			}
			next[tail] = head[lo]
			head[lo], head[hi] = head[hi], -1
			size[lo] += size[hi]
			diam[lo] = bestFit[i]
			croot[lo] = newRoot
			doneRound[i], doneRound[j] = round, round
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
