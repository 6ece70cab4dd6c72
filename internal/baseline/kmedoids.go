package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"elink/internal/cluster"
	"elink/internal/detrand"
	"elink/internal/metric"
	"elink/internal/topology"
)

// KMedoidsConfig parameterizes the distributed k-medoids baseline.
type KMedoidsConfig struct {
	Delta    float64
	Metric   metric.Metric
	Features []metric.Feature
	Seed     int64
}

// kmedoidsMaxIter bounds the medoid-refinement rounds per k.
const kmedoidsMaxIter = 15

// KMedoids implements the distributed k-medoids alternative the paper's
// related-work section dismisses as communication intensive (§9): "in
// every iteration, all the medoids would have to be broadcast throughout
// the network so that every node computes its closest medoid." It exists
// here to quantify that argument against ELink.
//
// Cost model per refinement round, following that description:
//
//   - medoid broadcast: the k medoid features flood the whole network —
//     k·N "medoid" messages (every node retransmits each announcement
//     once, the standard flooding cost);
//   - assignment is local;
//   - medoid refresh: every node ships its feature to its medoid over
//     the shortest hop path — Σ hops "refresh" messages.
//
// The search doubles k (then refines) and keeps the smallest clustering
// whose repaired clusters satisfy the δ-condition, mirroring the spectral
// baseline's loop. Clusters are feature-space Voronoi cells, so they are
// split into connected components at the end like every other algorithm.
func KMedoids(g *topology.Graph, cfg KMedoidsConfig) (*cluster.Result, error) {
	n := g.N()
	if len(cfg.Features) != n {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), n)
	}
	rng := detrand.New(cfg.Seed)
	stats := cluster.Stats{Breakdown: make(map[string]int64)}
	charge := func(kind string, cost int64) {
		stats.Breakdown[kind] += cost
		stats.Messages += cost
	}

	run := func(k int) *cluster.Clustering {
		medoids := seedMedoids(cfg.Features, cfg.Metric, k, rng)
		assign := make([]int, n)
		members := make([][]int, k)
		for iter := 0; iter < kmedoidsMaxIter; iter++ {
			// Broadcast the medoid set to every node.
			charge("medoid", int64(k)*int64(n))
			changed := false
			for u := 0; u < n; u++ {
				best, bestD := 0, math.Inf(1)
				for c, m := range medoids {
					if d := cfg.Metric.Distance(cfg.Features[u], cfg.Features[m]); d < bestD {
						best, bestD = c, d
					}
				}
				if assign[u] != best {
					assign[u] = best
					changed = true
				}
			}
			// Members ship features to their medoid for the refresh. One
			// whole hop field per medoid charges all its members (at most
			// k BFS runs per round, not N); one field is held at a time,
			// and memberless medoids cost no BFS.
			for c := range members {
				members[c] = members[c][:0]
			}
			for u, c := range assign {
				members[c] = append(members[c], u)
			}
			for c, us := range members {
				if len(us) == 0 {
					continue
				}
				hops := g.HopDistances(topology.NodeID(medoids[c]))
				var cost int64
				for _, u := range us {
					cost += int64(hops[u])
				}
				charge("refresh", cost)
			}
			if !refreshMedoids(cfg.Features, cfg.Metric, assign, medoids) && !changed {
				break
			}
		}
		return cluster.FromAssignment(assign)
	}

	satisfies := func(c *cluster.Clustering) bool {
		for _, members := range c.Members {
			if !clusterSatisfiesDelta(members, cfg.Features, cfg.Metric, cfg.Delta) {
				return false
			}
		}
		return true
	}

	// Doubling search for the smallest satisfying k, then binary refine.
	lo, hi := 0, 1
	var hiC *cluster.Clustering
	for {
		c := run(hi)
		if satisfies(c) {
			hiC = c
			break
		}
		lo = hi
		hi *= 2
		if hi >= n {
			hi = n
			c := run(hi)
			if !satisfies(c) {
				// Singletons as the guaranteed-valid fallback.
				labels := make([]int, n)
				for i := range labels {
					labels[i] = i
				}
				hiC = cluster.FromAssignment(labels)
				break
			}
			hiC = c
			break
		}
	}
	best := hiC
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if c := run(mid); satisfies(c) {
			best, hi = c, mid
		} else {
			lo = mid
		}
	}
	return &cluster.Result{Clustering: best.SplitDisconnected(g), Stats: stats}, nil
}

// seedMedoids picks k distinct medoids by farthest-first traversal, the
// standard PAM-style seeding (deterministic given the rng's first pick).
func seedMedoids(feats []metric.Feature, m metric.Metric, k int, rng *rand.Rand) []int {
	n := len(feats)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{rng.Intn(n)}
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = m.Distance(feats[i], feats[out[0]])
	}
	for len(out) < k {
		far, farD := 0, -1.0
		for i := 0; i < n; i++ {
			if minD[i] > farD {
				far, farD = i, minD[i]
			}
		}
		out = append(out, far)
		for i := 0; i < n; i++ {
			if d := m.Distance(feats[i], feats[far]); d < minD[i] {
				minD[i] = d
			}
		}
	}
	sort.Ints(out)
	return out
}

// refreshMedoids recomputes each cluster's medoid (the member minimizing
// the total distance to its cluster) and reports whether any moved.
func refreshMedoids(feats []metric.Feature, m metric.Metric, assign []int, medoids []int) bool {
	k := len(medoids)
	members := make([][]int, k)
	for u, c := range assign {
		members[c] = append(members[c], u)
	}
	moved := false
	for c := 0; c < k; c++ {
		if len(members[c]) == 0 {
			continue
		}
		best, bestCost := medoids[c], math.Inf(1)
		for _, cand := range members[c] {
			var cost float64
			for _, u := range members[c] {
				cost += m.Distance(feats[cand], feats[u])
			}
			if cost < bestCost {
				best, bestCost = cand, cost
			}
		}
		if best != medoids[c] {
			medoids[c] = best
			moved = true
		}
	}
	return moved
}
