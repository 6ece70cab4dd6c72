// Package cluster defines δ-clusterings (paper Definition 1) and the
// validation and quality measures shared by every clustering algorithm in
// this repository.
//
// A δ-cluster is a set of nodes whose induced communication subgraph is
// connected and whose pairwise feature distances are all at most δ. A
// δ-clustering partitions the whole network into disjoint δ-clusters; the
// paper's quality measure is simply the number of clusters (fewer is
// better), which Validate and Quality make checkable and comparable here.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"elink/internal/metric"
	"elink/internal/topology"
)

// Clustering is a partition of the network's nodes.
type Clustering struct {
	// Assign maps every node to its cluster index in [0, len(Members)).
	Assign []int
	// Members lists each cluster's nodes, sorted by id.
	Members [][]topology.NodeID
	// Roots holds each cluster's representative (the cluster-tree root for
	// the distributed algorithms, or -1 when the algorithm has no notion
	// of a root).
	Roots []topology.NodeID
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Members) }

// ClusterOf returns the cluster index of node u.
func (c *Clustering) ClusterOf(u topology.NodeID) int { return c.Assign[u] }

// FromAssignment builds a Clustering from a per-node cluster label slice.
// Labels may be arbitrary ints; they are renumbered densely in order of
// first appearance by smallest node id. Every node must be labelled.
func FromAssignment(labels []int) *Clustering {
	c := &Clustering{Assign: make([]int, len(labels))}
	remap := make(map[int]int)
	for u, l := range labels {
		idx, ok := remap[l]
		if !ok {
			idx = len(c.Members)
			remap[l] = idx
			c.Members = append(c.Members, nil)
			c.Roots = append(c.Roots, -1)
		}
		c.Assign[u] = idx
		c.Members[idx] = append(c.Members[idx], topology.NodeID(u))
	}
	return c
}

// FromRoots builds a Clustering by grouping nodes that share a root and
// records each group's root as the cluster representative. rootOf[u] is
// the root node id claimed by u's protocol state; a node that is its own
// root is the cluster leader.
func FromRoots(rootOf []topology.NodeID) *Clustering {
	labels := make([]int, len(rootOf))
	for u, r := range rootOf {
		labels[u] = int(r)
	}
	c := FromAssignment(labels)
	for i, members := range c.Members {
		c.Roots[i] = rootOf[members[0]]
	}
	return c
}

// SplitDisconnected returns a clustering in which every cluster whose
// induced subgraph is disconnected has been split into its connected
// components. Cluster-switching in ELink can strand a subtree from its
// root; this normalization makes Definition 1's connectivity requirement
// hold exactly (δ-compactness is unaffected: any subset of a δ-compact
// set is δ-compact). Roots are preserved for components containing the
// original root; other components are rooted at their smallest member.
func (c *Clustering) SplitDisconnected(g *topology.Graph) *Clustering {
	out := &Clustering{Assign: make([]int, len(c.Assign))}
	// One pass over the clusters: a component grows from each unseen
	// member through neighbours assigned to the same cluster, and every
	// component is a range of one N-sized arena.
	seen := make([]bool, len(c.Assign))
	arena := make([]topology.NodeID, 0, len(c.Assign))
	for ci, members := range c.Members {
		first := len(out.Members)
		for _, s := range members {
			if seen[s] {
				continue
			}
			seen[s] = true
			lo := len(arena)
			arena = append(arena, s)
			for i := lo; i < len(arena); i++ {
				for _, v := range g.Adj[arena[i]] {
					if c.Assign[v] == ci && !seen[v] {
						seen[v] = true
						arena = append(arena, v)
					}
				}
			}
			comp := arena[lo:len(arena):len(arena)]
			slices.Sort(comp)
			out.Members = append(out.Members, comp)
		}
		comps := out.Members[first:]
		slices.SortFunc(comps, func(a, b []topology.NodeID) int { return cmp.Compare(a[0], b[0]) })
		for k, comp := range comps {
			root := comp[0]
			if _, ok := slices.BinarySearch(comp, c.Roots[ci]); ok {
				root = c.Roots[ci]
			}
			for _, u := range comp {
				out.Assign[u] = first + k
			}
			out.Roots = append(out.Roots, root)
		}
	}
	return out
}

// Validate checks that c is a legal δ-clustering of g: every node is in
// exactly one cluster, every cluster's induced subgraph is connected, and
// every intra-cluster feature distance is at most delta (plus eps of
// floating-point slack). It returns the first violation found.
func (c *Clustering) Validate(g *topology.Graph, feats []metric.Feature, m metric.Metric, delta, eps float64) error {
	if len(c.Assign) != g.N() {
		return fmt.Errorf("cluster: assignment covers %d nodes, graph has %d", len(c.Assign), g.N())
	}
	seen := make([]bool, g.N())
	for ci, members := range c.Members {
		if len(members) == 0 {
			return fmt.Errorf("cluster: cluster %d is empty", ci)
		}
		for _, u := range members {
			if seen[u] {
				return fmt.Errorf("cluster: node %d appears in two clusters", u)
			}
			seen[u] = true
			if c.Assign[u] != ci {
				return fmt.Errorf("cluster: node %d assigned to %d but listed in %d", u, c.Assign[u], ci)
			}
		}
		if comps := g.ComponentsOf(members); len(comps) != 1 {
			return fmt.Errorf("cluster: cluster %d induces %d components, want 1", ci, len(comps))
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if d := m.Distance(feats[members[i]], feats[members[j]]); d > delta+eps {
					return fmt.Errorf("cluster: δ-condition violated in cluster %d: d(F_%d,F_%d)=%v > δ=%v",
						ci, members[i], members[j], d, delta)
				}
			}
		}
	}
	for u, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: node %d is unclustered", u)
		}
	}
	return nil
}

// Quality summarizes a clustering for the experiment tables.
type Quality struct {
	NumClusters int
	// MaxDiameter is the largest intra-cluster pairwise feature distance.
	MaxDiameter float64
	// MeanSize is the average cluster population.
	MeanSize float64
	// LargestSize is the biggest cluster population.
	LargestSize int
}

// Measure computes Quality for c over the given features.
func (c *Clustering) Measure(feats []metric.Feature, m metric.Metric) Quality {
	q := Quality{NumClusters: c.NumClusters()}
	for _, members := range c.Members {
		if len(members) > q.LargestSize {
			q.LargestSize = len(members)
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if d := m.Distance(feats[members[i]], feats[members[j]]); d > q.MaxDiameter {
					q.MaxDiameter = d
				}
			}
		}
	}
	if c.NumClusters() > 0 {
		q.MeanSize = float64(len(c.Assign)) / float64(c.NumClusters())
	}
	return q
}

// Stats records the cost of producing a clustering (or answering a
// query): total radio transmissions, the per-kind decomposition, and the
// simulated completion time.
type Stats struct {
	Messages  int64
	Breakdown map[string]int64
	Time      float64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Messages += other.Messages
	if s.Breakdown == nil {
		s.Breakdown = make(map[string]int64)
	}
	for k, v := range other.Breakdown {
		s.Breakdown[k] += v
	}
	if other.Time > s.Time {
		s.Time = other.Time
	}
}

// Clone returns a deep copy of s (the Breakdown map is not shared).
func (s Stats) Clone() Stats {
	c := Stats{Messages: s.Messages, Time: s.Time}
	if s.Breakdown != nil {
		c.Breakdown = make(map[string]int64, len(s.Breakdown))
		for k, v := range s.Breakdown {
			c.Breakdown[k] = v
		}
	}
	return c
}

// String renders the stats compactly with kinds sorted for determinism.
func (s Stats) String() string {
	kinds := make([]string, 0, len(s.Breakdown))
	for k := range s.Breakdown {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := fmt.Sprintf("msgs=%d time=%.1f", s.Messages, s.Time)
	for _, k := range kinds {
		out += fmt.Sprintf(" %s=%d", k, s.Breakdown[k])
	}
	return out
}

// Result couples a clustering with the cost of computing it.
type Result struct {
	Clustering *Clustering
	Stats      Stats
}
