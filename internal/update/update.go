// Package update implements the paper's slack-parameterized dynamic
// cluster maintenance (§6).
//
// After the initial clustering — computed with the tightened threshold
// δ − 2Δ — each feature update is screened locally against three
// conditions:
//
//	A1: d(F_i, F'_i) ≤ Δ                      (the update moved little)
//	A2: d(F'_i, F_ri) − d(F_i, F_ri) ≤ Δ      (distance to root grew little)
//	A3: d(F'_i, F_ri) ≤ δ − Δ                 (still well inside the cluster)
//
// If any condition holds, no message is sent. Only when all three fail
// does the node fetch the fresh root feature up the cluster tree, and only
// when even that check fails does it detach and re-home. The root applies
// the symmetric screen d(F_ri, F'_ri) ≤ Δ and broadcasts its new feature
// down the tree when the screen fails. The package also provides the
// centralized baseline, where a node must ship its coefficients to the
// base station on every local slack violation because conditions A2/A3
// need the root feature no centralized node stores (§8.5).
package update

import (
	"fmt"
	"sort"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// Message kinds charged by the maintenance protocol.
const (
	KindFetch     = "fetch"     // node asks the root for its fresh feature
	KindRootFeat  = "rootfeat"  // root's reply down the same path
	KindBroadcast = "broadcast" // root pushes a drifted feature to members
	KindProbe     = "probe"     // detached node probes a neighbour cluster
	KindReroot    = "reroot"    // stranded members elect a new root
)

// Config parameterizes the maintenance protocol.
type Config struct {
	// Delta is the target δ of the maintained clustering.
	Delta float64
	// Slack is Δ; the initial clustering must have been computed with
	// threshold Delta - 2*Slack.
	Slack float64
	// Metric measures feature dissimilarity.
	Metric metric.Metric
}

// Counters exposes how often each screening path fired, for the
// experiment tables.
type Counters struct {
	Updates     int // feature updates processed
	ScreenedA1  int // silenced by A1
	ScreenedA2  int // silenced by A2
	ScreenedA3  int // silenced by A3
	RootFetches int // full violations that fetched the root feature
	Detaches    int // nodes that left their cluster
	Rejoins     int // detached nodes adopted by a neighbouring cluster
	Singletons  int // detached nodes that became singleton clusters
	RootDrifts  int // root updates that forced a broadcast
}

// Maintainer tracks cluster membership under a stream of feature updates.
type Maintainer struct {
	g   *topology.Graph
	cfg Config

	feats []metric.Feature // current feature per node

	clusterOf []int
	members   map[int][]topology.NodeID
	rootOf    map[int]topology.NodeID
	nextID    int

	// Per-node view of the cluster tree.
	parent []topology.NodeID
	depth  []int
	// advertised root feature as stored at each node (may lag the root's
	// true feature by up to Δ).
	rootFeatAt []metric.Feature

	stats           cluster.Stats
	counters        Counters
	initialClusters int

	// clustering caches Clustering's result; detach, the only place
	// membership changes, drops it.
	clustering *cluster.Clustering
}

// NewMaintainer wraps an initial clustering. feats are the features the
// clustering was computed on; they are cloned, so the caller's slice can
// keep evolving independently.
func NewMaintainer(g *topology.Graph, c *cluster.Clustering, feats []metric.Feature, cfg Config) (*Maintainer, error) {
	if len(feats) != g.N() {
		return nil, fmt.Errorf("update: %d features for %d nodes", len(feats), g.N())
	}
	if cfg.Slack < 0 || 2*cfg.Slack > cfg.Delta {
		return nil, fmt.Errorf("update: slack %v must satisfy 0 <= 2Δ <= δ=%v", cfg.Slack, cfg.Delta)
	}
	m := &Maintainer{
		g:          g,
		cfg:        cfg,
		feats:      make([]metric.Feature, g.N()),
		clusterOf:  make([]int, g.N()),
		members:    make(map[int][]topology.NodeID),
		rootOf:     make(map[int]topology.NodeID),
		parent:     make([]topology.NodeID, g.N()),
		depth:      make([]int, g.N()),
		rootFeatAt: make([]metric.Feature, g.N()),
		stats:      cluster.Stats{Breakdown: make(map[string]int64)},
	}
	for u := range m.feats {
		m.feats[u] = feats[u].Clone()
	}
	for ci, mem := range c.Members {
		id := m.nextID
		m.nextID++
		m.members[id] = append([]topology.NodeID(nil), mem...)
		m.rootOf[id] = c.Roots[ci]
		for _, u := range mem {
			m.clusterOf[u] = id
		}
		m.rebuildTree(id)
		rf := m.feats[c.Roots[ci]].Clone()
		for _, u := range mem {
			m.rootFeatAt[u] = rf
		}
	}
	m.initialClusters = len(m.members)
	return m, nil
}

// rebuildTree re-hangs the cluster's members on a BFS tree from the root
// (restricted to the cluster's induced subgraph) and refreshes depths.
func (m *Maintainer) rebuildTree(id int) {
	root := m.rootOf[id]
	in := make(map[topology.NodeID]bool, len(m.members[id]))
	for _, u := range m.members[id] {
		in[u] = true
	}
	m.parent[root] = root
	m.depth[root] = 0
	queue := []topology.NodeID{root}
	seen := map[topology.NodeID]bool{root: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range m.g.Neighbors(u) {
			if in[v] && !seen[v] {
				seen[v] = true
				m.parent[v] = u
				m.depth[v] = m.depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	// Members unreachable from the root (stranded by earlier detaches)
	// split off as their own clusters.
	var stranded []topology.NodeID
	for _, u := range m.members[id] {
		if !seen[u] {
			stranded = append(stranded, u)
		}
	}
	if len(stranded) == 0 {
		return
	}
	kept := m.members[id][:0]
	for _, u := range m.members[id] {
		if seen[u] {
			kept = append(kept, u)
		}
	}
	m.members[id] = kept
	for _, comp := range m.g.ComponentsOf(stranded) {
		nid := m.nextID
		m.nextID++
		m.members[nid] = comp
		m.rootOf[nid] = comp[0]
		for _, u := range comp {
			m.clusterOf[u] = nid
		}
		m.charge(KindReroot, int64(len(comp)))
		m.rebuildTree(nid)
		rf := m.feats[comp[0]].Clone()
		for _, u := range comp {
			m.rootFeatAt[u] = rf
		}
	}
}

func (m *Maintainer) charge(kind string, cost int64) {
	m.stats.Breakdown[kind] += cost
	m.stats.Messages += cost
}

// Stats returns the accumulated communication cost.
func (m *Maintainer) Stats() cluster.Stats { return m.stats }

// CountersSnapshot returns the screening counters.
func (m *Maintainer) CountersSnapshot() Counters { return m.counters }

// NumClusters returns the current number of clusters.
func (m *Maintainer) NumClusters() int { return len(m.members) }

// Clustering materializes the current membership. The result is shared
// until the next membership change, so callers must not modify it.
func (m *Maintainer) Clustering() *cluster.Clustering {
	if m.clustering == nil {
		rootOf := make([]topology.NodeID, m.g.N())
		for u := range rootOf {
			rootOf[u] = m.rootOf[m.clusterOf[u]]
		}
		m.clustering = cluster.FromRoots(rootOf)
	}
	return m.clustering
}

// Feature returns node u's current feature.
func (m *Maintainer) Feature(u topology.NodeID) metric.Feature { return m.feats[u] }

// Update processes one feature update at node u, applying the screening
// conditions and any required re-clustering, and charging messages.
func (m *Maintainer) Update(u topology.NodeID, newFeat metric.Feature) {
	m.counters.Updates++
	old := m.feats[u]
	m.feats[u] = newFeat.Clone()
	id := m.clusterOf[u]

	if m.rootOf[id] == u {
		m.rootUpdate(u, old)
		return
	}

	d := m.cfg.Metric.Distance
	rf := m.rootFeatAt[u]
	switch {
	case d(old, newFeat) <= m.cfg.Slack:
		m.counters.ScreenedA1++
		return
	case d(newFeat, rf)-d(old, rf) <= m.cfg.Slack:
		m.counters.ScreenedA2++
		return
	case d(newFeat, rf) <= m.cfg.Delta-m.cfg.Slack:
		m.counters.ScreenedA3++
		return
	}

	// All three screens failed: fetch the fresh root feature up the tree
	// and back (2 * depth messages).
	m.counters.RootFetches++
	m.charge(KindFetch, int64(m.depth[u]))
	m.charge(KindRootFeat, int64(m.depth[u]))
	fresh := m.feats[m.rootOf[id]]
	m.rootFeatAt[u] = fresh.Clone()
	if d(newFeat, fresh) <= m.cfg.Delta {
		return
	}
	m.detach(u)
}

// rootUpdate handles a feature update at a cluster root: if the advertised
// feature drifted by more than Δ, push the fresh value to every member.
func (m *Maintainer) rootUpdate(u topology.NodeID, old metric.Feature) {
	id := m.clusterOf[u]
	advertised := m.rootFeatAt[u]
	if m.cfg.Metric.Distance(advertised, m.feats[u]) <= m.cfg.Slack {
		m.counters.ScreenedA1++
		return
	}
	m.counters.RootDrifts++
	fresh := m.feats[u].Clone()
	mem := append([]topology.NodeID(nil), m.members[id]...)
	m.charge(KindBroadcast, int64(len(mem)-1))
	var leavers []topology.NodeID
	for _, v := range mem {
		m.rootFeatAt[v] = fresh
		if v != u && m.cfg.Metric.Distance(m.feats[v], fresh) > m.cfg.Delta {
			leavers = append(leavers, v)
		}
	}
	for _, v := range leavers {
		if m.clusterOf[v] == id { // may already have been stranded away
			m.detach(v)
		}
	}
}

// detach removes u from its cluster and re-homes it: the first neighbour
// whose cluster root feature is within δ adopts it; otherwise u becomes a
// singleton cluster.
func (m *Maintainer) detach(u topology.NodeID) {
	m.clustering = nil
	m.counters.Detaches++
	oldID := m.clusterOf[u]
	mem := m.members[oldID]
	for i, v := range mem {
		if v == u {
			m.members[oldID] = append(mem[:i], mem[i+1:]...)
			break
		}
	}
	if len(m.members[oldID]) == 0 {
		delete(m.members, oldID)
		delete(m.rootOf, oldID)
	}

	adopted := false
	nbrs := append([]topology.NodeID(nil), m.g.Neighbors(u)...)
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	for _, k := range nbrs {
		kid := m.clusterOf[k]
		if kid == oldID && k != u {
			// Probing back into the cluster just left is pointless only if
			// the root is unchanged; skip it.
			continue
		}
		m.charge(KindProbe, 1)
		if m.cfg.Metric.Distance(m.feats[u], m.rootFeatAt[k]) <= m.cfg.Delta {
			m.clusterOf[u] = kid
			m.members[kid] = append(m.members[kid], u)
			m.parent[u] = k
			m.depth[u] = m.depth[k] + 1
			m.rootFeatAt[u] = m.rootFeatAt[k]
			m.counters.Rejoins++
			adopted = true
			break
		}
	}
	if !adopted {
		nid := m.nextID
		m.nextID++
		m.clusterOf[u] = nid
		m.members[nid] = []topology.NodeID{u}
		m.rootOf[nid] = u
		m.parent[u] = u
		m.depth[u] = 0
		m.rootFeatAt[u] = m.feats[u].Clone()
		m.counters.Singletons++
	}

	// The old cluster may have lost connectivity through u.
	if _, ok := m.members[oldID]; ok {
		m.rebuildTree(oldID)
	}
}

// CentralizedUpdater is the baseline of §8.5: each node keeps only its own
// feature and the slack Δ; every update that moves the feature by more
// than Δ must be shipped to the base station (conditions A2/A3 cannot be
// evaluated without the root feature, which no node stores).
type CentralizedUpdater struct {
	cfg   Config
	hops  []int
	feats []metric.Feature
	coefs int64

	stats    cluster.Stats
	screened int
	shipped  int
}

// NewCentralizedUpdater builds the baseline with the base station at
// `base`. coeffsPerUpdate is how many coefficient messages one shipment
// costs (one message per coefficient, §8.2).
func NewCentralizedUpdater(g *topology.Graph, base topology.NodeID, feats []metric.Feature, cfg Config, coeffsPerUpdate int64) *CentralizedUpdater {
	c := &CentralizedUpdater{
		cfg:   cfg,
		hops:  g.HopDistances(base),
		feats: make([]metric.Feature, len(feats)),
		coefs: coeffsPerUpdate,
		stats: cluster.Stats{Breakdown: make(map[string]int64)},
	}
	for u := range feats {
		c.feats[u] = feats[u].Clone()
	}
	return c
}

// Update processes one feature update at node u.
func (c *CentralizedUpdater) Update(u topology.NodeID, newFeat metric.Feature) {
	if c.cfg.Metric.Distance(c.feats[u], newFeat) <= c.cfg.Slack {
		c.screened++
		return
	}
	c.feats[u] = newFeat.Clone()
	cost := int64(c.hops[u]) * c.coefs
	c.stats.Breakdown["ship"] += cost
	c.stats.Messages += cost
	c.shipped++
}

// Stats returns the accumulated cost.
func (c *CentralizedUpdater) Stats() cluster.Stats { return c.stats }

// Shipped returns how many updates crossed the slack and were shipped.
func (c *CentralizedUpdater) Shipped() int { return c.shipped }

// Fragmentation reports how far the maintained clustering has drifted
// from its initial shape: the ratio of current clusters to initial
// clusters. §6 notes that accumulated violations eventually necessitate
// an expensive global re-clustering; callers watch this ratio and
// re-cluster (a fresh ELink run) when it crosses their threshold.
func (m *Maintainer) Fragmentation() float64 {
	if m.initialClusters == 0 {
		return 1
	}
	return float64(len(m.members)) / float64(m.initialClusters)
}

// NeedsRecluster reports whether fragmentation has exceeded the given
// factor (e.g. 2 = twice as many clusters as the initial clustering).
func (m *Maintainer) NeedsRecluster(factor float64) bool {
	return m.Fragmentation() > factor
}
