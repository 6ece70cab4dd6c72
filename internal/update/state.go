package update

import (
	"fmt"
	"sort"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// ClusterState is one maintained cluster in exported form: its internal
// id (ids are engine-lifetime-unique and keep growing across detaches),
// its root and its member list in the maintainer's own order.
type ClusterState struct {
	ID      int
	Root    topology.NodeID
	Members []topology.NodeID
}

// State is the serializable state of a Maintainer. Everything the
// slack-Δ protocol consults apart from the current features —
// membership, cluster trees, lagged root-feature advertisements,
// telemetry — is captured; the features are the engine's own and are
// handed back to FromState, so a restored maintainer screens, detaches
// and re-homes exactly like the original would have. All slices are
// deep copies.
type State struct {
	Clusters   []ClusterState // sorted by ID
	NextID     int
	Parent     []topology.NodeID
	Depth      []int
	RootFeatAt []metric.Feature
	Stats      cluster.Stats
	Counters   Counters
	// InitialClusters anchors the fragmentation ratio (§6).
	InitialClusters int
}

// State exports the maintainer's complete state.
func (m *Maintainer) State() State {
	st := State{
		NextID:          m.nextID,
		Parent:          append([]topology.NodeID(nil), m.parent...),
		Depth:           append([]int(nil), m.depth...),
		RootFeatAt:      make([]metric.Feature, len(m.rootFeatAt)),
		Counters:        m.counters,
		InitialClusters: m.initialClusters,
	}
	for u, f := range m.rootFeatAt {
		st.RootFeatAt[u] = f.Clone()
	}
	ids := make([]int, 0, len(m.members))
	for id := range m.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st.Clusters = append(st.Clusters, ClusterState{
			ID:      id,
			Root:    m.rootOf[id],
			Members: append([]topology.NodeID(nil), m.members[id]...),
		})
	}
	st.Stats = cluster.Stats{Messages: m.stats.Messages, Time: m.stats.Time, Breakdown: make(map[string]int64, len(m.stats.Breakdown))}
	for k, v := range m.stats.Breakdown {
		st.Stats.Breakdown[k] = v
	}
	return st
}

// FromState rebuilds a live maintainer over g from exported state and
// the nodes' current features. The state is validated structurally
// (every node in exactly one cluster, ids and roots consistent, slice
// lengths matching the graph) so a corrupted snapshot is rejected with
// an error instead of corrupting the maintenance protocol.
func FromState(g *topology.Graph, cfg Config, st State, feats []metric.Feature) (*Maintainer, error) {
	n := g.N()
	if len(feats) != n || len(st.Parent) != n || len(st.Depth) != n || len(st.RootFeatAt) != n {
		return nil, fmt.Errorf("update: state sized for %d/%d/%d/%d nodes, graph has %d",
			len(feats), len(st.Parent), len(st.Depth), len(st.RootFeatAt), n)
	}
	if cfg.Slack < 0 || 2*cfg.Slack > cfg.Delta {
		return nil, fmt.Errorf("update: slack %v must satisfy 0 <= 2Δ <= δ=%v", cfg.Slack, cfg.Delta)
	}
	m := &Maintainer{
		g:               g,
		cfg:             cfg,
		feats:           make([]metric.Feature, n),
		clusterOf:       make([]int, n),
		members:         make(map[int][]topology.NodeID, len(st.Clusters)),
		rootOf:          make(map[int]topology.NodeID, len(st.Clusters)),
		nextID:          st.NextID,
		parent:          append([]topology.NodeID(nil), st.Parent...),
		depth:           append([]int(nil), st.Depth...),
		rootFeatAt:      make([]metric.Feature, n),
		stats:           cluster.Stats{Messages: st.Stats.Messages, Time: st.Stats.Time, Breakdown: make(map[string]int64, len(st.Stats.Breakdown))},
		counters:        st.Counters,
		initialClusters: st.InitialClusters,
	}
	for k, v := range st.Stats.Breakdown {
		m.stats.Breakdown[k] = v
	}
	for u := range feats {
		m.feats[u] = feats[u].Clone()
		m.rootFeatAt[u] = st.RootFeatAt[u].Clone()
	}
	assigned := make([]bool, n)
	for _, cs := range st.Clusters {
		if _, dup := m.members[cs.ID]; dup {
			return nil, fmt.Errorf("update: state repeats cluster id %d", cs.ID)
		}
		if cs.ID >= st.NextID {
			return nil, fmt.Errorf("update: cluster id %d >= next id %d", cs.ID, st.NextID)
		}
		if len(cs.Members) == 0 {
			return nil, fmt.Errorf("update: cluster %d has no members", cs.ID)
		}
		rootSeen := false
		for _, u := range cs.Members {
			if int(u) < 0 || int(u) >= n {
				return nil, fmt.Errorf("update: cluster %d member %d outside [0,%d)", cs.ID, u, n)
			}
			if assigned[u] {
				return nil, fmt.Errorf("update: node %d appears in two clusters", u)
			}
			assigned[u] = true
			m.clusterOf[u] = cs.ID
			if u == cs.Root {
				rootSeen = true
			}
		}
		if !rootSeen {
			return nil, fmt.Errorf("update: cluster %d root %d is not a member", cs.ID, cs.Root)
		}
		m.members[cs.ID] = append([]topology.NodeID(nil), cs.Members...)
		m.rootOf[cs.ID] = cs.Root
	}
	for u, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("update: node %d belongs to no cluster", u)
		}
		if int(m.parent[u]) < 0 || int(m.parent[u]) >= n {
			return nil, fmt.Errorf("update: node %d parent %d outside [0,%d)", u, m.parent[u], n)
		}
		if m.depth[u] < 0 {
			return nil, fmt.Errorf("update: node %d depth %d must be >= 0", u, m.depth[u])
		}
	}
	return m, nil
}
