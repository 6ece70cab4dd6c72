package index

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// EntryState is one node's M-tree slot in exported form.
type EntryState struct {
	ID       topology.NodeID
	Parent   topology.NodeID
	Children []topology.NodeID
	Radius   float64
	Depth    int
}

// ClusterIndexState is one cluster's M-tree in exported form, entries
// sorted by node id for a deterministic encoding.
type ClusterIndexState struct {
	Root    topology.NodeID
	Members []topology.NodeID
	Entries []EntryState
}

// State is the complete serializable state of an Index. The graph and
// metric are not part of it — they are reconstruction context the caller
// re-supplies to FromState (the streaming engine owns both). The flat
// tree arrays and the rooted backbone are derived on restore from the
// entries and from Backbone, in the order Build produced them.
type State struct {
	Features   []metric.Feature
	ClusterOf  []int
	Clusters   []ClusterIndexState
	Backbone   []BackboneEdge
	BuildStats cluster.Stats
}

// State exports the index's complete structural state as deep copies.
func (idx *Index) State() State {
	st := State{
		Features:  make([]metric.Feature, len(idx.Features)),
		ClusterOf: append([]int(nil), idx.ClusterOf...),
		Backbone:  append([]BackboneEdge(nil), idx.Backbone...),
	}
	for i, f := range idx.Features {
		st.Features[i] = f.Clone()
	}
	for _, cl := range idx.Clusters {
		cs := ClusterIndexState{
			Root:    cl.Root,
			Members: append([]topology.NodeID(nil), cl.Members...),
			Entries: make([]EntryState, 0, len(cl.Members)),
		}
		for _, u := range cl.Members {
			cs.Entries = append(cs.Entries, EntryState{
				ID:       u,
				Parent:   idx.parent[u],
				Children: append([]topology.NodeID(nil), idx.Children(u)...),
				Radius:   idx.Radius[u],
				Depth:    idx.depth[u],
			})
		}
		slices.SortFunc(cs.Entries, func(a, b EntryState) int { return int(a.ID - b.ID) })
		st.Clusters = append(st.Clusters, cs)
	}
	st.BuildStats = cluster.Stats{Messages: idx.BuildStats.Messages, Time: idx.BuildStats.Time, Breakdown: maps.Clone(idx.BuildStats.Breakdown)}
	return st
}

// FromState rebuilds a live index over g and m from exported state,
// validating it so corrupted snapshots are rejected: features finite and
// of one dimension, ids in range, every node the entry of exactly the
// cluster it is assigned to, each cluster's child lists forming one tree
// over exactly its members, every radius exactly the covering radius its
// subtree aggregates to, and backbone endpoints cluster roots forming a
// forest. Queries descend the child lists and walk the rooted backbone
// without visited sets, so a cycle in either would never terminate, and
// they prune by the radii.
func FromState(g *topology.Graph, m metric.Metric, st State) (*Index, error) {
	n := g.N()
	if len(st.Features) != n || len(st.ClusterOf) != n {
		return nil, fmt.Errorf("index: state sized for %d features / %d assignments, graph has %d nodes",
			len(st.Features), len(st.ClusterOf), n)
	}
	idx := &Index{
		Graph:      g,
		Metric:     m,
		Features:   make([]metric.Feature, n),
		Radius:     make([]float64, n),
		ClusterOf:  append([]int(nil), st.ClusterOf...),
		Backbone:   append([]BackboneEdge(nil), st.Backbone...),
		BuildStats: cluster.Stats{Messages: st.BuildStats.Messages, Time: st.BuildStats.Time, Breakdown: maps.Clone(st.BuildStats.Breakdown)},
		parent:     make([]topology.NodeID, n),
		depth:      make([]int, n),
	}
	if idx.BuildStats.Breakdown == nil {
		idx.BuildStats.Breakdown = make(map[string]int64)
	}
	for i, f := range st.Features {
		if len(f) != len(st.Features[0]) {
			return nil, fmt.Errorf("index: feature %d has dimension %d, feature 0 has %d", i, len(f), len(st.Features[0]))
		}
		for _, x := range f {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("index: feature %d is not finite: %v", i, f)
			}
		}
		idx.Features[i] = f.Clone()
	}
	for u, ci := range idx.ClusterOf {
		if ci < 0 || ci >= len(st.Clusters) {
			return nil, fmt.Errorf("index: node %d assigned to cluster %d of %d", u, ci, len(st.Clusters))
		}
		idx.parent[u] = -1
	}
	children := make([][]topology.NodeID, n)
	listed, reached := make([]bool, n), make([]bool, n)
	indexed := 0
	for ci, cs := range st.Clusters {
		if len(cs.Members) == 0 {
			return nil, fmt.Errorf("index: cluster %d has no members", ci)
		}
		for _, es := range cs.Entries {
			if int(es.ID) < 0 || int(es.ID) >= n || int(es.Parent) < 0 || int(es.Parent) >= n {
				return nil, fmt.Errorf("index: cluster %d entry %d/parent %d outside [0,%d)", ci, es.ID, es.Parent, n)
			}
			if idx.ClusterOf[es.ID] != ci {
				return nil, fmt.Errorf("index: cluster %d has an entry for node %d of cluster %d", ci, es.ID, idx.ClusterOf[es.ID])
			}
			if idx.parent[es.ID] >= 0 {
				return nil, fmt.Errorf("index: cluster %d repeats entry %d", ci, es.ID)
			}
			idx.parent[es.ID] = es.Parent
			idx.depth[es.ID] = es.Depth
			idx.Radius[es.ID] = es.Radius
			children[es.ID] = es.Children
		}
		for _, u := range cs.Members {
			if int(u) < 0 || int(u) >= n {
				return nil, fmt.Errorf("index: cluster %d member %d outside [0,%d)", ci, u, n)
			}
			if listed[u] {
				return nil, fmt.Errorf("index: member %d listed twice", u)
			}
			listed[u] = true
			if idx.ClusterOf[u] != ci {
				return nil, fmt.Errorf("index: node %d listed in cluster %d but assigned to %d", u, ci, idx.ClusterOf[u])
			}
			if idx.parent[u] < 0 {
				return nil, fmt.Errorf("index: cluster %d member %d has no entry", ci, u)
			}
		}
		if len(cs.Entries) != len(cs.Members) {
			return nil, fmt.Errorf("index: cluster %d has %d entries for %d members", ci, len(cs.Entries), len(cs.Members))
		}
		if err := checkTree(ci, cs.Root, len(cs.Members), idx, children, reached); err != nil {
			return nil, err
		}
		idx.Clusters = append(idx.Clusters, &ClusterIndex{Root: cs.Root, Members: append([]topology.NodeID(nil), cs.Members...)})
		indexed += len(cs.Members)
	}
	if indexed != n {
		return nil, fmt.Errorf("index: clusters index %d of %d nodes", indexed, n)
	}
	idx.kidOff = make([]int, n+1)
	for u, kids := range children {
		idx.kidOff[u+1] = idx.kidOff[u] + len(kids)
	}
	idx.kids = make([]topology.NodeID, 0, idx.kidOff[n])
	for _, kids := range children {
		idx.kids = append(idx.kids, kids...)
	}
	idx.layout()
	for _, u := range idx.order {
		if r := idx.coverRadius(u); math.Float64bits(r) != math.Float64bits(idx.Radius[u]) {
			return nil, fmt.Errorf("index: node %d has radius %v, its subtree aggregates to %v", u, idx.Radius[u], r)
		}
	}
	// The backbone must be a forest over cluster roots: Build makes it
	// one by Kruskal, and rootBackbone relies on it.
	uf := newUnionFind(len(idx.Clusters))
	for _, e := range idx.Backbone {
		if !idx.isRoot(e.A) || !idx.isRoot(e.B) {
			return nil, fmt.Errorf("index: backbone edge (%d,%d) does not connect cluster roots", e.A, e.B)
		}
		if !uf.union(idx.ClusterOf[e.A], idx.ClusterOf[e.B]) {
			return nil, fmt.Errorf("index: backbone edge (%d,%d) closes a cycle", e.A, e.B)
		}
	}
	idx.rootBackbone()
	return idx, nil
}

// isRoot reports whether u is a node id and the root of its cluster.
func (idx *Index) isRoot(u topology.NodeID) bool {
	return int(u) >= 0 && int(u) < len(idx.ClusterOf) && idx.Clusters[idx.ClusterOf[u]].Root == u
}

// checkTree verifies that cluster ci's child lists, followed from root,
// form a tree that reaches every entry exactly once: each listed child
// is an entry of ci, names the listing entry as its parent and sits one
// level deeper. Only entries hold a parent, and ci has one entry per
// member, so reaching size nodes reaches them all. layout then derives
// the aggregation order from these lists alone.
func checkTree(ci int, root topology.NodeID, size int, idx *Index, children [][]topology.NodeID, reached []bool) error {
	n := len(idx.parent)
	if int(root) < 0 || int(root) >= n || idx.ClusterOf[root] != ci {
		return fmt.Errorf("index: cluster %d root %d has no entry", ci, root)
	}
	if idx.parent[root] != root || idx.depth[root] != 0 {
		return fmt.Errorf("index: cluster %d root %d has parent %d at depth %d", ci, root, idx.parent[root], idx.depth[root])
	}
	queue := []topology.NodeID{root}
	reached[root] = true
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, ch := range children[u] {
			switch {
			case int(ch) < 0 || int(ch) >= n || idx.ClusterOf[ch] != ci:
				return fmt.Errorf("index: cluster %d entry %d lists child %d outside the cluster", ci, u, ch)
			case reached[ch]:
				return fmt.Errorf("index: cluster %d reaches entry %d twice", ci, ch)
			case idx.parent[ch] != u:
				return fmt.Errorf("index: cluster %d entry %d lists child %d whose parent is %d", ci, u, ch, idx.parent[ch])
			case idx.depth[ch] != idx.depth[u]+1:
				return fmt.Errorf("index: cluster %d child %d at depth %d under entry %d at depth %d", ci, ch, idx.depth[ch], u, idx.depth[u])
			}
			reached[ch] = true
			queue = append(queue, ch)
		}
	}
	if len(queue) != size {
		return fmt.Errorf("index: cluster %d tree reaches %d of %d entries", ci, len(queue), size)
	}
	return nil
}
