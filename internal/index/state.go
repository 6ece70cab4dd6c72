package index

import (
	"fmt"
	"sort"

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
// re-supplies to FromState (the streaming engine owns both). BackboneAdj
// is derived from Backbone on restore, in the same edge order Build
// produced it, so traversals replay identically.
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
			Entries: make([]EntryState, 0, len(cl.Entries)),
		}
		for _, e := range cl.Entries {
			cs.Entries = append(cs.Entries, EntryState{
				ID:       e.ID,
				Parent:   e.Parent,
				Children: append([]topology.NodeID(nil), e.Children...),
				Radius:   e.Radius,
				Depth:    e.Depth,
			})
		}
		sort.Slice(cs.Entries, func(i, j int) bool { return cs.Entries[i].ID < cs.Entries[j].ID })
		st.Clusters = append(st.Clusters, cs)
	}
	st.BuildStats = cluster.Stats{Messages: idx.BuildStats.Messages, Time: idx.BuildStats.Time, Breakdown: make(map[string]int64, len(idx.BuildStats.Breakdown))}
	for k, v := range idx.BuildStats.Breakdown {
		st.BuildStats.Breakdown[k] = v
	}
	return st
}

// FromState rebuilds a live index over g and m from exported state,
// validating structural invariants (ids in range, every member indexed,
// backbone endpoints are roots) so corrupted snapshots are rejected.
func FromState(g *topology.Graph, m metric.Metric, st State) (*Index, error) {
	n := g.N()
	if len(st.Features) != n || len(st.ClusterOf) != n {
		return nil, fmt.Errorf("index: state sized for %d features / %d assignments, graph has %d nodes",
			len(st.Features), len(st.ClusterOf), n)
	}
	idx := &Index{
		Graph:       g,
		Metric:      m,
		Features:    make([]metric.Feature, n),
		ClusterOf:   append([]int(nil), st.ClusterOf...),
		Backbone:    append([]BackboneEdge(nil), st.Backbone...),
		BackboneAdj: make(map[topology.NodeID][]BackboneEdge),
		BuildStats:  cluster.Stats{Messages: st.BuildStats.Messages, Time: st.BuildStats.Time, Breakdown: make(map[string]int64, len(st.BuildStats.Breakdown))},
	}
	for k, v := range st.BuildStats.Breakdown {
		idx.BuildStats.Breakdown[k] = v
	}
	for i, f := range st.Features {
		idx.Features[i] = f.Clone()
	}
	roots := make(map[topology.NodeID]bool, len(st.Clusters))
	for ci, cs := range st.Clusters {
		cl := &ClusterIndex{
			Root:    cs.Root,
			Members: append([]topology.NodeID(nil), cs.Members...),
			Entries: make(map[topology.NodeID]*Entry, len(cs.Entries)),
		}
		if len(cs.Members) == 0 {
			return nil, fmt.Errorf("index: cluster %d has no members", ci)
		}
		for _, es := range cs.Entries {
			if int(es.ID) < 0 || int(es.ID) >= n || int(es.Parent) < 0 || int(es.Parent) >= n {
				return nil, fmt.Errorf("index: cluster %d entry %d/parent %d outside [0,%d)", ci, es.ID, es.Parent, n)
			}
			if _, dup := cl.Entries[es.ID]; dup {
				return nil, fmt.Errorf("index: cluster %d repeats entry %d", ci, es.ID)
			}
			cl.Entries[es.ID] = &Entry{
				ID:       es.ID,
				Parent:   es.Parent,
				Children: append([]topology.NodeID(nil), es.Children...),
				Radius:   es.Radius,
				Depth:    es.Depth,
			}
		}
		for _, u := range cl.Members {
			if int(u) < 0 || int(u) >= n {
				return nil, fmt.Errorf("index: cluster %d member %d outside [0,%d)", ci, u, n)
			}
			if cl.Entries[u] == nil {
				return nil, fmt.Errorf("index: cluster %d member %d has no entry", ci, u)
			}
			if idx.ClusterOf[u] != ci {
				return nil, fmt.Errorf("index: node %d listed in cluster %d but assigned to %d", u, ci, idx.ClusterOf[u])
			}
		}
		if cl.Entries[cl.Root] == nil {
			return nil, fmt.Errorf("index: cluster %d root %d has no entry", ci, cl.Root)
		}
		roots[cl.Root] = true
		idx.Clusters = append(idx.Clusters, cl)
	}
	for u, ci := range idx.ClusterOf {
		if ci < 0 || ci >= len(idx.Clusters) {
			return nil, fmt.Errorf("index: node %d assigned to cluster %d of %d", u, ci, len(idx.Clusters))
		}
	}
	// Queries walk the backbone as a forest, with no visited set (Build
	// makes it one by Kruskal), so an edge closing a cycle is rejected.
	comp := make(map[topology.NodeID]topology.NodeID, len(roots))
	find := func(x topology.NodeID) topology.NodeID {
		for {
			p, ok := comp[x]
			if !ok || p == x {
				return x
			}
			x = p
		}
	}
	for _, e := range idx.Backbone {
		if !roots[e.A] || !roots[e.B] {
			return nil, fmt.Errorf("index: backbone edge (%d,%d) does not connect cluster roots", e.A, e.B)
		}
		ca, cb := find(e.A), find(e.B)
		if ca == cb {
			return nil, fmt.Errorf("index: backbone edge (%d,%d) closes a cycle", e.A, e.B)
		}
		comp[ca] = cb
		idx.BackboneAdj[e.A] = append(idx.BackboneAdj[e.A], e)
		idx.BackboneAdj[e.B] = append(idx.BackboneAdj[e.B], e)
	}
	return idx, nil
}
