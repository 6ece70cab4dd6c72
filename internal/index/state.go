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
				Radius:   idx.Radius[e.ID],
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
// validating structural invariants so corrupted snapshots are rejected:
// ids in range, every member indexed, each cluster's child lists forming
// one tree over exactly its members, backbone endpoints are roots and
// the backbone is a forest. Queries recurse down the child lists and
// walk the backbone without visited sets, so a cycle in either would
// never terminate.
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
		Radius:      make([]float64, n),
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
	for u, ci := range idx.ClusterOf {
		if ci < 0 || ci >= len(st.Clusters) {
			return nil, fmt.Errorf("index: node %d assigned to cluster %d of %d", u, ci, len(st.Clusters))
		}
	}
	roots := make(map[topology.NodeID]bool, len(st.Clusters))
	listed := make([]bool, n)
	indexed := 0
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
				Depth:    es.Depth,
			}
			idx.Radius[es.ID] = es.Radius
		}
		for _, u := range cl.Members {
			if int(u) < 0 || int(u) >= n {
				return nil, fmt.Errorf("index: cluster %d member %d outside [0,%d)", ci, u, n)
			}
			if cl.Entries[u] == nil {
				return nil, fmt.Errorf("index: cluster %d member %d has no entry", ci, u)
			}
			if listed[u] {
				return nil, fmt.Errorf("index: member %d listed twice", u)
			}
			listed[u] = true
			if idx.ClusterOf[u] != ci {
				return nil, fmt.Errorf("index: node %d listed in cluster %d but assigned to %d", u, ci, idx.ClusterOf[u])
			}
		}
		if err := checkTree(ci, cl); err != nil {
			return nil, err
		}
		roots[cl.Root] = true
		idx.Clusters = append(idx.Clusters, cl)
		idx.addOrder(cl)
		indexed += len(cl.Members)
	}
	if indexed != n {
		return nil, fmt.Errorf("index: clusters index %d of %d nodes", indexed, n)
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

// checkTree verifies that cl's child lists, followed from the root, form
// a tree that reaches every entry exactly once: each listed child is an
// entry of cl, names the listing entry as its parent and sits one level
// deeper, and the entries are exactly the members. addOrder then derives
// the aggregation order from these lists alone.
func checkTree(ci int, cl *ClusterIndex) error {
	root := cl.Entries[cl.Root]
	if root == nil {
		return fmt.Errorf("index: cluster %d root %d has no entry", ci, cl.Root)
	}
	if root.Parent != root.ID || root.Depth != 0 {
		return fmt.Errorf("index: cluster %d root %d has parent %d at depth %d", ci, root.ID, root.Parent, root.Depth)
	}
	if len(cl.Entries) != len(cl.Members) {
		return fmt.Errorf("index: cluster %d has %d entries for %d members", ci, len(cl.Entries), len(cl.Members))
	}
	reached := map[topology.NodeID]bool{root.ID: true}
	queue := []*Entry{root}
	for qi := 0; qi < len(queue); qi++ {
		e := queue[qi]
		for _, ch := range e.Children {
			ce := cl.Entries[ch]
			switch {
			case ce == nil:
				return fmt.Errorf("index: cluster %d entry %d lists child %d outside the cluster", ci, e.ID, ch)
			case reached[ch]:
				return fmt.Errorf("index: cluster %d reaches entry %d twice", ci, ch)
			case ce.Parent != e.ID:
				return fmt.Errorf("index: cluster %d entry %d lists child %d whose parent is %d", ci, e.ID, ch, ce.Parent)
			case ce.Depth != e.Depth+1:
				return fmt.Errorf("index: cluster %d child %d at depth %d under entry %d at depth %d", ci, ch, ce.Depth, e.ID, e.Depth)
			}
			reached[ch] = true
			queue = append(queue, ce)
		}
	}
	if len(queue) != len(cl.Entries) {
		return fmt.Errorf("index: cluster %d tree reaches %d of %d entries", ci, len(queue), len(cl.Entries))
	}
	return nil
}
