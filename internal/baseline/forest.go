package baseline

import (
	"fmt"
	"math"
	"sort"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/sim"
	"elink/internal/topology"
)

// Message kinds of the spanning-forest protocol, exported for cost
// decomposition in the experiments.
const (
	ForestKindFeature = "feature"
	ForestKindAttach  = "attach"
	ForestKindDecline = "decline"
	ForestKindReport  = "report"
	ForestKindDetach  = "detach"
	ForestKindRoot    = "croot"
)

// ForestConfig parameterizes the spanning-forest baseline (§8.3).
type ForestConfig struct {
	Delta    float64
	Metric   metric.Metric
	Features []metric.Feature
	Seed     int64
}

// SpanningForest runs the two-phase distributed baseline: phase 1
// decomposes the network into a spanning forest (each node parents the
// smaller-id neighbour with the closest feature), phase 2 sweeps heights
// from the leaves up, detaching the highest subtree whenever the path-sum
// bound would exceed δ. Detached subtrees become new clusters. Both
// phases are O(N) in time and messages.
func SpanningForest(g *topology.Graph, cfg ForestConfig) (*cluster.Result, error) {
	if len(cfg.Features) != g.N() {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), g.N())
	}
	net := sim.NewNetwork(g, sim.UnitDelay{}, cfg.Seed)
	nodes := make([]*forestNode, g.N())
	sh := &forestShared{cfg: cfg}
	for u := range nodes {
		nodes[u] = &forestNode{sh: sh, id: topology.NodeID(u), parent: -1, clusterRoot: -1}
		net.SetProtocol(topology.NodeID(u), nodes[u])
	}
	end := net.Run()

	rootOf := make([]topology.NodeID, g.N())
	for u, nd := range nodes {
		if nd.clusterRoot < 0 {
			return nil, fmt.Errorf("baseline: forest node %d finished without a cluster root", u)
		}
		rootOf[u] = nd.clusterRoot
	}
	c := cluster.FromRoots(rootOf).SplitDisconnected(g)
	return &cluster.Result{
		Clustering: c,
		Stats: cluster.Stats{
			Messages:  net.TotalMessages(),
			Breakdown: net.MessageBreakdown(),
			Time:      end,
		},
	}, nil
}

type forestShared struct {
	cfg ForestConfig
}

type forestReport struct {
	Height  float64
	Feature metric.Feature
}

type forestRootMsg struct {
	Root topology.NodeID
}

// forestNode is the per-node state machine of the two-phase algorithm.
type forestNode struct {
	sh *forestShared
	id topology.NodeID

	// Phase 1.
	feats       map[topology.NodeID]metric.Feature
	parent      topology.NodeID
	decisions   int // attach/decline replies received
	attachCount int // children acquired in phase 1 (reports expected)
	children    map[topology.NodeID]bool

	// Phase 2.
	reports       int
	height        float64
	highestChild  topology.NodeID
	reported      bool
	detachedRoot  bool // true when instructed to detach
	clusterRoot   topology.NodeID
	rootAnnounced bool
}

func (n *forestNode) cfg() ForestConfig { return n.sh.cfg }

func (n *forestNode) Init(ctx sim.Context) {
	n.feats = make(map[topology.NodeID]metric.Feature)
	n.children = make(map[topology.NodeID]bool)
	n.highestChild = -1
	if len(ctx.Neighbors()) == 0 {
		// Isolated node: a singleton cluster.
		n.becomeRoot(ctx)
		return
	}
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, ForestKindFeature, n.cfg().Features[n.id])
	}
}

func (n *forestNode) OnTimer(sim.Context, string) {}

func (n *forestNode) OnMessage(ctx sim.Context, msg sim.Message) {
	switch msg.Kind {
	case ForestKindFeature:
		n.feats[msg.From] = msg.Payload.(metric.Feature)
		if len(n.feats) == len(ctx.Neighbors()) {
			n.chooseParent(ctx)
		}
	case ForestKindAttach:
		n.children[msg.From] = true
		n.attachCount++
		n.decisions++
		n.maybeReport(ctx)
	case ForestKindDecline:
		n.decisions++
		n.maybeReport(ctx)
	case ForestKindReport:
		n.onReport(ctx, msg.From, msg.Payload.(forestReport))
	case ForestKindDetach:
		// Our subtree is cut loose: we become a new cluster root
		// (the paper's "highest_child as the root").
		n.becomeRoot(ctx)
	case ForestKindRoot:
		r := msg.Payload.(forestRootMsg)
		n.announceRoot(ctx, r.Root)
	}
}

// chooseParent implements phase 1's rule: parent = the smaller-id
// neighbour with the minimum feature distance (partial order by id rules
// out cycles). Every neighbour is told attach/decline so child counts are
// exact and leaves are detected without timeouts.
func (n *forestNode) chooseParent(ctx sim.Context) {
	best := topology.NodeID(-1)
	bestD := math.Inf(1)
	me := n.cfg().Features[n.id]
	for _, nb := range ctx.Neighbors() {
		if nb >= n.id {
			continue
		}
		d := n.cfg().Metric.Distance(me, n.feats[nb])
		if d < bestD || (d == bestD && nb < best) {
			best, bestD = nb, d
		}
	}
	n.parent = best
	for _, nb := range ctx.Neighbors() {
		if nb == best {
			ctx.Send(nb, ForestKindAttach, nil)
		} else {
			ctx.Send(nb, ForestKindDecline, nil)
		}
	}
}

// maybeReport sends this node's height report once phase 1 has settled
// (all attach/decline replies in, so the child count is exact) and every
// child subtree has reported. Leaves report immediately after phase 1.
func (n *forestNode) maybeReport(ctx sim.Context) {
	if n.reported || n.decisions < len(ctx.Neighbors()) || n.reports < n.attachCount {
		return
	}
	n.sendReport(ctx)
}

func (n *forestNode) onReport(ctx sim.Context, child topology.NodeID, rep forestReport) {
	n.reports++
	me := n.cfg().Features[n.id]
	h := rep.Height + n.cfg().Metric.Distance(rep.Feature, me)
	delta := n.cfg().Delta
	if h+n.height > delta {
		// Detach the taller side.
		if h >= n.height {
			ctx.Send(child, ForestKindDetach, nil)
			delete(n.children, child)
		} else {
			ctx.Send(n.highestChild, ForestKindDetach, nil)
			delete(n.children, n.highestChild)
			n.height = h
			n.highestChild = child
		}
	} else if h > n.height {
		n.height = h
		n.highestChild = child
	}
	n.maybeReport(ctx)
}

func (n *forestNode) sendReport(ctx sim.Context) {
	n.reported = true
	if n.parent < 0 {
		n.becomeRoot(ctx)
		return
	}
	ctx.Send(n.parent, ForestKindReport, forestReport{Height: n.height, Feature: n.cfg().Features[n.id]})
}

// becomeRoot marks this node as a cluster root and announces the cluster
// id down the (remaining) tree.
func (n *forestNode) becomeRoot(ctx sim.Context) {
	n.detachedRoot = true
	n.announceRoot(ctx, n.id)
}

func (n *forestNode) announceRoot(ctx sim.Context, root topology.NodeID) {
	if n.rootAnnounced {
		return
	}
	n.rootAnnounced = true
	n.clusterRoot = root
	// Sorted order keeps event sequencing deterministic.
	kids := make([]topology.NodeID, 0, len(n.children))
	for ch := range n.children {
		kids = append(kids, ch)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	for _, ch := range kids {
		ctx.Send(ch, ForestKindRoot, forestRootMsg{Root: root})
	}
}
