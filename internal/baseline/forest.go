package baseline

import (
	"fmt"
	"math"
	"slices"

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
	// Every node's per-neighbour state is a window of two shared arrays,
	// indexed by the neighbour's position in the sorted adjacency list.
	deg := 2 * g.Edges()
	feats := make([]*metric.Feature, deg)
	children := make([]bool, deg)
	nodes := make([]forestNode, g.N())
	off := 0
	for u := range nodes {
		k := len(g.Neighbors(topology.NodeID(u)))
		nodes[u] = forestNode{cfg: &cfg, id: topology.NodeID(u), parent: -1, highestChild: -1, clusterRoot: -1,
			feats: feats[off : off+k : off+k], children: children[off : off+k : off+k]}
		off += k
		net.SetProtocol(topology.NodeID(u), &nodes[u])
	}
	end := net.Run()

	rootOf := make([]topology.NodeID, g.N())
	for u := range nodes {
		if nodes[u].clusterRoot < 0 {
			return nil, fmt.Errorf("baseline: forest node %d finished without a cluster root", u)
		}
		rootOf[u] = nodes[u].clusterRoot
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

// Payloads are pointers to data written once before it is sent: a
// feature message carries &Features[id], a report the sender's own
// forestReport and a root message the sender's clusterRoot, so no
// payload is boxed.
type forestReport struct {
	Height  float64
	Feature *metric.Feature
}

// forestNode is the per-node state machine of the two-phase algorithm.
// Per-neighbour state is indexed by the neighbour's position in the
// node's sorted adjacency list.
type forestNode struct {
	cfg *ForestConfig
	id  topology.NodeID

	// Phase 1.
	feats       []*metric.Feature // neighbours' features, once received
	nfeats      int
	parent      topology.NodeID
	decisions   int    // attach/decline replies received
	attachCount int    // children acquired in phase 1 (reports expected)
	children    []bool // attached and not detached

	// Phase 2.
	reports       int
	height        float64
	highestChild  int // neighbour position; -1 for none
	reported      bool
	report        forestReport
	clusterRoot   topology.NodeID
	rootAnnounced bool
}

func (n *forestNode) Init(ctx sim.Context) {
	if len(ctx.Neighbors()) == 0 {
		// Isolated node: a singleton cluster.
		n.becomeRoot(ctx)
		return
	}
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, ForestKindFeature, &n.cfg.Features[n.id])
	}
}

func (n *forestNode) OnTimer(sim.Context, string) {}

// slot returns nb's position in this node's sorted neighbour list.
func slot(ctx sim.Context, nb topology.NodeID) int {
	k, _ := slices.BinarySearch(ctx.Neighbors(), nb)
	return k
}

func (n *forestNode) OnMessage(ctx sim.Context, msg sim.Message) {
	switch msg.Kind {
	case ForestKindFeature:
		n.feats[slot(ctx, msg.From)] = msg.Payload.(*metric.Feature)
		if n.nfeats++; n.nfeats == len(ctx.Neighbors()) {
			n.chooseParent(ctx)
		}
	case ForestKindAttach:
		n.children[slot(ctx, msg.From)] = true
		n.attachCount++
		n.decisions++
		n.maybeReport(ctx)
	case ForestKindDecline:
		n.decisions++
		n.maybeReport(ctx)
	case ForestKindReport:
		n.onReport(ctx, slot(ctx, msg.From), msg.Payload.(*forestReport))
	case ForestKindDetach:
		// Our subtree is cut loose: we become a new cluster root
		// (the paper's "highest_child as the root").
		n.becomeRoot(ctx)
	case ForestKindRoot:
		n.announceRoot(ctx, *msg.Payload.(*topology.NodeID))
	}
}

// chooseParent implements phase 1's rule: parent = the smaller-id
// neighbour with the minimum feature distance (partial order by id rules
// out cycles). Every neighbour is told attach/decline so child counts are
// exact and leaves are detected without timeouts.
func (n *forestNode) chooseParent(ctx sim.Context) {
	best := topology.NodeID(-1)
	bestD := math.Inf(1)
	me := n.cfg.Features[n.id]
	for k, nb := range ctx.Neighbors() {
		if nb >= n.id {
			break // sorted: the rest are larger too
		}
		d := n.cfg.Metric.Distance(me, *n.feats[k])
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

// onReport takes the report of the child at neighbour position child.
func (n *forestNode) onReport(ctx sim.Context, child int, rep *forestReport) {
	n.reports++
	h := rep.Height + n.cfg.Metric.Distance(*rep.Feature, n.cfg.Features[n.id])
	nbrs := ctx.Neighbors()
	if h+n.height > n.cfg.Delta {
		// Detach the taller side.
		if h >= n.height {
			ctx.Send(nbrs[child], ForestKindDetach, nil)
			n.children[child] = false
		} else {
			ctx.Send(nbrs[n.highestChild], ForestKindDetach, nil)
			n.children[n.highestChild] = false
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
	n.report = forestReport{Height: n.height, Feature: &n.cfg.Features[n.id]}
	ctx.Send(n.parent, ForestKindReport, &n.report)
}

// becomeRoot marks this node as a cluster root and announces the cluster
// id down the (remaining) tree.
func (n *forestNode) becomeRoot(ctx sim.Context) {
	n.announceRoot(ctx, n.id)
}

func (n *forestNode) announceRoot(ctx sim.Context, root topology.NodeID) {
	if n.rootAnnounced {
		return
	}
	n.rootAnnounced = true
	n.clusterRoot = root
	// Neighbour order is id order, which keeps event sequencing
	// deterministic.
	for k, nb := range ctx.Neighbors() {
		if n.children[k] {
			ctx.Send(nb, ForestKindRoot, &n.clusterRoot)
		}
	}
}
