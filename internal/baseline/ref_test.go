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

// The map-based Hierarchical and SpanningForest that the slice-indexed
// baselines replaced, kept verbatim as references (renamed hierRef and
// forestRef, and the forest's types prefixed ref): per-cluster maps, a
// sorted pair list and one truncated BFS per adjacent root pair for the
// hierarchical baseline; per-node feature and child maps and boxed
// payloads for the forest. Their results must stay reflect.DeepEqual to
// the production code's.

func hierRef(g *topology.Graph, cfg HierConfig) (*cluster.Result, error) {
	n := g.N()
	if len(cfg.Features) != n {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), n)
	}

	// Cluster state: root id per cluster; diameter bound m; member lists.
	root := make([]int, n) // cluster label per node (smallest member id)
	for i := range root {
		root[i] = i
	}
	members := make(map[int][]topology.NodeID, n)
	diam := make(map[int]float64, n)          // bound on root-to-member distance
	croot := make(map[int]topology.NodeID, n) // cluster representative node
	for i := 0; i < n; i++ {
		members[i] = []topology.NodeID{topology.NodeID(i)}
		diam[i] = 0
		croot[i] = topology.NodeID(i)
	}

	stats := cluster.Stats{Breakdown: make(map[string]int64)}
	charge := func(kind string, cost int64) {
		stats.Breakdown[kind] += cost
		stats.Messages += cost
	}

	for round := 0; ; round++ {
		// Discover adjacent cluster pairs; members report up their trees.
		adj := make(map[[2]int]bool)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(topology.NodeID(u)) {
				a, b := root[u], root[int(v)]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				adj[[2]int{a, b}] = true
			}
		}
		if len(adj) == 0 {
			break
		}
		for _, mem := range members {
			charge("report", int64(len(mem)))
		}

		// Fitness evaluation between adjacent roots.
		type cand struct {
			other   int
			fitness float64
		}
		best := make(map[int]cand)
		pairs := make([][2]int, 0, len(adj))
		for p := range adj {
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, p := range pairs {
			i, j := p[0], p[1]
			ri, rj := croot[i], croot[j]
			charge("probe", 2*int64(g.HopDistance(ri, rj)))
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
			if c, ok := best[i]; !ok || mij < c.fitness || (mij == c.fitness && j < c.other) {
				best[i] = cand{other: j, fitness: mij}
			}
			if c, ok := best[j]; !ok || mij < c.fitness || (mij == c.fitness && i < c.other) {
				best[j] = cand{other: i, fitness: mij}
			}
		}

		// Mutually-best pairs merge.
		merged := false
		done := make(map[int]bool)
		labels := make([]int, 0, len(best))
		for l := range best {
			labels = append(labels, l)
		}
		sort.Ints(labels)
		for _, i := range labels {
			ci := best[i]
			j := ci.other
			if done[i] || done[j] {
				continue
			}
			if cj, ok := best[j]; !ok || cj.other != i {
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
			charge("merge", int64(len(members[lo])+len(members[hi])))
			for _, u := range members[hi] {
				root[u] = lo
			}
			members[lo] = append(members[lo], members[hi]...)
			delete(members, hi)
			diam[lo] = best[i].fitness
			croot[lo] = newRoot
			delete(diam, hi)
			delete(croot, hi)
			done[i], done[j] = true, true
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

func forestRef(g *topology.Graph, cfg ForestConfig) (*cluster.Result, error) {
	if len(cfg.Features) != g.N() {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), g.N())
	}
	net := sim.NewNetwork(g, sim.UnitDelay{}, cfg.Seed)
	nodes := make([]*refForestNode, g.N())
	sh := &refForestShared{cfg: cfg}
	for u := range nodes {
		nodes[u] = &refForestNode{sh: sh, id: topology.NodeID(u), parent: -1, clusterRoot: -1}
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

type refForestShared struct {
	cfg ForestConfig
}

type refForestReport struct {
	Height  float64
	Feature metric.Feature
}

type refForestRootMsg struct {
	Root topology.NodeID
}

// refForestNode is the per-node state machine of the two-phase algorithm.
type refForestNode struct {
	sh *refForestShared
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

func (n *refForestNode) cfg() ForestConfig { return n.sh.cfg }

func (n *refForestNode) Init(ctx sim.Context) {
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

func (n *refForestNode) OnTimer(sim.Context, string) {}

func (n *refForestNode) OnMessage(ctx sim.Context, msg sim.Message) {
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
		n.onReport(ctx, msg.From, msg.Payload.(refForestReport))
	case ForestKindDetach:
		// Our subtree is cut loose: we become a new cluster root
		// (the paper's "highest_child as the root").
		n.becomeRoot(ctx)
	case ForestKindRoot:
		r := msg.Payload.(refForestRootMsg)
		n.announceRoot(ctx, r.Root)
	}
}

// chooseParent implements phase 1's rule: parent = the smaller-id
// neighbour with the minimum feature distance (partial order by id rules
// out cycles). Every neighbour is told attach/decline so child counts are
// exact and leaves are detected without timeouts.
func (n *refForestNode) chooseParent(ctx sim.Context) {
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
func (n *refForestNode) maybeReport(ctx sim.Context) {
	if n.reported || n.decisions < len(ctx.Neighbors()) || n.reports < n.attachCount {
		return
	}
	n.sendReport(ctx)
}

func (n *refForestNode) onReport(ctx sim.Context, child topology.NodeID, rep refForestReport) {
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

func (n *refForestNode) sendReport(ctx sim.Context) {
	n.reported = true
	if n.parent < 0 {
		n.becomeRoot(ctx)
		return
	}
	ctx.Send(n.parent, ForestKindReport, refForestReport{Height: n.height, Feature: n.cfg().Features[n.id]})
}

// becomeRoot marks this node as a cluster root and announces the cluster
// id down the (remaining) tree.
func (n *refForestNode) becomeRoot(ctx sim.Context) {
	n.detachedRoot = true
	n.announceRoot(ctx, n.id)
}

func (n *refForestNode) announceRoot(ctx sim.Context, root topology.NodeID) {
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
		ctx.Send(ch, ForestKindRoot, refForestRootMsg{Root: root})
	}
}
