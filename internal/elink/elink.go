// Package elink implements the paper's core contribution: the ELink
// distributed δ-clustering algorithm (paper §3–§5).
//
// ELink grows clusters from sentinel nodes — the quadtree cell leaders —
// level by level. The single level-0 sentinel expands first; once its
// cluster is δ-compact the level-1 sentinels start, and so on, until every
// node is clustered. A sentinel elects itself cluster root and includes a
// neighbour j whenever d(F_root, F_j) ≤ δ/2; the triangle inequality then
// bounds every intra-cluster pair by δ. Nodes may switch clusters up to c
// times when the new root is a strict improvement (gain > φ) at the same
// sentinel level.
//
// Two signalling techniques order the sentinel levels:
//
//   - Implicit (§4, synchronous networks): every sentinel at level l
//     starts on a local timer at T = Σ_{j<l} t_j, where t_l is the
//     worst-case expansion budget derived from κ = (1+γ)√(N/2).
//   - Explicit (§5, asynchronous networks): a completion wave (ack1/ack2
//     up the cluster trees, phase1 up the quadtree, phase2 back down,
//     start to the next level) replaces the timers.
//
// Both run in O(√N log N) time and O(N) messages (Theorems 2 and 3).
package elink

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/sim"
	"elink/internal/topology"
)

// Mode selects the signalling technique.
type Mode int

const (
	// Implicit is the timer-driven technique for synchronous networks.
	Implicit Mode = iota
	// Explicit is the synchronization-wave technique for asynchronous
	// networks.
	Explicit
	// Unordered is the ablation sketched at the end of §5: the level
	// schedule is compressed to one time unit per level, so sentinel sets
	// race each other. It finishes in O(√N) time but clusters worse.
	Unordered
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Implicit:
		return "implicit"
	case Explicit:
		return "explicit"
	case Unordered:
		return "unordered"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Message kinds emitted by the protocol, exported so experiments can
// decompose costs.
const (
	KindExpand = "expand"
	KindAck1   = "ack1"
	KindNack   = "nack"
	KindAck2   = "ack2"
	KindPhase1 = "phase1"
	KindPhase2 = "phase2"
	KindStart  = "start"
)

// Config parameterizes a clustering run.
type Config struct {
	// Delta is the dissimilarity threshold δ of Definition 1.
	Delta float64
	// Phi is the quality gain a clustered node must see before switching
	// clusters. Defaults to 0.1·Delta, the paper's experimental setting.
	Phi float64
	// MaxSwitches is the paper's constant c (default 4).
	MaxSwitches int
	// Gamma is the path stretch factor used by the implicit schedule
	// (default 0.3, the middle of the paper's 0.2–0.4 range).
	Gamma float64
	// Metric measures feature dissimilarity; it must be a true metric.
	Metric metric.Metric
	// Features holds one feature per node.
	Features []metric.Feature
	// Mode selects implicit, explicit or unordered signalling.
	Mode Mode
	// Delay overrides the hop delay model (nil = synchronous unit delay).
	Delay sim.DelayModel
	// Loss injects independent per-hop message loss with the given
	// probability (fault injection). Implicit mode degrades gracefully —
	// every node still self-clusters on its own timer, at reduced
	// quality. Explicit mode may fail to cluster some nodes when
	// synchronization messages are lost; Run then returns an error
	// instead of a partial clustering.
	Loss float64
	// Seed drives any randomized delay model and the loss process.
	Seed int64
}

func (c *Config) withDefaults(n int) Config {
	out := *c
	if out.Phi == 0 {
		out.Phi = 0.1 * out.Delta
	}
	if out.MaxSwitches == 0 {
		out.MaxSwitches = 4
	}
	if out.Gamma == 0 {
		out.Gamma = 0.3
	}
	return out
}

func (c *Config) validate(g *topology.Graph) error {
	// NaN fails every comparison, so each bound is written to reject it.
	// Delta = +Inf is valid: one cluster per connected component.
	if !(c.Delta >= 0) {
		return fmt.Errorf("elink: delta %v is negative or NaN", c.Delta)
	}
	if math.IsNaN(c.Phi) || math.IsInf(c.Phi, 0) {
		return fmt.Errorf("elink: phi %v is not finite", c.Phi)
	}
	if math.IsNaN(c.Gamma) || math.IsInf(c.Gamma, 0) {
		return fmt.Errorf("elink: gamma %v is not finite", c.Gamma)
	}
	if c.Metric == nil {
		return fmt.Errorf("elink: nil metric")
	}
	if len(c.Features) != g.N() {
		return fmt.Errorf("elink: %d features for %d nodes", len(c.Features), g.N())
	}
	if !(c.Loss >= 0 && c.Loss < 1) {
		return fmt.Errorf("elink: loss %v out of [0,1)", c.Loss)
	}
	if c.Delay != nil {
		// Reject inverted, negative or non-finite delay bounds here with
		// an error; the simulator would otherwise panic before scheduling
		// events in the past (sim.ValidateDelay).
		if err := sim.ValidateDelay(c.Delay); err != nil {
			return fmt.Errorf("elink: %w", err)
		}
	}
	if c.Mode == Explicit && !g.Connected() {
		// The synchronization wave routes between quadtree cell leaders;
		// a partitioned network cannot deliver it. (Implicit mode works
		// per component: every node self-clusters on its own timer.)
		return fmt.Errorf("elink: explicit signalling requires a connected network")
	}
	return nil
}

// Run executes ELink on g and returns the resulting δ-clustering together
// with its communication cost. The returned clustering is normalized so
// every cluster's induced subgraph is connected (see
// Clustering.SplitDisconnected).
func Run(g *topology.Graph, cfg Config) (*cluster.Result, error) {
	net, rootOf, err := simulate(g, cfg)
	if err != nil {
		return nil, err
	}
	// Read the costs first so the network, and every node it holds, can
	// be collected while the clustering is built.
	stats := cluster.Stats{
		Messages:  net.TotalMessages(),
		Breakdown: net.MessageBreakdown(),
		Time:      net.Now(),
	}
	return &cluster.Result{Clustering: cluster.FromRoots(rootOf).SplitDisconnected(g), Stats: stats}, nil
}

// TxPerNode runs the same clustering as Run but returns the per-node
// transmission counts instead of the clustering — the input to energy and
// network-lifetime analyses (every hop is charged to its sender).
func TxPerNode(g *topology.Graph, cfg Config) ([]int64, error) {
	net, _, err := simulate(g, cfg)
	if err != nil {
		return nil, err
	}
	return net.TxPerNode(), nil
}

// simulate validates cfg, fills in its defaults and runs one ELink node
// per sensor on a fresh network until no event is left. It returns the
// drained network and every node's cluster root, or an error if a node
// finished unclustered.
func simulate(g *topology.Graph, cfg Config) (*sim.Network, []topology.NodeID, error) {
	if err := cfg.validate(g); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults(g.N())
	sh := newShared(g, topology.BuildQuadtree(g), cfg)
	net := sim.NewNetwork(g, cfg.Delay, cfg.Seed)
	if cfg.Loss > 0 {
		net.SetLoss(cfg.Loss)
	}
	nodes := make([]*node, g.N())
	for u := range nodes {
		nodes[u] = newNode(topology.NodeID(u), sh)
		net.SetProtocol(topology.NodeID(u), nodes[u])
	}
	net.Run()
	rootOf := make([]topology.NodeID, len(nodes))
	for u, nd := range nodes {
		if !nd.clustered {
			return nil, nil, fmt.Errorf("elink: node %d finished unclustered (lost synchronization messages under fault injection, or a protocol bug)", u)
		}
		rootOf[u] = nd.root
	}
	return net, rootOf, nil
}

// shared holds the inputs every node reads, derived once per run, and
// explicit mode's per-cell synchronization state.
type shared struct {
	g   *topology.Graph
	qt  *topology.Quadtree
	cfg Config

	// Implicit schedule.
	starts []float64

	// Explicit-mode cell bookkeeping, all derived from the quadtree.
	maxDepth []int // per cell: deepest occupied level in its subtree

	// Explicit mode's synchronization wave routes between the same leader
	// pairs round after round, so their paths are laid out once. For each
	// non-root cell c whose leader differs from its parent cell's, c's up
	// path runs from ℓ(c) to ℓ(parent) and is paths[pathOff[c]:pathOff[c+1]];
	// the down path runs back from ℓ(parent) to ℓ(c) and has the same
	// length, so the down paths follow the up paths with the same offsets
	// shifted by the up half's size, pathOff[len(Cells)]. Other cells'
	// ranges are empty.
	pathOff []int32
	paths   []topology.NodeID

	// Explicit mode's per-cell wave state. Only a cell's leader reads or
	// writes its entries, so they are node-local state held in one array.
	obligated  []bool
	phase1Seen []int32 // phase1 reports received for the active round

	// Cells each node leads, shallowest first: node u's are
	// ledCells[ledStart[u]:ledStart[u+1]].
	ledStart []int
	ledCells []int
}

func newShared(g *topology.Graph, qt *topology.Quadtree, cfg Config) *shared {
	sh := &shared{g: g, qt: qt, cfg: cfg}
	sh.starts = implicitSchedule(g.N(), qt.Depth, cfg.Gamma)
	sh.maxDepth = make([]int, len(qt.Cells))
	// Cells are created parent-before-children, so a reverse sweep
	// propagates subtree depths upward.
	for i := len(qt.Cells) - 1; i >= 0; i-- {
		c := &qt.Cells[i]
		sh.maxDepth[i] = c.Level
		for _, ch := range c.Children {
			if sh.maxDepth[ch] > sh.maxDepth[i] {
				sh.maxDepth[i] = sh.maxDepth[ch]
			}
		}
	}
	// Bucket cells by leader: count, prefix-sum, then fill in cell-id
	// order, which is shallowest first along each leader's chain of
	// nested cells. (An empty network's lone root cell has no leader.)
	sh.ledStart = make([]int, g.N()+1)
	for i := range qt.Cells {
		if u := qt.Cells[i].Leader; u >= 0 {
			sh.ledStart[u+1]++
		}
	}
	for u := 0; u < g.N(); u++ {
		sh.ledStart[u+1] += sh.ledStart[u]
	}
	sh.ledCells = make([]int, sh.ledStart[g.N()])
	fill := append([]int(nil), sh.ledStart[:g.N()]...)
	for i := range qt.Cells {
		if u := qt.Cells[i].Leader; u >= 0 {
			sh.ledCells[fill[u]] = i
			fill[u]++
		}
	}
	if cfg.Mode == Explicit {
		sh.layPaths()
		sh.obligated = make([]bool, len(qt.Cells))
		sh.phase1Seen = make([]int32, len(qt.Cells))
	}
	return sh
}

// layPaths fills the path arena: every up path first, walked exactly as
// Graph.Walk routes, then the down half, whose size the up paths fix.
// Explicit mode requires a connected network, so every walk arrives.
func (sh *shared) layPaths() {
	cells := sh.qt.Cells
	sh.pathOff = make([]int32, len(cells)+1)
	var paths []topology.NodeID
	for c := range cells {
		sh.pathOff[c] = int32(len(paths))
		if from, to, ok := sh.pair(c); ok {
			paths = append(paths, from)
			sh.g.Walk(from, to, func(_, next topology.NodeID) bool {
				paths = append(paths, next)
				return true
			})
		}
	}
	half := len(paths)
	sh.pathOff[len(cells)] = int32(half)
	sh.paths = slices.Grow(paths, half)[:2*half]
	for c := range cells {
		if from, to, ok := sh.pair(c); ok {
			down := sh.downPath(c)
			down[0] = to
			k := 1
			sh.g.Walk(to, from, func(_, next topology.NodeID) bool {
				down[k] = next
				k++
				return true
			})
		}
	}
}

// pair returns the leaders of cell c and of its parent cell when c's
// synchronization messages travel between two nodes.
func (sh *shared) pair(c int) (leader, parentLeader topology.NodeID, ok bool) {
	cell := &sh.qt.Cells[c]
	if cell.Parent < 0 {
		return 0, 0, false
	}
	leader, parentLeader = cell.Leader, sh.qt.Cells[cell.Parent].Leader
	return leader, parentLeader, leader != parentLeader
}

// upPath is the route from cell c's leader to its parent cell's leader.
func (sh *shared) upPath(c int) []topology.NodeID {
	return sh.paths[sh.pathOff[c]:sh.pathOff[c+1]]
}

// downPath is the route from cell c's parent cell's leader to c's leader.
func (sh *shared) downPath(c int) []topology.NodeID {
	half := sh.pathOff[len(sh.pathOff)-1]
	return sh.paths[half+sh.pathOff[c] : half+sh.pathOff[c+1]]
}

// implicitSchedule computes the timer offsets of the implicit signalling
// technique (paper §4): kappa = (1+gamma)·sqrt(N/2), the expansion budget
// t_l = kappa·(1 + 1/2 + … + 1/2^l), and the start time of level l,
// start_l = Σ_{j<l} t_j. It returns the start times of levels 0..depth.
func implicitSchedule(n, depth int, gamma float64) []float64 {
	kappa := (1 + gamma) * math.Sqrt(float64(n)/2)
	starts := make([]float64, depth+1)
	sum, acc := 0.0, 0.0
	for l := range starts {
		sum += 1 / math.Pow(2, float64(l))
		starts[l] = acc
		acc += kappa * sum
	}
	return starts
}

func (sh *shared) feature(u topology.NodeID) metric.Feature { return sh.cfg.Features[u] }

func (sh *shared) dist(a, b metric.Feature) float64 { return sh.cfg.Metric.Distance(a, b) }

// cellsLedBy returns the cells u leads, shallowest first.
func (sh *shared) cellsLedBy(u topology.NodeID) []int {
	return sh.ledCells[sh.ledStart[u]:sh.ledStart[u+1]]
}

// expandPayload carries a cluster-expansion offer.
type expandPayload struct {
	Root     topology.NodeID
	RootFeat metric.Feature
	Level    int   // sentinel level of the cluster root (the paper's n)
	Epoch    int64 // the sender's expansion session, for ack routing
}

// replyPayload references the expansion session being acknowledged.
type replyPayload struct {
	Epoch int64
}

// phasePayload carries the synchronization round between cell leaders.
type phasePayload struct {
	Round  int
	ToCell int
}

// startPayload instructs a cell leader to run its ELink obligation.
type startPayload struct {
	ToCell int
}

// session tracks one expansion wave a node initiated: the expand batch it
// sent, the replies still outstanding, and the cluster-tree children it
// acquired. Completion (no pending replies, no live children) propagates
// an ack2 to the session's parent — or, for a sentinel's root session,
// reports the cluster's expansion as finished to the quadtree machinery.
type session struct {
	epoch       int64
	parent      topology.NodeID // cluster-tree parent; -1 for a root session
	parentEpoch int64
	pending     int // outstanding ack1/nack replies
	children    int
	done        bool
	cellID      int // obligation fulfilled by this root session; -1 otherwise
}

// node is the per-sensor protocol state machine.
type node struct {
	sh *shared
	id topology.NodeID

	// Cluster membership (the paper's ⟨r_i, F_{r_i}, p⟩ plus level m).
	clustered bool
	root      topology.NodeID
	rootFeat  metric.Feature
	parent    topology.NodeID
	level     int // m: sentinel level of the cluster that holds this node

	switches  int
	nextEpoch int64
	// Explicit mode only: every session the node began, indexed by its
	// epoch's low 32 bits, so a reply looks its session up by index.
	// (Sessions complete independently, so a switch needs no cleanup.)
	sessions []*session
}

func newNode(id topology.NodeID, sh *shared) *node {
	return &node{
		sh:     sh,
		id:     id,
		root:   -1,
		parent: -1,
		level:  -1,
	}
}

func (n *node) explicit() bool { return n.sh.cfg.Mode == Explicit }

// Init implements sim.Protocol.
func (n *node) Init(ctx sim.Context) {
	switch n.sh.cfg.Mode {
	case Implicit, Unordered:
		for _, cid := range n.sh.cellsLedBy(n.id) {
			l := n.sh.qt.Cells[cid].Level
			var at float64
			if n.sh.cfg.Mode == Implicit {
				at = n.sh.starts[l]
			} else {
				at = float64(l) // compressed schedule: one unit per level
			}
			ctx.SetTimer(at, timerPrefix+strconv.Itoa(l))
		}
	case Explicit:
		// Only the root-cell leader self-starts; everything else waits
		// for the synchronization wave.
		if n.sh.qt.Cells[0].Leader == n.id {
			n.runObligation(ctx, 0)
		}
	}
}

// timerPrefix starts every sentinel timer key; the level follows it.
const timerPrefix = "elink:"

// OnTimer implements sim.Protocol (implicit signalling, Fig 17).
func (n *node) OnTimer(ctx sim.Context, key string) {
	level, ok := strings.CutPrefix(key, timerPrefix)
	if !ok {
		return
	}
	l, err := strconv.Atoi(level)
	if err != nil {
		return
	}
	n.startCluster(ctx, l, -1)
}

// startCluster is the paper's ELink(i): if unclustered, become the root of
// a new cluster at sentinel level l and expand. cellID, when >= 0, is the
// explicit-mode obligation this start fulfils.
func (n *node) startCluster(ctx sim.Context, l int, cellID int) {
	if n.clustered {
		if cellID >= 0 {
			n.reportObligation(ctx, cellID)
		}
		return
	}
	n.clustered = true
	n.root = n.id
	n.rootFeat = n.sh.feature(n.id)
	n.parent = n.id
	n.level = l

	s := n.newSession(-1, 0, cellID)
	n.broadcastExpand(ctx, s, -1)
	n.maybeComplete(ctx, s)
}

func (n *node) newSession(parent topology.NodeID, parentEpoch int64, cellID int) *session {
	epoch := int64(n.id)<<32 | n.nextEpoch
	n.nextEpoch++
	s := &session{epoch: epoch, parent: parent, parentEpoch: parentEpoch, cellID: cellID}
	if n.explicit() {
		n.sessions = append(n.sessions, s)
	}
	return s
}

// session returns the session an ack1, nack or ack2 refers to. Every
// reply goes to the node that began the session, and the epoch's low 32
// bits count that node's sessions.
func (n *node) session(epoch int64) *session { return n.sessions[uint32(epoch)] }

// broadcastExpand offers the current cluster to every neighbour except
// the one the node just joined through.
func (n *node) broadcastExpand(ctx sim.Context, s *session, except topology.NodeID) {
	// Box the offer once; every neighbour receives the same immutable value.
	var p any = expandPayload{Root: n.root, RootFeat: n.rootFeat, Level: n.level, Epoch: s.epoch}
	for _, nb := range ctx.Neighbors() {
		if nb == except {
			continue
		}
		ctx.Send(nb, KindExpand, p)
		s.pending++
	}
}

// OnMessage implements sim.Protocol.
func (n *node) OnMessage(ctx sim.Context, msg sim.Message) {
	switch msg.Kind {
	case KindExpand:
		n.onExpand(ctx, msg)
	case KindAck1:
		s := n.session(msg.Payload.(replyPayload).Epoch)
		s.pending--
		s.children++
		n.maybeComplete(ctx, s)
	case KindNack:
		s := n.session(msg.Payload.(replyPayload).Epoch)
		s.pending--
		n.maybeComplete(ctx, s)
	case KindAck2:
		s := n.session(msg.Payload.(replyPayload).Epoch)
		s.children--
		n.maybeComplete(ctx, s)
	case KindPhase1:
		n.onPhase1(ctx, msg.Payload.(phasePayload))
	case KindPhase2:
		n.onPhase2(ctx, msg.Payload.(phasePayload))
	case KindStart:
		p := msg.Payload.(startPayload)
		n.runObligation(ctx, p.ToCell)
	}
}

// onExpand applies Fig 16's join/switch rule.
func (n *node) onExpand(ctx sim.Context, msg sim.Message) {
	p := msg.Payload.(expandPayload)
	dNew := n.sh.dist(p.RootFeat, n.sh.feature(n.id))

	join := false
	if dNew <= n.sh.cfg.Delta/2 {
		if !n.clustered {
			join = true
		} else if p.Root != n.root && p.Level == n.level && n.switches < n.sh.cfg.MaxSwitches {
			// Switch for a strict quality gain above φ (the paper's
			// prose), or — the convergent rendering of Fig 16's
			// permissive "< d_old + φ" guard — on a tie, toward the
			// smaller root id, so equal-feature regions grown by racing
			// same-level sentinels consolidate instead of fragmenting.
			// See DESIGN.md.
			dOld := n.sh.dist(n.rootFeat, n.sh.feature(n.id))
			if dNew < dOld-n.sh.cfg.Phi || (dNew <= dOld && p.Root < n.root) {
				join = true
			}
		}
	}
	if !join {
		if n.explicit() {
			ctx.Send(msg.From, KindNack, replyPayload{Epoch: p.Epoch})
		}
		return
	}

	if n.clustered {
		n.switches++
	}
	n.clustered = true
	n.root = p.Root
	n.rootFeat = p.RootFeat
	n.parent = msg.From
	n.level = p.Level

	var s *session
	if n.explicit() {
		ctx.Send(msg.From, KindAck1, replyPayload{Epoch: p.Epoch})
		s = n.newSession(msg.From, p.Epoch, -1)
	} else {
		s = n.newSession(-1, 0, -1)
	}
	n.broadcastExpand(ctx, s, msg.From)
	n.maybeComplete(ctx, s)
}

// maybeComplete fires a session's completion side effects once.
func (n *node) maybeComplete(ctx sim.Context, s *session) {
	if !n.explicit() || s.done || s.pending != 0 || s.children != 0 {
		return
	}
	s.done = true
	if s.parent >= 0 {
		ctx.Send(s.parent, KindAck2, replyPayload{Epoch: s.parentEpoch})
		return
	}
	if s.cellID >= 0 {
		n.reportObligation(ctx, s.cellID)
	}
}

// --- Explicit signalling: the quadtree synchronization wave (Fig 18) ---

// runObligation handles a start signal for the given cell: cluster if
// still unclustered, then report completion into the phase1 wave.
func (n *node) runObligation(ctx sim.Context, cellID int) {
	if n.sh.obligated[cellID] {
		return
	}
	n.sh.obligated[cellID] = true
	// startCluster reports the obligation immediately when the node is
	// already clustered, or on root-session completion otherwise.
	n.startCluster(ctx, n.sh.qt.Cells[cellID].Level, cellID)
}

// reportObligation announces that the given cell's sentinel has finished
// its round.
func (n *node) reportObligation(ctx sim.Context, cellID int) {
	c := &n.sh.qt.Cells[cellID]
	if c.Parent < 0 {
		// Root cell: its round has no phase1/phase2; go straight to
		// starting the next level.
		n.startNextLevel(ctx, cellID, c.Level)
		return
	}
	payload := phasePayload{Round: c.Level, ToCell: c.Parent}
	if n.sh.qt.Cells[c.Parent].Leader == n.id {
		n.onPhase1(ctx, payload)
		return
	}
	ctx.RoutePath(n.sh.upPath(cellID), KindPhase1, payload)
}

// onPhase1 aggregates completion reports at a cell and forwards them up
// once every participating child subtree has reported.
func (n *node) onPhase1(ctx sim.Context, p phasePayload) {
	c := &n.sh.qt.Cells[p.ToCell]
	seen := &n.sh.phase1Seen[p.ToCell]
	*seen++
	var expected int32
	for _, ch := range c.Children {
		if n.sh.maxDepth[ch] >= p.Round {
			expected++
		}
	}
	if *seen < expected {
		return
	}
	*seen = 0 // reset for the next round
	if c.Parent < 0 {
		// The root has heard from every sentinel in S_round: start the
		// downward phase2 wave.
		n.sendPhase2Down(ctx, p.ToCell, p.Round)
		return
	}
	payload := phasePayload{Round: p.Round, ToCell: c.Parent}
	if n.sh.qt.Cells[c.Parent].Leader == n.id {
		n.onPhase1(ctx, payload)
		return
	}
	ctx.RoutePath(n.sh.upPath(p.ToCell), KindPhase1, payload)
}

// onPhase2 forwards the go-ahead wave down to the round's cells, which
// then start their children — the next sentinel level.
func (n *node) onPhase2(ctx sim.Context, p phasePayload) {
	c := &n.sh.qt.Cells[p.ToCell]
	if c.Level == p.Round {
		n.startNextLevel(ctx, p.ToCell, p.Round)
		return
	}
	n.sendPhase2Down(ctx, p.ToCell, p.Round)
}

func (n *node) sendPhase2Down(ctx sim.Context, cellID, round int) {
	c := &n.sh.qt.Cells[cellID]
	for _, ch := range c.Children {
		if n.sh.maxDepth[ch] < round {
			continue
		}
		payload := phasePayload{Round: round, ToCell: ch}
		if n.sh.qt.Cells[ch].Leader == n.id {
			n.onPhase2(ctx, payload)
			continue
		}
		ctx.RoutePath(n.sh.downPath(ch), KindPhase2, payload)
	}
}

// startNextLevel instructs the leaders of the cell's occupied children —
// sentinels in S_{level+1} — to begin their round.
func (n *node) startNextLevel(ctx sim.Context, cellID, level int) {
	c := &n.sh.qt.Cells[cellID]
	for _, ch := range c.Children {
		if n.sh.qt.Cells[ch].Leader == n.id {
			n.runObligation(ctx, ch)
			continue
		}
		ctx.RoutePath(n.sh.downPath(ch), KindStart, startPayload{ToCell: ch})
	}
}
