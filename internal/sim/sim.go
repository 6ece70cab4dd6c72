// Package sim is a deterministic discrete-event simulator for in-network
// sensor protocols.
//
// A Protocol is the per-node state machine (message handler + timers). The
// event-driven Network delivers single-hop messages between communication-
// graph neighbours and routed multi-hop messages along shortest hop paths,
// charging one message per radio hop, exactly the accounting the paper's
// experiments use (§8.2). Per-kind message counters let each experiment
// decompose its cost into expand/ack/phase traffic and so on.
//
// The paper's synchronous setting corresponds to the default unit hop
// delay; the asynchronous setting is modelled by a randomized hop delay
// (UniformDelay). Each seed fixes one interleaving, so an asynchronous
// schedule that breaks a protocol is reproducible from its seed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"elink/internal/detrand"
	"elink/internal/topology"
)

// Message is a protocol message as seen by the receiving node.
type Message struct {
	From, To topology.NodeID
	Kind     string
	Payload  any
	Hops     int // radio hops the message travelled (1 for neighbour sends)
}

// Context is the interface a protocol uses to interact with the network
// while handling an event.
type Context interface {
	// ID returns the node this handler runs on.
	ID() topology.NodeID
	// Now returns the current simulated time.
	Now() float64
	// Neighbors lists the node's communication-graph neighbours.
	Neighbors() []topology.NodeID
	// Send transmits a single-hop message. The destination must be a
	// neighbour or the node itself (self-sends are free and immediate,
	// used when one physical node plays several protocol roles).
	Send(to topology.NodeID, kind string, payload any)
	// Route transmits a message along the shortest hop path to an
	// arbitrary node, charging one message per hop.
	Route(to topology.NodeID, kind string, payload any)
	// RoutePath transmits a message along a path laid out in advance,
	// from path[0], which must be this node, to its last node, charging
	// one message per hop exactly as Route does. Given Graph.ShortestPath's
	// path, it leaves the network as Route would; a protocol that sends
	// between the same pairs again and again lays each path once.
	RoutePath(path []topology.NodeID, kind string, payload any)
	// SetTimer schedules OnTimer(key) after delay time units.
	SetTimer(delay float64, key string)
	// Rand returns the network's deterministic random source.
	Rand() *rand.Rand
}

// Protocol is a per-node state machine.
type Protocol interface {
	// Init runs once when the network starts.
	Init(ctx Context)
	// OnMessage handles a delivered message.
	OnMessage(ctx Context, msg Message)
	// OnTimer handles a timer set with SetTimer.
	OnTimer(ctx Context, key string)
}

// DelayModel produces the per-hop delivery delay.
type DelayModel interface {
	HopDelay(rng *rand.Rand, from, to topology.NodeID) float64
}

// UnitDelay is the synchronous model: every hop takes one time unit.
type UnitDelay struct{}

// HopDelay implements DelayModel.
func (UnitDelay) HopDelay(*rand.Rand, topology.NodeID, topology.NodeID) float64 { return 1 }

// UniformDelay models an asynchronous network: each hop takes a delay
// drawn uniformly from [Min, Max].
type UniformDelay struct {
	Min, Max float64
}

// HopDelay implements DelayModel.
func (d UniformDelay) HopDelay(rng *rand.Rand, _, _ topology.NodeID) float64 {
	return d.Min + rng.Float64()*(d.Max-d.Min)
}

// Validate rejects bounds that would schedule deliveries in the past or
// corrupt the event clock: a negative Min, an inverted Min > Max, or a
// NaN or infinite bound (the run would end at time NaN or +Inf).
func (d UniformDelay) Validate() error {
	if math.IsNaN(d.Min) || math.IsInf(d.Min, 0) || math.IsNaN(d.Max) || math.IsInf(d.Max, 0) {
		return fmt.Errorf("sim: UniformDelay bounds [%v, %v] are not finite", d.Min, d.Max)
	}
	if d.Min < 0 {
		return fmt.Errorf("sim: UniformDelay.Min %v is negative; hop delays must be >= 0", d.Min)
	}
	if d.Max < d.Min {
		return fmt.Errorf("sim: UniformDelay bounds inverted (Min %v > Max %v)", d.Min, d.Max)
	}
	return nil
}

// ValidateDelay checks a delay model's parameters when it exposes a
// Validate method (UniformDelay does); other models validate nothing.
func ValidateDelay(d DelayModel) error {
	if v, ok := d.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

type eventKind uint8

const (
	evMessage eventKind = iota
	evTimer
)

// event is one scheduled delivery or timer, packed to 64 bytes because
// the heap moves it on every sift step. A message's Message is rebuilt
// at dispatch: its To is always the handling node. Node ids and hop
// counts are held as int32; a network of 2^31 nodes would not fit in
// memory.
type event struct {
	time    float64
	seq     int64 // tie-break for determinism
	node    int32 // handling node (a message's To)
	from    int32 // a message's sender
	hops    int32 // radio hops a message travelled
	kind    eventKind
	label   string // a message's Kind or a timer's key
	payload any
}

// eventHeap is a binary min-heap of events by (time, seq). Its typed
// push and pop avoid container/heap's boxing of every event into an
// interface, which would cost an allocation per scheduled message. Both
// sift by moving events into a hole and write the sifted event once at
// the end, so each level costs one event copy instead of a swap's two.
// The order is a total one (seq is unique), so pops are deterministic.
type eventHeap []event

// before reports whether a pops ahead of b.
func before(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	q := *h
	if len(q) < cap(q) {
		q = q[:len(q)+1]
	} else {
		q = append(q, event{})
	}
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&e, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	if last > 0 {
		// Sift the last event down from the root's hole.
		i := 0
		for {
			m := 2*i + 1
			if m >= last {
				break
			}
			if r := m + 1; r < last && before(&q[r], &q[m]) {
				m = r
			}
			if !before(&q[m], &q[last]) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = q[last]
	}
	q[last] = event{} // release the payload
	*h = q[:last]
	return top
}

// queues is the free list of drained event queues. A run's queue grows
// to its peak pending-event count (2E for a flood over every edge), so
// taking a queue another run has drained saves regrowing it by append
// on every run; a queue goes back only after Run empties it, when pop
// has zeroed every slot it used, so no payload stays reachable. Sizing
// the queue up front instead would need a peak callers cannot predict:
// at 2,500 nodes it ranges from a few hundred events (explicit ELink)
// to over 12,000 (the spanning forest).
//
// A queue that stays on the list through a whole garbage-collection
// cycle is dropped at the next one (sweepQueues), so a process that has
// stopped simulating does not keep one alive: holding even a small
// queue for good made the quick figures' peak RSS jump by megabytes in
// about half the runs (DESIGN.md, Simulator). Unlike sync.Pool, the
// list drops nothing at random under the race detector, so a reused
// queue's zero allocations hold there too.
var queues struct {
	sync.Mutex
	free []eventHeap
	idle int // free[:idle] were already on the list at the last sweep
}

func init() { armQueueSweep() }

// queueSweeper is a sentinel the collector finds unreachable once per
// cycle; its finalizer sweeps the free list and arms a new sentinel.
// (It is two words so it is not packed into a tiny-object block, whose
// finalizers may never run.)
type queueSweeper struct{ _ [2]uintptr }

func armQueueSweep() {
	runtime.SetFinalizer(new(queueSweeper), func(*queueSweeper) {
		sweepQueues()
		armQueueSweep()
	})
}

// sweepQueues drops the queues that stayed idle since the last sweep and
// marks the rest idle.
func sweepQueues() {
	queues.Lock()
	defer queues.Unlock()
	kept := copy(queues.free, queues.free[queues.idle:])
	clear(queues.free[kept:])
	queues.free = queues.free[:kept]
	queues.idle = kept
}

func takeQueue() eventHeap {
	queues.Lock()
	defer queues.Unlock()
	if last := len(queues.free) - 1; last >= 0 {
		q := queues.free[last]
		queues.free[last] = nil
		queues.free = queues.free[:last]
		queues.idle = min(queues.idle, last)
		return q
	}
	return nil
}

func putQueue(q eventHeap) {
	queues.Lock()
	queues.free = append(queues.free, q[:0])
	queues.Unlock()
}

// Network is the deterministic discrete-event executor.
type Network struct {
	Graph *topology.Graph

	protocols []Protocol
	ctxs      []nodeCtx // one handler context per node, reused by every event
	delay     DelayModel
	rng       *rand.Rand

	pq  eventHeap
	now float64
	seq int64

	counts    map[string]int64
	perNode   []int64 // transmissions attributed to each sender
	delivered int64
	dropped   int64
	loss      float64

	maxEvents int64 // guards against protocol bugs that never quiesce
}

// NewNetwork builds an executor over g. delay defaults to UnitDelay when
// nil. The seed makes randomized delay models reproducible. Invalid delay
// parameters (e.g. an inverted UniformDelay) panic here, before any event
// can be scheduled in the past; library entry points validate the same
// bounds and return an error instead (elink.Config).
func NewNetwork(g *topology.Graph, delay DelayModel, seed int64) *Network {
	if delay == nil {
		delay = UnitDelay{}
	}
	if err := ValidateDelay(delay); err != nil {
		panic(err.Error())
	}
	n := &Network{
		Graph:     g,
		protocols: make([]Protocol, g.N()),
		ctxs:      make([]nodeCtx, g.N()),
		delay:     delay,
		rng:       detrand.New(seed),
		pq:        takeQueue(),
		counts:    make(map[string]int64),
		perNode:   make([]int64, g.N()),
		maxEvents: int64(g.N())*100000 + 1000000,
	}
	for u := range n.ctxs {
		n.ctxs[u] = nodeCtx{net: n, id: topology.NodeID(u)}
	}
	return n
}

// SetProtocol installs the state machine for node u.
func (n *Network) SetProtocol(u topology.NodeID, p Protocol) { n.protocols[u] = p }

// SetAll installs a protocol per node from a factory.
func (n *Network) SetAll(factory func(u topology.NodeID) Protocol) {
	for u := range n.protocols {
		n.protocols[u] = factory(topology.NodeID(u))
	}
}

// Now returns the current simulated time.
func (n *Network) Now() float64 { return n.now }

// Messages returns the number of radio transmissions of the given kind.
func (n *Network) Messages(kind string) int64 { return n.counts[kind] }

// TotalMessages returns all radio transmissions across kinds.
func (n *Network) TotalMessages() int64 {
	var t int64
	for _, c := range n.counts {
		t += c
	}
	return t
}

// MessageBreakdown returns a copy of the per-kind transmission counters.
func (n *Network) MessageBreakdown() map[string]int64 {
	out := make(map[string]int64, len(n.counts))
	for k, v := range n.counts {
		out[k] = v
	}
	return out
}

// SetLoss makes every radio hop fail independently with probability p
// (fault injection; transmissions are still charged — the radio energy is
// spent whether or not the frame arrives). Self-sends never fail.
func (n *Network) SetLoss(p float64) {
	if !(p >= 0 && p < 1) { // also rejects NaN
		panic(fmt.Sprintf("sim: loss probability %v out of [0,1)", p))
	}
	n.loss = p
}

// Dropped returns how many transmissions were lost to injected faults.
func (n *Network) Dropped() int64 { return n.dropped }

// TxPerNode returns, for every node, how many radio transmissions it has
// performed (each hop is attributed to its sender). Energy models divide
// a battery budget by these to estimate per-node lifetime: clustering's
// §1 motivation is exactly that it spreads this load instead of
// funnelling it through the base station's neighbours.
func (n *Network) TxPerNode() []int64 {
	out := make([]int64, len(n.perNode))
	copy(out, n.perNode)
	return out
}

// Run invokes Init on every installed protocol, then processes events
// until the queue drains, returning the final simulated time. The
// drained queue goes back to the free list for the next network. It
// panics if maxEvents is exceeded (a protocol that never terminates is a
// bug worth failing loudly on).
func (n *Network) Run() float64 {
	for u, p := range n.protocols {
		if p != nil {
			p.Init(&n.ctxs[u])
		}
	}
	end := n.drain()
	if cap(n.pq) > 0 {
		putQueue(n.pq)
	}
	n.pq = nil
	return end
}

// drain processes queued events until none remain.
func (n *Network) drain() float64 {
	var processed int64
	for len(n.pq) > 0 {
		e := n.pq.pop()
		processed++
		if processed > n.maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events; protocol likely does not terminate", n.maxEvents))
		}
		n.dispatch(e)
	}
	return n.now
}

// dispatch runs one event's handler, keeping the clock and the delivery
// accounting in step.
func (n *Network) dispatch(e event) {
	n.now = e.time
	p := n.protocols[e.node]
	if p == nil {
		return
	}
	ctx := &n.ctxs[e.node]
	switch e.kind {
	case evMessage:
		n.delivered++
		p.OnMessage(ctx, Message{From: topology.NodeID(e.from), To: topology.NodeID(e.node),
			Kind: e.label, Payload: e.payload, Hops: int(e.hops)})
	case evTimer:
		p.OnTimer(ctx, e.label)
	}
}

// pushMessage schedules the delivery of a message to node to at time at.
func (n *Network) pushMessage(at float64, from, to topology.NodeID, kind string, payload any, hops int) {
	n.push(event{time: at, kind: evMessage, node: int32(to), from: int32(from), hops: int32(hops),
		label: kind, payload: payload})
}

func (n *Network) push(e event) {
	e.seq = n.seq
	n.seq++
	n.pq.push(e)
}

// nodeCtx implements Context for one node's handlers. The Network owns
// one per node, so dispatching an event allocates no context.
type nodeCtx struct {
	net *Network
	id  topology.NodeID
}

func (c *nodeCtx) ID() topology.NodeID          { return c.id }
func (c *nodeCtx) Now() float64                 { return c.net.now }
func (c *nodeCtx) Neighbors() []topology.NodeID { return c.net.Graph.Neighbors(c.id) }
func (c *nodeCtx) Rand() *rand.Rand             { return c.net.rng }

func (c *nodeCtx) Send(to topology.NodeID, kind string, payload any) {
	n := c.net
	if to == c.id {
		// A node talking to itself (e.g. it is both cluster root and
		// quadtree leader) costs nothing.
		n.pushMessage(n.now, c.id, to, kind, payload, 0)
		return
	}
	if !n.Graph.HasEdge(c.id, to) {
		panic(fmt.Sprintf("sim: Send from %d to non-neighbour %d (use Route)", c.id, to))
	}
	if d, ok := n.hop(kind, c.id, to); ok {
		n.pushMessage(n.now+d, c.id, to, kind, payload, 1)
	}
}

func (c *nodeCtx) Route(to topology.NodeID, kind string, payload any) {
	n := c.net
	if to == c.id {
		n.pushMessage(n.now, c.id, to, kind, payload, 0)
		return
	}
	// The graph walks the smallest-id shortest path over a truncated BFS
	// on pooled scratch: no allocation on the per-message hot path.
	var delay float64
	lost := false
	hops := n.Graph.Walk(c.id, to, func(cur, next topology.NodeID) bool {
		d, ok := n.hop(kind, cur, next)
		delay += d
		lost = !ok
		return ok
	})
	if hops < 0 {
		panic(fmt.Sprintf("sim: Route from %d to unreachable %d", c.id, to))
	}
	if lost {
		return
	}
	n.pushMessage(n.now+delay, c.id, to, kind, payload, hops)
}

func (c *nodeCtx) RoutePath(path []topology.NodeID, kind string, payload any) {
	if len(path) == 0 || path[0] != c.id {
		panic(fmt.Sprintf("sim: RoutePath from %d along a path that does not start there: %v", c.id, path))
	}
	n := c.net
	var delay float64
	for i := 1; i < len(path); i++ {
		d, ok := n.hop(kind, path[i-1], path[i])
		if !ok {
			return
		}
		delay += d
	}
	n.pushMessage(n.now+delay, c.id, path[len(path)-1], kind, payload, len(path)-1)
}

// hop charges one radio hop from cur to next, of a neighbour send or a
// routed message, and draws its fate: it returns the hop's delay, or
// false when the frame is lost on this hop (a routed message's earlier
// hops stay paid for).
func (n *Network) hop(kind string, cur, next topology.NodeID) (float64, bool) {
	n.counts[kind]++
	n.perNode[cur]++
	if n.loss > 0 && n.rng.Float64() < n.loss {
		n.dropped++
		return 0, false
	}
	return n.delay.HopDelay(n.rng, cur, next), true
}

func (c *nodeCtx) SetTimer(delay float64, key string) {
	n := c.net
	n.push(event{time: n.now + delay, kind: evTimer, node: int32(c.id), label: key})
}
