package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"elink/internal/detrand"
	"elink/internal/topology"
)

// AsyncNetwork runs one goroutine per sensor node with mailboxes as radio
// links. Message interleaving is whatever the Go scheduler produces, so it
// exercises protocols under genuine asynchrony — the setting the explicit
// signalling technique (paper §5) is designed for. Message accounting
// matches the event-driven Network.
//
// Timers are conservative: a timer only fires when the network is
// quiescent (no message queued or being handled), at which point the
// virtual clock jumps to the timer's deadline. This corresponds to
// time-outs chosen large enough to dominate any in-flight traffic, which
// is how the paper's implicit technique assumes its budgets are set.
type AsyncNetwork struct {
	Graph *topology.Graph

	protocols []Protocol
	boxes     []*mailbox
	rngs      []*rand.Rand

	pending atomic.Int64 // queued + in-flight handler executions
	quiet   chan struct{}

	mu      sync.Mutex
	counts  map[string]int64
	perNode []int64 // per-sender transmissions; atomic access

	clockBits atomic.Uint64 // virtual time as float bits

	timerMu sync.Mutex
	timers  asyncTimerHeap
	tseq    int64
}

type asyncEvent struct {
	msg     Message
	isTimer bool
	key     string
}

// mailbox is an unbounded FIFO so cyclic sends can never deadlock.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []asyncEvent
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(e asyncEvent) {
	m.mu.Lock()
	m.queue = append(m.queue, e)
	m.mu.Unlock()
	m.cond.Signal()
}

func (m *mailbox) pop() (asyncEvent, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return asyncEvent{}, false
	}
	e := m.queue[0]
	m.queue = m.queue[1:]
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

type asyncTimer struct {
	at   float64
	seq  int64
	node topology.NodeID
	key  string
}

type asyncTimerHeap []asyncTimer

func (h asyncTimerHeap) Len() int { return len(h) }
func (h asyncTimerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h asyncTimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *asyncTimerHeap) Push(x any)   { *h = append(*h, x.(asyncTimer)) }
func (h *asyncTimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// NewAsyncNetwork builds the goroutine runtime over g.
func NewAsyncNetwork(g *topology.Graph, seed int64) *AsyncNetwork {
	n := g.N()
	an := &AsyncNetwork{
		Graph:     g,
		protocols: make([]Protocol, n),
		boxes:     make([]*mailbox, n),
		rngs:      make([]*rand.Rand, n),
		counts:    make(map[string]int64),
		perNode:   make([]int64, n),
		quiet:     make(chan struct{}, 1),
	}
	for i := 0; i < n; i++ {
		an.boxes[i] = newMailbox()
		an.rngs[i] = detrand.New(seed + int64(i)*7919)
	}
	return an
}

// SetProtocol installs the state machine for node u.
func (an *AsyncNetwork) SetProtocol(u topology.NodeID, p Protocol) { an.protocols[u] = p }

// SetAll installs a protocol per node from a factory.
func (an *AsyncNetwork) SetAll(factory func(u topology.NodeID) Protocol) {
	for u := range an.protocols {
		an.protocols[u] = factory(topology.NodeID(u))
	}
}

// Messages returns the transmissions of the given kind so far.
func (an *AsyncNetwork) Messages(kind string) int64 {
	an.mu.Lock()
	defer an.mu.Unlock()
	return an.counts[kind]
}

// TotalMessages returns all transmissions across kinds.
func (an *AsyncNetwork) TotalMessages() int64 {
	an.mu.Lock()
	defer an.mu.Unlock()
	var t int64
	for _, c := range an.counts {
		t += c
	}
	return t
}

// MessageBreakdown returns a copy of the per-kind counters.
func (an *AsyncNetwork) MessageBreakdown() map[string]int64 {
	an.mu.Lock()
	defer an.mu.Unlock()
	out := make(map[string]int64, len(an.counts))
	for k, v := range an.counts {
		out[k] = v
	}
	return out
}

// TxPerNode returns, for every node, how many radio transmissions it has
// performed, matching the event-driven Network's attribution exactly:
// each hop of a routed message is charged to the node that forwards it.
func (an *AsyncNetwork) TxPerNode() []int64 {
	out := make([]int64, len(an.perNode))
	for i := range an.perNode {
		out[i] = atomic.LoadInt64(&an.perNode[i])
	}
	return out
}

func (an *AsyncNetwork) now() float64 {
	return math.Float64frombits(an.clockBits.Load())
}

// Run starts all node goroutines, initializes every protocol, and blocks
// until the network quiesces with no pending timers. It returns the final
// virtual time (advanced only by timer deadlines).
func (an *AsyncNetwork) Run() float64 {
	// Queue every Init before any goroutine starts: mailboxes are FIFO, so
	// each node is guaranteed to run Init before any message a faster
	// neighbour sends it. Init counts as pending work so quiescence cannot
	// be observed before every protocol has started.
	for u, p := range an.protocols {
		if p == nil {
			continue
		}
		an.pending.Add(1)
		an.boxes[u].push(asyncEvent{isTimer: true, key: initKey})
	}

	var wg sync.WaitGroup
	for u := range an.protocols {
		if an.protocols[u] == nil {
			continue
		}
		wg.Add(1)
		go an.nodeLoop(topology.NodeID(u), &wg) //elink:allow godiscipline — the async runtime models free-running sensor nodes; par's fork-join layout cannot express them
	}

	for {
		an.awaitQuiescence()
		if !an.fireNextTimers() {
			break
		}
	}

	for _, b := range an.boxes {
		b.close()
	}
	wg.Wait()
	return an.now()
}

const initKey = "\x00init"

func (an *AsyncNetwork) nodeLoop(u topology.NodeID, wg *sync.WaitGroup) {
	defer wg.Done()
	p := an.protocols[u]
	ctx := &asyncCtx{net: an, id: u}
	for {
		e, ok := an.boxes[u].pop()
		if !ok {
			return
		}
		if e.isTimer {
			if e.key == initKey {
				p.Init(ctx)
			} else {
				p.OnTimer(ctx, e.key)
			}
		} else {
			p.OnMessage(ctx, e.msg)
		}
		if an.pending.Add(-1) == 0 {
			select {
			case an.quiet <- struct{}{}:
			default:
			}
		}
	}
}

// awaitQuiescence blocks until no message is queued or being handled.
// pending is incremented before any enqueue and decremented only after the
// handler (including all sends it performs) returns, so observing zero is
// a stable property.
func (an *AsyncNetwork) awaitQuiescence() {
	for an.pending.Load() != 0 {
		<-an.quiet
	}
}

// fireNextTimers pops the earliest timer deadline, advances the virtual
// clock and dispatches every timer with that deadline. It reports whether
// any timer fired.
func (an *AsyncNetwork) fireNextTimers() bool {
	an.timerMu.Lock()
	defer an.timerMu.Unlock()
	if len(an.timers) == 0 {
		return false
	}
	at := an.timers[0].at
	an.clockBits.Store(math.Float64bits(at))
	for len(an.timers) > 0 && an.timers[0].at == at {
		t := heap.Pop(&an.timers).(asyncTimer)
		an.pending.Add(1)
		an.boxes[t.node].push(asyncEvent{isTimer: true, key: t.key})
	}
	return true
}

type asyncCtx struct {
	net *AsyncNetwork
	id  topology.NodeID
}

func (c *asyncCtx) ID() topology.NodeID          { return c.id }
func (c *asyncCtx) Now() float64                 { return c.net.now() }
func (c *asyncCtx) Neighbors() []topology.NodeID { return c.net.Graph.Neighbors(c.id) }
func (c *asyncCtx) Rand() *rand.Rand             { return c.net.rngs[c.id] }

func (c *asyncCtx) Send(to topology.NodeID, kind string, payload any) {
	an := c.net
	if to != c.id {
		if !an.Graph.HasEdge(c.id, to) {
			panic(fmt.Sprintf("sim: async Send from %d to non-neighbour %d", c.id, to))
		}
		an.mu.Lock()
		an.counts[kind]++
		an.mu.Unlock()
		atomic.AddInt64(&an.perNode[c.id], 1)
	}
	an.pending.Add(1)
	an.boxes[to].push(asyncEvent{msg: Message{From: c.id, To: to, Kind: kind, Payload: payload, Hops: hopCost(c.id, to)}})
}

func (c *asyncCtx) Route(to topology.NodeID, kind string, payload any) {
	an := c.net
	hops := 0
	if to != c.id {
		// The route walk runs outside the accounting mutex: routing is
		// concurrency-safe (each truncated BFS takes its own pooled
		// scratch), so goroutines never serialize on a BFS under the
		// global lock. Per-hop sender attribution is identical to
		// Network.Route's.
		hops = an.Graph.Walk(c.id, to, func(cur, _ topology.NodeID) bool {
			atomic.AddInt64(&an.perNode[cur], 1)
			return true
		})
		if hops < 0 {
			panic(fmt.Sprintf("sim: async Route from %d to unreachable %d", c.id, to))
		}
		an.mu.Lock()
		an.counts[kind] += int64(hops)
		an.mu.Unlock()
	}
	an.pending.Add(1)
	an.boxes[to].push(asyncEvent{msg: Message{From: c.id, To: to, Kind: kind, Payload: payload, Hops: hops}})
}

func (c *asyncCtx) SetTimer(delay float64, key string) {
	an := c.net
	an.timerMu.Lock()
	heap.Push(&an.timers, asyncTimer{at: an.now() + delay, seq: an.tseq, node: c.id, key: key})
	an.tseq++
	an.timerMu.Unlock()
}

func hopCost(from, to topology.NodeID) int {
	if from == to {
		return 0
	}
	return 1
}
