package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"elink/internal/topology"
)

// reportProtocol is a small deterministic protocol whose accounting is
// independent of message interleaving: every node greets each neighbour
// once and routes one report to the sink, so the sync and async runtimes
// must produce identical counters.
type reportProtocol struct {
	sink topology.NodeID
}

func (p reportProtocol) Init(ctx Context) {
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, "hello", nil)
	}
	ctx.Route(p.sink, "report", nil)
}
func (reportProtocol) OnMessage(Context, Message) {}
func (reportProtocol) OnTimer(Context, string)    {}

// TestSyncAsyncAccountingParity pins AsyncNetwork's accounting — total
// and per-kind counts plus the per-sender TxPerNode attribution — to the
// event-driven Network's on the same protocol. The async runtime used to
// have no per-sender attribution at all, silently diverging from the
// energy model.
func TestSyncAsyncAccountingParity(t *testing.T) {
	g := topology.NewGrid(4, 5)
	proto := func(topology.NodeID) Protocol { return reportProtocol{sink: 0} }

	net := NewNetwork(g, nil, 1)
	net.SetAll(proto)
	net.Run()

	an := NewAsyncNetwork(g, 1)
	an.SetAll(proto)
	an.Run()

	if s, a := net.TotalMessages(), an.TotalMessages(); s != a {
		t.Errorf("TotalMessages: sync %d, async %d", s, a)
	}
	sb, ab := net.MessageBreakdown(), an.MessageBreakdown()
	for kind, sc := range sb {
		if ab[kind] != sc {
			t.Errorf("Messages(%q): sync %d, async %d", kind, sc, ab[kind])
		}
	}
	if len(ab) != len(sb) {
		t.Errorf("breakdown kinds: sync %v, async %v", sb, ab)
	}
	stx, atx := net.TxPerNode(), an.TxPerNode()
	for u := range stx {
		if stx[u] != atx[u] {
			t.Errorf("TxPerNode[%d]: sync %d, async %d", u, stx[u], atx[u])
		}
	}
}

// TestAsyncRoutePerNodeAttribution checks every hop of an async routed
// message is charged to the node that forwards it, not just counted in
// the per-kind totals.
func TestAsyncRoutePerNodeAttribution(t *testing.T) {
	g := topology.NewGrid(1, 5) // path 0-1-2-3-4
	an := NewAsyncNetwork(g, 1)
	an.SetProtocol(0, protoFunc{init: func(ctx Context) { ctx.Route(4, "far", nil) }})
	for u := 1; u < 5; u++ {
		an.SetProtocol(topology.NodeID(u), protoFunc{})
	}
	an.Run()
	want := []int64{1, 1, 1, 1, 0} // every node but the sink forwards once
	for u, w := range want {
		if tx := an.TxPerNode()[u]; tx != w {
			t.Errorf("TxPerNode[%d] = %d, want %d", u, tx, w)
		}
	}
}

// TestUniformDelayValidation checks inverted and negative bounds are
// rejected before they can schedule events in the past.
func TestUniformDelayValidation(t *testing.T) {
	cases := []struct {
		delay UniformDelay
		bad   bool
	}{
		{UniformDelay{Min: 2, Max: 1}, true},
		{UniformDelay{Min: -1, Max: 1}, true},
		{UniformDelay{Min: 0.5, Max: 1.5}, false},
		{UniformDelay{Min: 1, Max: 1}, false},
	}
	for _, c := range cases {
		err := ValidateDelay(c.delay)
		if c.bad && err == nil {
			t.Errorf("ValidateDelay(%+v) accepted invalid bounds", c.delay)
		}
		if !c.bad && err != nil {
			t.Errorf("ValidateDelay(%+v) = %v, want nil", c.delay, err)
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewNetwork accepted UniformDelay{Min:2, Max:1}")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "inverted") {
			t.Fatalf("panic message %q does not explain the inverted bounds", msg)
		}
	}()
	NewNetwork(topology.NewGrid(1, 2), UniformDelay{Min: 2, Max: 1}, 1)
}

// routingProtocol routes a burst of messages to destinations drawn from
// a fixed set, the hot path the truncated-BFS router serves.
type routingProtocol struct {
	dests []topology.NodeID
	burst int
}

func (p routingProtocol) Init(ctx Context) {
	for i := 0; i < p.burst; i++ {
		ctx.Route(p.dests[(int(ctx.ID())+i)%len(p.dests)], "data", nil)
	}
}
func (routingProtocol) OnMessage(Context, Message) {}
func (routingProtocol) OnTimer(Context, string)    {}

// TestAsyncConcurrentRouting routes from every node goroutine at once
// (run under -race): all nodes route bursts to overlapping destinations,
// each walk on its own pooled BFS scratch.
func TestAsyncConcurrentRouting(t *testing.T) {
	g := topology.NewGrid(8, 8)
	rng := rand.New(rand.NewSource(5))
	dests := make([]topology.NodeID, 16)
	for i := range dests {
		dests[i] = topology.NodeID(rng.Intn(g.N()))
	}
	an := NewAsyncNetwork(g, 1)
	an.SetAll(func(topology.NodeID) Protocol { return routingProtocol{dests: dests, burst: 8} })
	an.Run()

	// The same workload on the deterministic runtime must agree exactly.
	net := NewNetwork(g, nil, 1)
	net.SetAll(func(topology.NodeID) Protocol { return routingProtocol{dests: dests, burst: 8} })
	net.Run()
	if s, a := net.Messages("data"), an.Messages("data"); s != a {
		t.Errorf("routed cost: sync %d, async %d", s, a)
	}
	stx, atx := net.TxPerNode(), an.TxPerNode()
	for u := range stx {
		if stx[u] != atx[u] {
			t.Errorf("TxPerNode[%d]: sync %d, async %d", u, stx[u], atx[u])
		}
	}
}

// TestRouteMissAllocs pins a steady-state routed send at zero
// allocations: the graph walks it with a truncated BFS on pooled
// scratch.
func TestRouteMissAllocs(t *testing.T) {
	g := topology.NewGrid(16, 16)
	n := NewNetwork(g, nil, 1)
	ctx := &nodeCtx{net: n}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		ctx.id = topology.NodeID((i * 37) % g.N())
		ctx.Route(topology.NodeID((i*101+5)%g.N()), "data", nil)
		n.pq = n.pq[:0] // drop the delivery event; routing cost only
		i++
	})
	if allocs != 0 {
		t.Fatalf("Route allocates %v objects per message, want 0", allocs)
	}
}
