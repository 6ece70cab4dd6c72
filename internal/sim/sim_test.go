package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"elink/internal/topology"
)

// floodProtocol floods a token from node 0 and records when each node
// first hears it.
type floodProtocol struct {
	heard   map[topology.NodeID]float64
	mu      *sync.Mutex
	started map[topology.NodeID]bool
}

func newFlood() *floodProtocol {
	return &floodProtocol{
		heard:   make(map[topology.NodeID]float64),
		mu:      &sync.Mutex{},
		started: make(map[topology.NodeID]bool),
	}
}

func (f *floodProtocol) Init(ctx Context) {
	f.mu.Lock()
	f.started[ctx.ID()] = true
	f.mu.Unlock()
	if ctx.ID() == 0 {
		f.hear(ctx)
	}
}

func (f *floodProtocol) OnMessage(ctx Context, msg Message) {
	if msg.Kind == "flood" {
		f.hear(ctx)
	}
}

func (f *floodProtocol) OnTimer(Context, string) {}

func (f *floodProtocol) hear(ctx Context) {
	f.mu.Lock()
	_, seen := f.heard[ctx.ID()]
	if !seen {
		f.heard[ctx.ID()] = ctx.Now()
	}
	f.mu.Unlock()
	if seen {
		return
	}
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, "flood", nil)
	}
}

func TestFloodReachesEveryoneAtHopTime(t *testing.T) {
	g := topology.NewGrid(4, 5)
	net := NewNetwork(g, nil, 1)
	f := newFlood()
	setAll(net, func(topology.NodeID) Protocol { return f })
	end := net.Run()

	for u := 0; u < g.N(); u++ {
		at, ok := f.heard[topology.NodeID(u)]
		if !ok {
			t.Fatalf("node %d never heard the flood", u)
		}
		if want := float64(g.HopDistance(0, topology.NodeID(u))); at != want {
			t.Errorf("node %d heard at t=%v, want %v (unit hop delay)", u, at, want)
		}
	}
	// Flood sends deg(u) messages per node => total = sum of degrees = 2E.
	if got, want := net.counts["flood"], int64(2*g.Edges()); got != want {
		t.Errorf("flood messages = %d, want %d", got, want)
	}
	if end != net.Now() {
		t.Error("Run should return final time")
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	g := topology.NewGrid(1, 3) // 0-1-2
	net := NewNetwork(g, nil, 1)
	net.SetProtocol(0, protoFunc{init: func(ctx Context) { ctx.Send(2, "x", nil) }})
	defer func() {
		if recover() == nil {
			t.Error("Send to non-neighbour should panic")
		}
	}()
	net.Run()
}

func TestRouteChargesHops(t *testing.T) {
	g := topology.NewGrid(1, 5) // path, 0..4
	net := NewNetwork(g, nil, 1)
	var arrived Message
	net.SetProtocol(0, protoFunc{init: func(ctx Context) { ctx.RoutePath(g.ShortestPath(0, 4), "hello", "payload") }})
	net.SetProtocol(4, protoFunc{onMsg: func(ctx Context, m Message) { arrived = m }})
	end := net.Run()
	if net.counts["hello"] != 4 {
		t.Errorf("routed message cost = %d, want 4 hops", net.counts["hello"])
	}
	if arrived.Hops != 4 || arrived.Payload != "payload" || arrived.From != 0 {
		t.Errorf("arrived = %+v", arrived)
	}
	if end != 4 {
		t.Errorf("delivery time = %v, want 4", end)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	g := topology.NewGrid(1, 2)
	net := NewNetwork(g, nil, 1)
	got := 0
	net.SetProtocol(0, protoFunc{
		init:  func(ctx Context) { ctx.Send(0, "self", nil); ctx.RoutePath([]topology.NodeID{0}, "self", nil) },
		onMsg: func(ctx Context, m Message) { got++ },
	})
	net.Run()
	if got != 2 {
		t.Errorf("self messages delivered = %d, want 2", got)
	}
	if net.TotalMessages() != 0 {
		t.Errorf("self sends cost = %d, want 0", net.TotalMessages())
	}
}

// TestUniformDelayValidation checks inverted, negative and non-finite
// bounds are rejected before they can schedule events in the past or at
// a NaN or infinite time.
func TestUniformDelayValidation(t *testing.T) {
	cases := []struct {
		delay UniformDelay
		bad   bool
	}{
		{UniformDelay{Min: 2, Max: 1}, true},
		{UniformDelay{Min: -1, Max: 1}, true},
		{UniformDelay{Min: 0.5, Max: 1.5}, false},
		{UniformDelay{Min: 1, Max: 1}, false},
		{UniformDelay{Min: 0, Max: math.NaN()}, true},
		{UniformDelay{Min: 0, Max: math.Inf(1)}, true},
		{UniformDelay{Min: math.NaN(), Max: 1}, true},
		{UniformDelay{Min: math.Inf(1), Max: math.Inf(1)}, true},
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

func TestTimersFireInOrder(t *testing.T) {
	g := topology.NewGrid(1, 1)
	net := NewNetwork(g, nil, 1)
	var fired []string
	net.SetProtocol(0, protoFunc{
		init: func(ctx Context) {
			ctx.SetTimer(5, "b")
			ctx.SetTimer(2, "a")
			ctx.SetTimer(9, "c")
		},
		onTimer: func(ctx Context, key string) { fired = append(fired, key) },
	})
	end := net.Run()
	if len(fired) != 3 || fired[0] != "a" || fired[1] != "b" || fired[2] != "c" {
		t.Errorf("timer order = %v, want [a b c]", fired)
	}
	if end != 9 {
		t.Errorf("final time = %v, want 9", end)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() (float64, int64) {
		g := topology.NewGrid(5, 5)
		net := NewNetwork(g, UniformDelay{Min: 0.5, Max: 1.5}, 99)
		f := newFlood()
		setAll(net, func(topology.NodeID) Protocol { return f })
		return net.Run(), net.TotalMessages()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Errorf("same seed produced different runs: (%v,%d) vs (%v,%d)", t1, m1, t2, m2)
	}
}

func TestUniformDelayWithinBounds(t *testing.T) {
	g := topology.NewGrid(1, 2)
	net := NewNetwork(g, UniformDelay{Min: 2, Max: 3}, 7)
	var at float64
	net.SetProtocol(0, protoFunc{init: func(ctx Context) { ctx.Send(1, "x", nil) }})
	net.SetProtocol(1, protoFunc{onMsg: func(ctx Context, m Message) { at = ctx.Now() }})
	net.Run()
	if at < 2 || at > 3 {
		t.Errorf("delivery at %v, want within [2,3]", at)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	g := topology.NewGrid(1, 2)
	net := NewNetwork(g, nil, 1)
	net.maxEvents = 100
	// Ping-pong forever.
	setAll(net, func(u topology.NodeID) Protocol {
		return protoFunc{
			init:  func(ctx Context) { ctx.Send(1-ctx.ID(), "ping", nil) },
			onMsg: func(ctx Context, m Message) { ctx.Send(m.From, "ping", nil) },
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("runaway protocol should trip maxEvents")
		}
	}()
	net.Run()
}

// setAll installs a protocol per node from a factory.
func setAll(n *Network, factory func(u topology.NodeID) Protocol) {
	for u := range n.protocols {
		n.protocols[u] = factory(topology.NodeID(u))
	}
}

// protoFunc adapts closures to the Protocol interface.
type protoFunc struct {
	init    func(Context)
	onMsg   func(Context, Message)
	onTimer func(Context, string)
}

func (p protoFunc) Init(ctx Context) {
	if p.init != nil {
		p.init(ctx)
	}
}
func (p protoFunc) OnMessage(ctx Context, m Message) {
	if p.onMsg != nil {
		p.onMsg(ctx, m)
	}
}
func (p protoFunc) OnTimer(ctx Context, key string) {
	if p.onTimer != nil {
		p.onTimer(ctx, key)
	}
}

func TestLossDropsButStillCharges(t *testing.T) {
	g := topology.NewGrid(1, 2)
	net := NewNetwork(g, nil, 3)
	net.SetLoss(0.5)
	received := 0
	net.SetProtocol(0, protoFunc{init: func(ctx Context) {
		for i := 0; i < 200; i++ {
			ctx.Send(1, "x", nil)
		}
	}})
	net.SetProtocol(1, protoFunc{onMsg: func(Context, Message) { received++ }})
	net.Run()
	if net.counts["x"] != 200 {
		t.Errorf("charged = %d, want all 200 (radio energy is spent)", net.counts["x"])
	}
	if net.dropped == 0 || received == 200 {
		t.Errorf("dropped = %d received = %d; loss had no effect", net.dropped, received)
	}
	if net.dropped+int64(received) != 200 {
		t.Errorf("dropped %d + received %d != 200", net.dropped, received)
	}
	// Roughly half should survive.
	if received < 60 || received > 140 {
		t.Errorf("received = %d, want near 100 at 50%% loss", received)
	}
}

func TestLossOnRoutedPath(t *testing.T) {
	g := topology.NewGrid(1, 6)
	net := NewNetwork(g, nil, 9)
	net.SetLoss(0.3)
	delivered := 0
	net.SetProtocol(0, protoFunc{init: func(ctx Context) {
		path := g.ShortestPath(0, 5)
		for i := 0; i < 100; i++ {
			ctx.RoutePath(path, "far", nil)
		}
	}})
	net.SetProtocol(5, protoFunc{onMsg: func(Context, Message) { delivered++ }})
	net.Run()
	// Survival over 5 hops ≈ 0.7^5 ≈ 17%.
	if delivered < 3 || delivered > 45 {
		t.Errorf("delivered = %d, want near 17 over a 5-hop lossy path", delivered)
	}
	// Partial paths are still charged: cost strictly between the
	// delivered-only floor and the loss-free total.
	if net.counts["far"] >= 500 || net.counts["far"] <= int64(delivered*5) {
		t.Errorf("charged = %d; expected partial-path charging", net.counts["far"])
	}
}

func TestSetLossValidation(t *testing.T) {
	net := NewNetwork(topology.NewGrid(1, 2), nil, 1)
	for _, p := range []float64{-0.1, 1.0, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLoss(%v) did not panic", p)
				}
			}()
			net.SetLoss(p)
		}()
	}
}

func TestTxPerNodeAttribution(t *testing.T) {
	g := topology.NewGrid(1, 4) // 0-1-2-3
	net := NewNetwork(g, nil, 1)
	net.SetProtocol(0, protoFunc{init: func(ctx Context) {
		ctx.Send(1, "a", nil)                         // 0 transmits once
		ctx.RoutePath(g.ShortestPath(0, 3), "b", nil) // 0, 1, 2 each transmit once
	}})
	for u := 1; u < 4; u++ {
		net.SetProtocol(topology.NodeID(u), protoFunc{})
	}
	net.Run()
	tx := net.TxPerNode()
	want := []int64{2, 1, 1, 0}
	for u := range want {
		if tx[u] != want[u] {
			t.Errorf("tx[%d] = %d, want %d", u, tx[u], want[u])
		}
	}
}
