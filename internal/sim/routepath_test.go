package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"elink/internal/topology"
)

// delivery is what a recorder sees of one delivered message.
type delivery struct {
	at       float64
	from, to topology.NodeID
	hops     int
}

// recordingNet is a network whose every node appends the messages it
// receives to log.
func recordingNet(g *topology.Graph, delay DelayModel, seed int64, loss float64) (*Network, *[]delivery) {
	n := NewNetwork(g, delay, seed)
	if loss > 0 {
		n.SetLoss(loss)
	}
	log := new([]delivery)
	setAll(n, func(topology.NodeID) Protocol {
		return protoFunc{onMsg: func(ctx Context, m Message) {
			*log = append(*log, delivery{at: ctx.Now(), from: m.From, to: m.To, hops: m.Hops})
		}}
	})
	return n, log
}

// routeRef is the reference RoutePath is held to: it walks the
// smallest-id shortest path from the sender to to hop by hop with
// Graph.Walk, charging and drawing each hop through Network.hop, and
// delivers after the sum of the hop delays unless a hop lost the frame.
// A send to the sender itself is free and immediate.
func routeRef(c *nodeCtx, to topology.NodeID, kind string, payload any) {
	n := c.net
	if to == c.id {
		n.pushMessage(n.now, c.id, to, kind, payload, 0)
		return
	}
	var delay float64
	lost := false
	hops := n.Graph.Walk(c.id, to, func(cur, next topology.NodeID) bool {
		d, ok := n.hop(kind, cur, next)
		delay += d
		lost = !ok
		return ok
	})
	if hops < 0 {
		panic(fmt.Sprintf("routeRef from %d to unreachable %d", c.id, to))
	}
	if !lost {
		n.pushMessage(n.now+delay, c.id, to, kind, payload, hops)
	}
}

// TestRoutePathMatchesRoute sends the same random pairs through routeRef
// on one network and through RoutePath along Graph.ShortestPath on a
// second network with the same seed. Both must charge the same hops to
// the same senders, lose the same frames, deliver at the same times with
// the same hop counts, and leave the random source at the same point.
func TestRoutePathMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := []struct {
		name string
		g    *topology.Graph
	}{
		{"grid-9x11", topology.NewGrid(9, 11)},
		{"rgg-150", topology.RandomGeometricForDegree(150, 4, rng)},
	}
	models := []struct {
		name  string
		delay DelayModel
		loss  float64
	}{
		{"unit", UnitDelay{}, 0},
		{"uniform", UniformDelay{Min: 0.1, Max: 2.5}, 0},
		{"loss", UnitDelay{}, 0.3},
		{"uniform+loss", UniformDelay{Min: 0.1, Max: 2.5}, 0.3},
	}
	for _, tg := range graphs {
		for _, m := range models {
			where := fmt.Sprintf("%s/%s", tg.name, m.name)
			routed, routedLog := recordingNet(tg.g, m.delay, 17, m.loss)
			laid, laidLog := recordingNet(tg.g, m.delay, 17, m.loss)
			for i := 0; i < 200; i++ {
				from := topology.NodeID(rng.Intn(tg.g.N()))
				to := topology.NodeID(rng.Intn(tg.g.N()))
				if i%25 == 0 {
					to = from
				}
				kind := []string{"a", "b", "c"}[i%3]
				routeRef(&routed.ctxs[from], to, kind, nil)
				routed.drain()
				laid.ctxs[from].RoutePath(tg.g.ShortestPath(from, to), kind, nil)
				laid.drain()
			}
			if !slices.Equal(*routedLog, *laidLog) {
				t.Fatalf("%s: deliveries differ:\nrouteRef  %v\nRoutePath %v", where, *routedLog, *laidLog)
			}
			if m.loss > 0 && routed.dropped == 0 {
				t.Fatalf("%s: no frame was lost; the loss draws went untested", where)
			}
			if a, b := routed.MessageBreakdown(), laid.MessageBreakdown(); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s: breakdown %v vs %v", where, a, b)
			}
			if !slices.Equal(routed.TxPerNode(), laid.TxPerNode()) {
				t.Fatalf("%s: per-node transmissions differ", where)
			}
			if routed.dropped != laid.dropped {
				t.Fatalf("%s: dropped %d vs %d", where, routed.dropped, laid.dropped)
			}
			if a, b := routed.rng.Float64(), laid.rng.Float64(); a != b {
				t.Fatalf("%s: random source diverged: next draw %v vs %v", where, a, b)
			}
		}
	}
}

// TestRoutePathAllocs pins a send along a laid-out path at zero
// allocations.
func TestRoutePathAllocs(t *testing.T) {
	g := topology.NewGrid(16, 16)
	n := NewNetwork(g, nil, 1)
	ctx := &nodeCtx{net: n}
	paths := make([][]topology.NodeID, 64)
	for i := range paths {
		paths[i] = g.ShortestPath(topology.NodeID((i*37)%g.N()), topology.NodeID((i*101+5)%g.N()))
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p := paths[i%len(paths)]
		ctx.id = p[0]
		ctx.RoutePath(p, "data", nil)
		n.pq = n.pq[:0] // drop the delivery event; routing cost only
		i++
	})
	if allocs != 0 {
		t.Fatalf("RoutePath allocates %v objects per message, want 0", allocs)
	}
}

// TestRoutePathFromOtherNodePanics checks a path must start at the
// sender: a protocol handing over another node's path is a bug.
func TestRoutePathFromOtherNodePanics(t *testing.T) {
	g := topology.NewGrid(1, 4)
	for _, path := range [][]topology.NodeID{{1, 2, 3}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RoutePath(%v) from node 0 did not panic", path)
				}
			}()
			NewNetwork(g, nil, 1).ctxs[0].RoutePath(path, "x", nil)
		}()
	}
}

// payloadFlood is a network on g whose node 0 floods a token carrying a
// pointer payload, so a queue that kept an event would keep the payload.
func payloadFlood(g *topology.Graph, delay DelayModel, seed int64) *Network {
	n := NewNetwork(g, delay, seed)
	payload := &struct{ hops int }{}
	heard := make([]bool, g.N())
	setAll(n, func(u topology.NodeID) Protocol {
		relay := func(ctx Context) {
			for _, nb := range ctx.Neighbors() {
				ctx.Send(nb, "flood", payload)
			}
		}
		return protoFunc{
			init: func(ctx Context) {
				if u == 0 {
					ctx.SetTimer(0, "go")
				}
			},
			onTimer: func(ctx Context, _ string) { relay(ctx) },
			onMsg: func(ctx Context, _ Message) {
				if !heard[u] {
					heard[u] = true
					relay(ctx)
				}
			},
		}
	})
	return n
}

// TestRunReturnsCleanQueue checks the queue a run puts back on the free
// list: it is empty, every slot of its capacity is the zero event (no
// payload a run left stays reachable), and the next network on the same
// graph takes it and runs in it without growing it. Collection is off,
// so no sweep can drop the queue in between.
func TestRunReturnsCleanQueue(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := topology.NewGrid(6, 7)
	top := func() eventHeap {
		queues.Lock()
		defer queues.Unlock()
		if len(queues.free) == 0 {
			t.Fatal("Run put no queue on the free list")
		}
		return queues.free[len(queues.free)-1]
	}
	// base identifies a queue's backing array.
	base := func(q eventHeap) *event { return &q[:1][0] }

	first := payloadFlood(g, nil, 1)
	first.Run()
	if first.pq != nil {
		t.Fatal("the network still holds the queue it put back")
	}
	q := top()
	if len(q) != 0 || cap(q) == 0 {
		t.Fatalf("returned queue has len %d cap %d, want len 0 and room", len(q), cap(q))
	}
	for i, e := range q[:cap(q)] {
		if e != (event{}) {
			t.Fatalf("slot %d of the returned queue still holds %+v", i, e)
		}
	}

	second := payloadFlood(g, nil, 1)
	if cap(second.pq) != cap(q) || base(second.pq) != base(q) {
		t.Fatal("NewNetwork did not take the drained queue")
	}
	second.Run()
	if again := top(); cap(again) != cap(q) || base(again) != base(q) {
		t.Fatalf("a second run on the same graph grew the queue: cap %d -> %d", cap(q), cap(again))
	}
}

// TestIdleQueueIsSwept checks that a queue left on the free list while
// nothing simulates is dropped after a few collections, so the list
// does not keep it alive for the rest of the process.
func TestIdleQueueIsSwept(t *testing.T) {
	payloadFlood(topology.NewGrid(5, 5), nil, 1).Run()
	queues.Lock()
	q := queues.free[len(queues.free)-1]
	queues.Unlock()
	onList := func() bool {
		queues.Lock()
		defer queues.Unlock()
		for _, f := range queues.free {
			if &f[:1][0] == &q[:1][0] {
				return true
			}
		}
		return false
	}
	// The sweep runs in a finalizer after each collection; give it time.
	for i := 0; i < 100 && onList(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if onList() {
		t.Fatal("an idle queue survived 100 collections on the free list")
	}
}

// TestConcurrentRunsShareNoQueue runs seeded asynchronous floods from
// several goroutines at once, as figures do under -j, so networks take
// and return queues concurrently; run with -race. A queue handed to two
// live networks would mix their events, so every run must end exactly
// as the same seed's serial run does.
func TestConcurrentRunsShareNoQueue(t *testing.T) {
	g := topology.NewGrid(7, 8)
	delay := UniformDelay{Min: 0.1, Max: 2.5}
	want := make([]float64, 8)
	for seed := range want {
		want[seed] = payloadFlood(g, delay, int64(seed)).Run()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seed := (w + i) % len(want)
				if end := payloadFlood(g, delay, int64(seed)).Run(); end != want[seed] {
					t.Errorf("seed %d ended at %v concurrently, %v serially", seed, end, want[seed])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
