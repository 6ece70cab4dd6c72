package sim

import (
	"math/rand"
	"sort"
	"testing"

	"elink/internal/topology"
)

// TestEventHeapOrderProperty pushes events with few distinct times and
// shuffled sequence numbers, interleaved with pops, and checks that every
// pop returns the least remaining event by (time, seq), as a sort of the
// pending events says.
func TestEventHeapOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var pending []event
		seqs := rng.Perm(1 + rng.Intn(300))
		popOne := func() {
			sort.Slice(pending, func(i, j int) bool {
				if pending[i].time != pending[j].time {
					return pending[i].time < pending[j].time
				}
				return pending[i].seq < pending[j].seq
			})
			got := h.pop()
			if got.time != pending[0].time || got.seq != pending[0].seq || got.node != pending[0].node {
				t.Fatalf("trial %d: popped (t=%v, seq=%d), want (t=%v, seq=%d)",
					trial, got.time, got.seq, pending[0].time, pending[0].seq)
			}
			pending = pending[1:]
		}
		for _, seq := range seqs {
			e := event{time: float64(rng.Intn(4)), seq: int64(seq), node: int32(seq),
				label: "k", payload: seq}
			h.push(e)
			pending = append(pending, e)
			for len(pending) > 0 && rng.Intn(3) == 0 {
				popOne()
			}
		}
		for len(pending) > 0 {
			popOne()
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d events left after draining", trial, len(h))
		}
	}
}

// TestDispatchAllocs pins the event loop at zero allocations: scheduling,
// popping and dispatching a timer and a neighbour message to a no-op
// protocol (protoFunc with no closures) reuses the node's context and the
// heap's storage.
func TestDispatchAllocs(t *testing.T) {
	g := topology.NewGrid(4, 4)
	n := NewNetwork(g, nil, 1)
	n.SetAll(func(topology.NodeID) Protocol { return protoFunc{} })
	n.Run()
	ctx := &n.ctxs[0]
	nb := g.Neighbors(0)[0]
	allocs := testing.AllocsPerRun(100, func() {
		ctx.SetTimer(1, "tick")
		ctx.Send(nb, "ping", nil)
		n.drain()
	})
	if allocs != 0 {
		t.Fatalf("dispatching a timer and a message allocates %v objects, want 0", allocs)
	}
}
