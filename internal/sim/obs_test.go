package sim

import (
	"testing"

	"elink/internal/obs"
	"elink/internal/topology"
)

// pingPong relays a token along a path for `hops` total sends.
type pingPong struct{ budget *int }

func (p *pingPong) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(ctx.Neighbors()[0], "token", nil)
		*p.budget--
	}
}

func (p *pingPong) OnMessage(ctx Context, msg Message) {
	if *p.budget <= 0 {
		return
	}
	*p.budget--
	ctx.Send(msg.From, "token", nil)
}

func (p *pingPong) OnTimer(Context, string) {}

// TestInstrumentMirrorsCounters checks that the registry sees exactly
// the transmissions the network's own accounting charges.
func TestInstrumentMirrorsCounters(t *testing.T) {
	g := topology.NewGrid(1, 2)
	net := NewNetwork(g, nil, 1)
	reg := obs.NewRegistry()
	net.Instrument(reg, "test")

	budget := 6
	net.SetAll(func(topology.NodeID) Protocol { return &pingPong{budget: &budget} })
	net.Run()

	want := net.Messages("token")
	if want == 0 {
		t.Fatal("protocol sent nothing")
	}
	if got := reg.Counter("sim_messages_total", "scope", "test", "kind", "token").Value(); got != want {
		t.Errorf("registry counter = %d, want %d", got, want)
	}
}

// TestInstrumentNoSinksIsNoOp pins that Instrument(nil, ...) leaves the
// network un-instrumented (zero overhead on the hot path).
func TestInstrumentNoSinksIsNoOp(t *testing.T) {
	g := topology.NewGrid(1, 2)
	net := NewNetwork(g, nil, 1)
	net.Instrument(nil, "test")
	if net.obs != nil {
		t.Error("nil sinks should not install an observer")
	}
}
