package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"elink/internal/topology"
)

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
