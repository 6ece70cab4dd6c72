package elink

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"elink/internal/topology"
)

func TestImplicitSchedule(t *testing.T) {
	g := topology.NewGrid(8, 8)
	starts := implicitSchedule(g.N(), g.Quadtree().Depth, 0.3)
	kappa := 1.3 * math.Sqrt(64.0/2)
	if starts[0] != 0 {
		t.Errorf("start_0 = %v, want 0", starts[0])
	}
	if len(starts) < 3 {
		t.Fatalf("%d levels, want at least 3 for 64 nodes", len(starts))
	}
	if t0 := starts[1] - starts[0]; math.Abs(t0-kappa) > 1e-9 {
		t.Errorf("t_0 = %v, want kappa = %v", t0, kappa)
	}
	// The budget of level l is t_l = starts[l+1] - starts[l].
	for l := 1; l+1 < len(starts); l++ {
		prev, budget := starts[l]-starts[l-1], starts[l+1]-starts[l]
		if budget <= prev {
			t.Errorf("budgets must increase: t_%d=%v <= t_%d=%v", l, budget, l-1, prev)
		}
		if budget >= 2*kappa {
			t.Errorf("t_%d = %v must stay below 2*kappa = %v", l, budget, 2*kappa)
		}
		if want := kappa * (2 - math.Pow(2, -float64(l))); math.Abs(budget-want) > 1e-9 {
			t.Errorf("t_%d = %v, want kappa*(2-2^-%d) = %v", l, budget, l, want)
		}
	}
}

// Property: sentinel start times are strictly increasing in level and
// budgets stay below 2*kappa (the geometric-series bound in Theorem 2).
func TestImplicitScheduleBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomGeometricForDegree(20+rng.Intn(100), 4, rng)
		gamma := 0.2 + rng.Float64()*0.2
		starts := implicitSchedule(g.N(), g.Quadtree().Depth, gamma)
		kappa := (1 + gamma) * math.Sqrt(float64(g.N())/2)
		for l := 0; l+1 < len(starts); l++ {
			budget := starts[l+1] - starts[l]
			if budget >= 2*kappa {
				return false
			}
			if l > 0 && budget <= starts[l]-starts[l-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
