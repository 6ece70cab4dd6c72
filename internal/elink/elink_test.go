package elink

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/sim"
	"elink/internal/topology"
)

// smoothField builds a spatially correlated scalar feature per node so
// clusterings are non-trivial: feature = step function over x plus mild
// noise.
func smoothField(g *topology.Graph, rng *rand.Rand, plateaus int, jump float64) []metric.Feature {
	min, max := g.BoundingBox()
	span := max.X - min.X
	if span == 0 {
		span = 1
	}
	feats := make([]metric.Feature, g.N())
	for u := range feats {
		band := int((g.Pos[u].X - min.X) / span * float64(plateaus))
		if band >= plateaus {
			band = plateaus - 1
		}
		feats[u] = metric.Feature{float64(band)*jump + rng.Float64()*0.1}
	}
	return feats
}

func constFeats(n int, v float64) []metric.Feature {
	fs := make([]metric.Feature, n)
	for i := range fs {
		fs[i] = metric.Feature{v}
	}
	return fs
}

func mustRun(t *testing.T, g *topology.Graph, cfg Config) *cluster.Result {
	t.Helper()
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func validateResult(t *testing.T, g *topology.Graph, res *cluster.Result, feats []metric.Feature, m metric.Metric, delta float64) {
	t.Helper()
	if err := res.Clustering.Validate(g, feats, m, delta, 1e-9); err != nil {
		t.Fatalf("invalid clustering: %v", err)
	}
}

func TestImplicitSingleClusterWhenUniform(t *testing.T) {
	g := topology.NewGrid(6, 6)
	feats := constFeats(g.N(), 5)
	res := mustRun(t, g, Config{Delta: 1, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	if res.Clustering.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1 for identical features", res.Clustering.NumClusters())
	}
	validateResult(t, g, res, feats, metric.Scalar{}, 1)
	// Only the level-0 sentinel should have expanded: later sentinels are
	// clustered before their timers fire, so no extra expand storms.
	if res.Stats.Breakdown[KindExpand] > int64(2*g.Edges()+4*g.N()) {
		t.Errorf("expand messages = %d, suspiciously many for one cluster", res.Stats.Breakdown[KindExpand])
	}
}

func TestExplicitSingleClusterWhenUniform(t *testing.T) {
	g := topology.NewGrid(6, 6)
	feats := constFeats(g.N(), 5)
	res := mustRun(t, g, Config{Delta: 1, Metric: metric.Scalar{}, Features: feats, Mode: Explicit})
	if res.Clustering.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1", res.Clustering.NumClusters())
	}
	validateResult(t, g, res, feats, metric.Scalar{}, 1)
	// Explicit signalling must actually pay for its synchronization.
	if res.Stats.Breakdown[KindPhase1] == 0 || res.Stats.Breakdown[KindPhase2] == 0 {
		t.Errorf("explicit run should produce phase traffic, got %v", res.Stats.Breakdown)
	}
}

func TestSingletonsWhenDeltaZero(t *testing.T) {
	g := topology.NewGrid(4, 4)
	rng := rand.New(rand.NewSource(1))
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{float64(i) + rng.Float64()} // all distinct
	}
	for _, mode := range []Mode{Implicit, Explicit} {
		res := mustRun(t, g, Config{Delta: 0.0001, Metric: metric.Scalar{}, Features: feats, Mode: mode})
		if res.Clustering.NumClusters() != g.N() {
			t.Errorf("%v: NumClusters = %d, want %d singletons", mode, res.Clustering.NumClusters(), g.N())
		}
	}
}

func TestPlateausClusterSpatially(t *testing.T) {
	g := topology.NewGrid(6, 12)
	rng := rand.New(rand.NewSource(2))
	feats := smoothField(g, rng, 3, 10) // three bands, jumps of 10
	for _, mode := range []Mode{Implicit, Explicit} {
		res := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: mode})
		validateResult(t, g, res, feats, metric.Scalar{}, 2)
		n := res.Clustering.NumClusters()
		if n < 3 || n > 8 {
			t.Errorf("%v: NumClusters = %d, want close to the 3 plateaus", mode, n)
		}
	}
}

func TestPaperFig5Example(t *testing.T) {
	// Fig 5: an 8-node network; sentinel D expands for δ = 6. Feature
	// distances of every node to D: A=2, B=1, C=4, E=2, F=1, G=2, H=5.
	// Layout (communication graph): A-B-C on top row, D-E in middle
	// (B-D, B-E edges), F-G-H on bottom (D-F, F-G, G-H, E-G edges).
	// After D's expansion: cluster {A,B,D,E,F,G}; C (4 > 3) and H (5 > 3)
	// stay out.
	pos := []topology.Point{
		{X: 0, Y: 2}, {X: 1, Y: 2}, {X: 2, Y: 2}, // A B C
		{X: 0.4, Y: 1}, {X: 1.6, Y: 1}, // D E
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, // F G H
	}
	g := topology.NewGraph(pos)
	edges := [][2]topology.NodeID{
		{0, 1}, {1, 2}, // A-B, B-C
		{1, 3}, {1, 4}, // B-D, B-E
		{3, 5}, {4, 6}, // D-F, E-G
		{5, 6}, {6, 7}, // F-G, G-H
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	// Scalar features realizing the stated distances to D (=0):
	// A=2, B=1, C=4, D=0, E=2, F=-1, G=-2, H=-5. The δ/2 rule admits
	// |f| <= 3.
	feats := []metric.Feature{{2}, {1}, {4}, {0}, {2}, {-1}, {-2}, {-5}}

	// Force D to expand first by making it the level-0 sentinel: run a
	// single-sentinel expansion via a tiny custom config. Here we rely on
	// the quadtree electing the node nearest the centre; with this layout
	// that is D or E. Rather than fight the quadtree, simulate the
	// described expansion directly with Implicit mode and check the
	// invariant the example illustrates: D's cluster contains exactly the
	// nodes within δ/2 of D that are reachable through admitted members.
	res := mustRun(t, g, Config{Delta: 6, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	validateResult(t, g, res, feats, metric.Scalar{}, 6)

	// C and H can never share a cluster with D: d(C,D)=4 and d(H,D)=5
	// exceed δ/2, and via any root r admitted with both, |f_C - f_H| = 9 > 6
	// would violate δ-compactness anyway.
	ci := res.Clustering.ClusterOf(3) // D
	if res.Clustering.ClusterOf(2) == ci && res.Clustering.ClusterOf(7) == ci {
		t.Error("C and H cannot both be clustered with D under δ=6")
	}
}

func TestExplicitMatchesImplicitQualityOnGrid(t *testing.T) {
	g := topology.NewGrid(8, 8)
	rng := rand.New(rand.NewSource(5))
	feats := smoothField(g, rng, 4, 6)
	imp := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	exp := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Explicit})
	ni, ne := imp.Clustering.NumClusters(), exp.Clustering.NumClusters()
	// The paper reports identical clusters; our executors may order
	// expansions slightly differently, so allow a whisker of slack.
	if math.Abs(float64(ni-ne)) > float64(ni)/2+2 {
		t.Errorf("implicit %d clusters vs explicit %d: too far apart", ni, ne)
	}
	// Explicit pays extra synchronization cost.
	if exp.Stats.Messages <= imp.Stats.Messages {
		t.Errorf("explicit (%d msgs) should cost more than implicit (%d msgs)", exp.Stats.Messages, imp.Stats.Messages)
	}
}

func TestMessageComplexityLinear(t *testing.T) {
	// Theorem 2: O(N) messages. Check messages-per-node stays bounded as
	// N grows by a factor of 4.
	perNode := func(side int) float64 {
		g := topology.NewGrid(side, side)
		rng := rand.New(rand.NewSource(7))
		feats := smoothField(g, rng, 3, 8)
		res := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
		return float64(res.Stats.Messages) / float64(g.N())
	}
	small, large := perNode(8), perNode(16)
	if large > small*2.5 {
		t.Errorf("messages per node grew from %.1f to %.1f; not O(N)", small, large)
	}
}

func TestTimeComplexitySubLinear(t *testing.T) {
	// Theorem 2: O(sqrt(N) log N) time. Doubling the side (4x nodes)
	// should roughly double the finish time, not quadruple it.
	finish := func(side int) float64 {
		g := topology.NewGrid(side, side)
		rng := rand.New(rand.NewSource(7))
		feats := smoothField(g, rng, 3, 8)
		res := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
		return res.Stats.Time
	}
	t8, t16 := finish(8), finish(16)
	if t16 > 3.2*t8 {
		t.Errorf("time grew from %.1f to %.1f (ratio %.2f); want ~2x for 4x nodes", t8, t16, t16/t8)
	}
}

func TestSwitchBudgetRespected(t *testing.T) {
	g := topology.NewGrid(6, 6)
	rng := rand.New(rand.NewSource(9))
	feats := smoothField(g, rng, 3, 5)
	// MaxSwitches = -1 is not representable; 0 means default. Use 1 and
	// confirm runs stay valid; the budget bounds messages.
	res1 := mustRun(t, g, Config{Delta: 2, MaxSwitches: 1, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	res8 := mustRun(t, g, Config{Delta: 2, MaxSwitches: 8, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	validateResult(t, g, res1, feats, metric.Scalar{}, 2)
	validateResult(t, g, res8, feats, metric.Scalar{}, 2)
	if res8.Stats.Messages < res1.Stats.Messages {
		t.Errorf("a larger switch budget should not reduce messages: c=1 %d, c=8 %d",
			res1.Stats.Messages, res8.Stats.Messages)
	}
}

func TestUnorderedModeFasterButWorse(t *testing.T) {
	g := topology.NewGrid(10, 10)
	rng := rand.New(rand.NewSource(13))
	feats := smoothField(g, rng, 4, 6)
	ordered := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	unordered := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Unordered})
	validateResult(t, g, unordered, feats, metric.Scalar{}, 2)
	if unordered.Stats.Time >= ordered.Stats.Time {
		t.Errorf("unordered time %v should beat ordered %v", unordered.Stats.Time, ordered.Stats.Time)
	}
	if unordered.Clustering.NumClusters() < ordered.Clustering.NumClusters() {
		t.Errorf("unordered (%d clusters) should not beat ordered (%d): contention should hurt quality",
			unordered.Clustering.NumClusters(), ordered.Clustering.NumClusters())
	}
}

func TestRandomTopologiesAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomGeometricForDegree(80, 4, rng)
		feats := smoothField(g, rng, 3, 8)
		for _, mode := range []Mode{Implicit, Explicit, Unordered} {
			res, err := Run(g, Config{Delta: 2.5, Metric: metric.Scalar{}, Features: feats, Mode: mode, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
			if err := res.Clustering.Validate(g, feats, metric.Scalar{}, 2.5, 1e-9); err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
		}
	}
}

func TestRejectsInvalidDelayBounds(t *testing.T) {
	g := topology.NewGrid(2, 2)
	feats := constFeats(g.N(), 0)
	for _, d := range []sim.UniformDelay{
		{Min: 2, Max: 1},  // inverted: would draw negative delays
		{Min: -1, Max: 1}, // negative: events scheduled in the past
		{Min: 0, Max: math.NaN()},
		{Min: 0, Max: math.Inf(1)},
		{Min: math.NaN(), Max: 1},
		{Min: math.Inf(-1), Max: 1},
	} {
		_, err := Run(g, Config{Delta: 1, Metric: metric.Scalar{}, Features: feats, Delay: d})
		if err == nil {
			t.Errorf("Run accepted invalid delay bounds %+v", d)
		} else if !strings.Contains(err.Error(), "UniformDelay") {
			t.Errorf("error %q does not name the delay bounds", err)
		}
	}
}

func TestExplicitWithAsyncDelaysStillValid(t *testing.T) {
	g := topology.NewGrid(7, 7)
	rng := rand.New(rand.NewSource(21))
	feats := smoothField(g, rng, 3, 8)
	res := mustRun(t, g, Config{
		Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Explicit,
		Delay: sim.UniformDelay{Min: 0.1, Max: 2.5}, Seed: 4,
	})
	validateResult(t, g, res, feats, metric.Scalar{}, 2)
}

func TestConfigValidation(t *testing.T) {
	g := topology.NewGrid(2, 2)
	nan, inf := math.NaN(), math.Inf(1)
	feats := constFeats(4, 0)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"negative delta", Config{Delta: -1, Metric: metric.Scalar{}, Features: feats}},
		{"nil metric", Config{Delta: 1, Features: feats}},
		{"feature count mismatch", Config{Delta: 1, Metric: metric.Scalar{}, Features: constFeats(3, 0)}},
		{"NaN delta", Config{Delta: nan, Metric: metric.Scalar{}, Features: feats}},
		{"NaN phi", Config{Delta: 1, Phi: nan, Metric: metric.Scalar{}, Features: feats}},
		{"infinite phi", Config{Delta: 1, Phi: inf, Metric: metric.Scalar{}, Features: feats}},
		{"NaN gamma", Config{Delta: 1, Gamma: nan, Metric: metric.Scalar{}, Features: feats}},
		{"infinite gamma", Config{Delta: 1, Gamma: -inf, Metric: metric.Scalar{}, Features: feats}},
		{"NaN loss", Config{Delta: 1, Loss: nan, Metric: metric.Scalar{}, Features: feats}},
	} {
		if _, err := Run(g, c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// An infinite delta is valid: one cluster per connected component.
	g = topology.NewGrid(5, 5)
	feats = smoothField(g, rand.New(rand.NewSource(1)), 3, 5)
	for _, mode := range []Mode{Implicit, Explicit} {
		res, err := Run(g, Config{Delta: inf, Metric: metric.Scalar{}, Features: feats, Mode: mode})
		if err != nil {
			t.Fatalf("%v: infinite delta rejected: %v", mode, err)
		}
		if k := res.Clustering.NumClusters(); k != 1 {
			t.Errorf("%v: infinite delta gave %d clusters, want 1", mode, k)
		}
	}
}

// TestExplicitAsyncSchedulesProperty runs the explicit technique, the
// one meant for asynchronous networks (§5), under many seeded random
// hop-delay schedules. Each seed fixes one interleaving, so a failing
// schedule replays exactly. On random geometric graphs with random δ,
// under each of three delay ranges, every run must terminate with a
// valid δ-clustering, keep the expand/ack conservation laws, stay within
// the d·(c+2)·N message bound, and end no later than Max times the same
// instance's unit-delay run.
func TestExplicitAsyncSchedulesProperty(t *testing.T) {
	delays := []sim.UniformDelay{{Min: 0, Max: 1}, {Min: 0.1, Max: 2.5}, {Min: 0.01, Max: 10}}
	const instances = 100
	for seed := int64(0); seed < instances; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomGeometricForDegree(25+rng.Intn(100), 4, rng)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{rng.NormFloat64() * 2}
		}
		delta := 0.5 + rng.Float64()*3
		cfg := Config{Delta: delta, Metric: metric.Scalar{}, Features: feats, Mode: Explicit}
		unit, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("seed %d unit delay: %v", seed, err)
		}
		const c = 4 // the default MaxSwitches
		bound := int64(g.MaxDegree()) * (c + 2) * int64(g.N())
		for _, d := range delays {
			for rep := int64(0); rep < 3; rep++ {
				cfg.Delay, cfg.Seed = d, seed*3+rep
				where := fmt.Sprintf("seed %d N %d δ %.3g delay %+v schedule %d", seed, g.N(), delta, d, cfg.Seed)
				res, err := Run(g, cfg)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := res.Clustering.Validate(g, feats, metric.Scalar{}, delta, 1e-9); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				b := res.Stats.Breakdown
				if b[KindExpand] != b[KindAck1]+b[KindNack] || b[KindAck2] != b[KindAck1] {
					t.Fatalf("%s: conservation violated: %v", where, b)
				}
				if res.Stats.Messages > bound {
					t.Fatalf("%s: %d messages exceed d·(c+2)·N = %d", where, res.Stats.Messages, bound)
				}
				if limit := d.Max * unit.Stats.Time; res.Stats.Time > limit {
					t.Fatalf("%s: ended at %v, after Max × unit-delay end = %v", where, res.Stats.Time, limit)
				}
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := topology.NewGrid(8, 8)
	rng := rand.New(rand.NewSource(3))
	feats := smoothField(g, rng, 3, 8)
	cfg := Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Explicit, Seed: 11}
	a := mustRun(t, g, cfg)
	b := mustRun(t, g, cfg)
	if a.Clustering.NumClusters() != b.Clustering.NumClusters() || a.Stats.Messages != b.Stats.Messages {
		t.Error("event-driven runs with the same seed should be identical")
	}
	for u := range a.Clustering.Assign {
		if a.Clustering.Assign[u] != b.Clustering.Assign[u] {
			t.Fatalf("assignment differs at node %d", u)
		}
	}
}

func TestModeString(t *testing.T) {
	if Implicit.String() != "implicit" || Explicit.String() != "explicit" || Unordered.String() != "unordered" {
		t.Error("Mode.String mismatch")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode should format numerically")
	}
}

// Property over many seeds: every member lies within δ of its cluster's
// recorded root (within δ/2 of the protocol root by the expansion rule;
// components stranded by switches may re-root at an arbitrary member, in
// which case the triangle inequality still bounds the distance by δ).
func TestRootDeltaInvariant(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		g := topology.RandomGeometricForDegree(60, 4, rng)
		feats := smoothField(g, rng, 4, 4)
		delta := 2.0
		res, err := Run(g, Config{Delta: delta, Metric: metric.Scalar{}, Features: feats, Mode: Implicit, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Clustering
		for ci, members := range c.Members {
			root := c.Roots[ci]
			for _, u := range members {
				if d := (metric.Scalar{}).Distance(feats[root], feats[u]); d > delta+1e-9 {
					t.Fatalf("seed %d: node %d at distance %v from root %d, exceeds δ=%v", seed, u, d, root, delta)
				}
			}
		}
	}
}

func TestImplicitSurvivesMessageLoss(t *testing.T) {
	// Fault injection: with lossy radios the implicit technique degrades
	// gracefully — every node still self-clusters on its own sentinel
	// timer, and the δ-invariant holds for whatever clusters form.
	g := topology.NewGrid(8, 8)
	rng := rand.New(rand.NewSource(41))
	feats := smoothField(g, rng, 3, 8)
	clean := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Implicit, Seed: 5})
	lossy := mustRun(t, g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Implicit, Seed: 5, Loss: 0.15})
	validateResult(t, g, lossy, feats, metric.Scalar{}, 2)
	if lossy.Clustering.NumClusters() < clean.Clustering.NumClusters() {
		t.Errorf("loss should not improve quality: lossy %d vs clean %d clusters",
			lossy.Clustering.NumClusters(), clean.Clustering.NumClusters())
	}
}

func TestExplicitFailsDetectablyUnderHeavyLoss(t *testing.T) {
	// The explicit technique depends on its synchronization wave; under
	// heavy loss it must fail loudly (unclustered nodes reported), never
	// hang and never return an invalid clustering.
	g := topology.NewGrid(8, 8)
	rng := rand.New(rand.NewSource(43))
	feats := smoothField(g, rng, 3, 8)
	res, err := Run(g, Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Explicit, Seed: 7, Loss: 0.4})
	if err == nil {
		// A lucky run may still complete; then it must be valid.
		validateResult(t, g, res, feats, metric.Scalar{}, 2)
		return
	}
	if !strings.Contains(err.Error(), "unclustered") {
		t.Errorf("err = %v, want an unclustered-node report", err)
	}
}

func TestImplicitWorksOnDisconnectedNetwork(t *testing.T) {
	// Two separate 2x2 grids; implicit mode clusters each component via
	// its own sentinels (explicit mode refuses, below).
	pos := []topology.Point{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1},
		{X: 10, Y: 0}, {X: 11, Y: 0}, {X: 10, Y: 1}, {X: 11, Y: 1},
	}
	g := topology.NewGraph(pos)
	for _, e := range [][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 7}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	feats := constFeats(8, 1)
	res := mustRun(t, g, Config{Delta: 1, Metric: metric.Scalar{}, Features: feats, Mode: Implicit})
	validateResult(t, g, res, feats, metric.Scalar{}, 1)
	if res.Clustering.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want one per component", res.Clustering.NumClusters())
	}
}

func TestExplicitRejectsDisconnectedNetwork(t *testing.T) {
	g := topology.NewGraph([]topology.Point{{X: 0, Y: 0}, {X: 9, Y: 9}})
	feats := constFeats(2, 0)
	if _, err := Run(g, Config{Delta: 1, Metric: metric.Scalar{}, Features: feats, Mode: Explicit}); err == nil {
		t.Error("explicit mode accepted a disconnected network")
	}
}

func TestPathGraphTopology(t *testing.T) {
	// A degenerate 1xN path stresses the quadtree (deep, skinny cells)
	// and the expansion chain.
	g := topology.NewGrid(1, 40)
	feats := make([]metric.Feature, 40)
	for i := range feats {
		feats[i] = metric.Feature{float64(i / 10)} // 4 plateaus
	}
	for _, mode := range []Mode{Implicit, Explicit} {
		res := mustRun(t, g, Config{Delta: 0.5, Metric: metric.Scalar{}, Features: feats, Mode: mode})
		validateResult(t, g, res, feats, metric.Scalar{}, 0.5)
		// Optimal is 4; same-level sentinel races may split a plateau.
		if n := res.Clustering.NumClusters(); n < 4 || n > 6 {
			t.Errorf("%v: NumClusters = %d, want close to the 4 plateaus", mode, n)
		}
	}
}

func TestStarTopology(t *testing.T) {
	// A hub with 20 leaves: the hub's feature decides who can join whom.
	n := 21
	pos := make([]topology.Point, n)
	pos[0] = topology.Point{X: 0, Y: 0}
	for i := 1; i < n; i++ {
		ang := float64(i) / float64(n-1) * 2 * math.Pi
		pos[i] = topology.Point{X: math.Cos(ang), Y: math.Sin(ang)}
	}
	g := topology.NewGraph(pos)
	for i := 1; i < n; i++ {
		g.AddEdge(0, topology.NodeID(i))
	}
	feats := make([]metric.Feature, n)
	feats[0] = metric.Feature{0}
	for i := 1; i < n; i++ {
		feats[i] = metric.Feature{float64(i % 2)} // alternating 0/1 leaves
	}
	for _, mode := range []Mode{Implicit, Explicit} {
		res := mustRun(t, g, Config{Delta: 0.5, Metric: metric.Scalar{}, Features: feats, Mode: mode, Seed: 3})
		validateResult(t, g, res, feats, metric.Scalar{}, 0.5)
		// Feature-1 leaves can never join the hub's cluster (d=1 > δ/2)
		// and are pairwise non-adjacent: they must all be singletons.
		ones := 0
		for ci, mem := range res.Clustering.Members {
			if feats[mem[0]][0] == 1 {
				ones++
				if len(mem) != 1 {
					t.Errorf("%v: cluster %d of feature-1 leaves has %d members, want singleton", mode, ci, len(mem))
				}
			}
		}
		if ones != 10 {
			t.Errorf("%v: feature-1 singletons = %d, want 10", mode, ones)
		}
	}
}

func TestLossConfigValidation(t *testing.T) {
	g := topology.NewGrid(2, 2)
	feats := constFeats(4, 0)
	for _, loss := range []float64{-0.1, 1.0, 1.5} {
		if _, err := Run(g, Config{Delta: 1, Metric: metric.Scalar{}, Features: feats, Loss: loss}); err == nil {
			t.Errorf("loss %v accepted", loss)
		}
	}
}

// Property: for arbitrary random geometric topologies, fields and deltas,
// the ELink result always passes full δ-clustering validation and the
// message count stays within the d(c+1)N-flavoured linear bound.
func TestELinkInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		g := topology.RandomGeometricForDegree(n, 3+rng.Float64()*3, rng)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{rng.NormFloat64() * 3}
		}
		delta := 0.5 + rng.Float64()*4
		res, err := Run(g, Config{Delta: delta, Metric: metric.Scalar{}, Features: feats, Mode: Implicit, Seed: seed})
		if err != nil {
			return false
		}
		if err := res.Clustering.Validate(g, feats, metric.Scalar{}, delta, 1e-9); err != nil {
			return false
		}
		d := int64(g.MaxDegree())
		c := int64(4)
		bound := d * (c + 2) * int64(g.N())
		return res.Stats.Messages <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Conservation laws of the explicit protocol: every expand gets exactly
// one ack1-or-nack reply, and every join (ack1) eventually completes with
// exactly one ack2. These hold on any topology and any field.
func TestExplicitMessageConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomGeometricForDegree(25+rng.Intn(50), 4, rng)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{rng.NormFloat64() * 2}
		}
		res, err := Run(g, Config{Delta: 1 + rng.Float64()*3, Metric: metric.Scalar{}, Features: feats, Mode: Explicit, Seed: seed})
		if err != nil {
			return false
		}
		b := res.Stats.Breakdown
		if b[KindExpand] != b[KindAck1]+b[KindNack] {
			return false
		}
		return b[KindAck2] == b[KindAck1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
