package elink

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elink/internal/metric"
	"elink/internal/sim"
	"elink/internal/topology"
)

// TestSyncWaveLedgerProperty checks explicit mode's laid-out paths and
// the closed form of its synchronization cost over random geometric
// graphs with random δ, under unit delay and seeded asynchronous delays.
//
// Every laid path must be the route Graph.ShortestPath gives for its
// leader pair. With hops(c) the length of cell c's up path (0 when c and
// its parent cell share a leader), each cell reports once per round from
// its own level to the deepest level under it (QTCell.Deepest), and its
// parent starts it once, so the run must send
//
//	phase1 = phase2 = Σ_c (Deepest(c) − level(c) + 1)·hops(c)
//	start  = Σ_c hops(c)
//
// whatever δ and the delay schedule.
func TestSyncWaveLedgerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		g := topology.RandomGeometricForDegree(20+rng.Intn(200), 3+rng.Float64()*3, rng)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{rng.NormFloat64() * 2}
		}
		cfg := Config{Delta: 0.5 + rng.Float64()*4, Metric: metric.Scalar{}, Features: feats,
			Mode: Explicit, Seed: int64(trial)}
		if trial%2 == 1 {
			cfg.Delay = sim.UniformDelay{Min: 0.1, Max: 2.5}
		}
		where := fmt.Sprintf("trial %d N %d δ %.3g delay %v", trial, g.N(), cfg.Delta, cfg.Delay)

		qt := g.Quadtree()
		var phase, start int64
		for c, cell := range qt.Cells {
			up, down := qt.UpPath(c), qt.DownPath(c)
			if cell.Parent < 0 || cell.Leader == qt.Cells[cell.Parent].Leader {
				if len(up) != 0 || len(down) != 0 {
					t.Fatalf("%s: cell %d sends no routed message but has paths %v and %v", where, c, up, down)
				}
				continue
			}
			from, to := cell.Leader, qt.Cells[cell.Parent].Leader
			if want := g.ShortestPath(from, to); !slices.Equal(up, want) {
				t.Fatalf("%s: cell %d up path %v, ShortestPath %v", where, c, up, want)
			}
			if want := g.ShortestPath(to, from); !slices.Equal(down, want) {
				t.Fatalf("%s: cell %d down path %v, ShortestPath %v", where, c, down, want)
			}
			hops := int64(len(up) - 1)
			phase += int64(cell.Deepest-cell.Level+1) * hops
			start += hops
		}

		res, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		b := res.Stats.Breakdown
		if b[KindPhase1] != phase || b[KindPhase2] != phase || b[KindStart] != start {
			t.Fatalf("%s: phase1 %d phase2 %d start %d, closed form %d/%d/%d",
				where, b[KindPhase1], b[KindPhase2], b[KindStart], phase, phase, start)
		}
	}
}
