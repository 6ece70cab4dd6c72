package elink

import (
	"math/rand"
	"slices"
	"testing"

	"elink/internal/topology"
)

// cellsLedByScan is the full scan newShared's leader buckets replace: the
// ids of the cells u leads, in cell-id order.
func cellsLedByScan(qt *topology.Quadtree, u topology.NodeID) []int {
	var out []int
	for _, c := range qt.Cells {
		if c.Leader == u {
			out = append(out, c.ID)
		}
	}
	return out
}

// TestCellsLedByMatchesFullScan checks every node's leader list against
// the full scan over random geometric graphs. Half the instances stack
// nodes on shared positions, so subdivision stops at the quadtree's depth
// cap with several nodes in one leaf cell.
func TestCellsLedByMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	capped := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(300)
		g := topology.RandomGeometricForDegree(n, 4+rng.Float64()*4, rng)
		if trial%2 == 1 {
			for k := rng.Intn(n/2 + 1); k >= 0; k-- {
				g.Pos[rng.Intn(n)] = g.Pos[rng.Intn(n)]
			}
		}
		qt := topology.BuildQuadtree(g)
		for _, c := range qt.Cells {
			if len(c.Children) == 0 && len(c.Nodes) > 1 {
				capped++
				break
			}
		}
		sh := newShared(g, qt, Config{Gamma: 0.3})
		for u := 0; u < n; u++ {
			got := sh.cellsLedBy(topology.NodeID(u))
			want := cellsLedByScan(qt, topology.NodeID(u))
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, node %d: cellsLedBy = %v, full scan = %v", trial, u, got, want)
			}
		}
	}
	if capped == 0 {
		t.Fatal("no instance reached the quadtree depth cap; the coincident-position case went untested")
	}
}
