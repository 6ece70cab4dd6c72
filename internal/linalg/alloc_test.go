package linalg

import (
	"math/rand"
	"testing"

	"elink/internal/par"
)

// The zero-alloc contract: at one worker the fused SpMM kernel, the
// preconditioner's apply, and the steady-state LOBPCG loop perform no
// allocations. These are regression tests for the workspace-pooling
// design — a new allocation on any of these paths shows up here long
// before it shows up as GC pressure at engine scale.

func TestMulVecsZeroAlloc(t *testing.T) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	c := randomCSR(800, 3000, 7)
	x := newBlock(6, c.N)
	fillRandom(x, rand.New(rand.NewSource(1)))
	y := newBlock(6, c.N)
	if allocs := testing.AllocsPerRun(20, func() { c.MulVecs(x, y) }); allocs != 0 {
		t.Fatalf("MulVecs allocates %.1f per call at one worker, want 0", allocs)
	}
}

func TestPrecondApplyZeroAlloc(t *testing.T) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	l := gridLaplacian(20, 20)
	w := newBlock(6, l.N)
	pre := newChebyshev(l)
	fillRandom(w, rand.New(rand.NewSource(3)))
	pre.apply(w) // warm-up: chebyshev sizes its scratch blocks lazily
	if allocs := testing.AllocsPerRun(10, func() { pre.apply(w) }); allocs != 0 {
		t.Fatalf("chebyshev apply allocates %.1f per call at one worker, want 0", allocs)
	}
}

// TestLobpcgLoopZeroAlloc pins the steady-state loop indirectly: two
// starved solves differing only in iteration budget must allocate exactly
// the same amount, so each extra iteration costs zero allocations. (The
// per-solve setup — workspace pools, the result, the convergence error —
// allocates identically on both sides and cancels out.)
func TestLobpcgLoopZeroAlloc(t *testing.T) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	l := gridLaplacian(20, 25)
	setKnob(t, &coarseStartMinN, l.N+1)
	solveAllocs := func(maxIter int) float64 {
		setKnob(t, &maxIters, maxIter)
		return testing.AllocsPerRun(3, func() {
			rng := rand.New(rand.NewSource(42))
			_, _ = l.EigenBottomK(6, 1e-14, rng)
		})
	}
	short, long := solveAllocs(3), solveAllocs(40)
	// A couple of objects of jitter come from the runtime itself; what
	// this pins is that 37 extra iterations cost ~0 allocations — one
	// object per iteration would read as ≥37 here.
	if long-short > 2 {
		t.Fatalf("37 extra iterations allocated %.1f objects (%.1f vs %.1f): steady-state loop is not zero-alloc",
			long-short, long, short)
	}
}
