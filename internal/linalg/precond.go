package linalg

import "math"

// Chebyshev preconditioner shape: chebSteps block updates per apply
// (costing chebSteps-1 fused block SpMMs), inverse approximated on
// [hi/chebRatio, hi]. The interval upper bound is a Gershgorin estimate
// of the largest eigenvalue — 2 for a normalized graph Laplacian, whose
// known [0, 2] spectrum is the design target. Eight steps is the
// measured sweet spot across the bench ladder: more SpMMs per apply, but
// the LOBPCG iteration count (and with it the dominant
// reorthogonalization cost) falls faster than the kernel cost grows
// (n=20000 rung: 12 iters/2.9 s at 4 steps, 6 iters/1.7 s at 8).
const (
	chebSteps = 8
	chebRatio = 30
)

// chebPrecond applies a Chebyshev polynomial approximation of the
// operator's inverse on the interval [lo, hi] (the classical Chebyshev
// semi-iteration for solving C x = w, run for a fixed number of steps
// with x₀ = 0). Eigencomponents below lo — exactly the bottom-spectrum
// modes the eigensolver hunts — are amplified by roughly 1/lo while the
// rest of the spectrum is equalized toward 1/λ, which is what collapses
// the LOBPCG iteration count. The resulting polynomial is strictly
// positive on [0, hi], so M is symmetric positive definite as Knyazev's
// formulation requires. apply is deterministic and worker-count
// independent (per-column arithmetic in a fixed serial order), and in
// steady state it allocates nothing: the scratch blocks are sized on the
// first apply and reused.
type chebPrecond struct {
	c       *CSR
	lo, hi  float64
	r, d, t [][]float64 // lazily sized to the block shape, then reused

	// Per-apply loop state, held in fields so the column bodies can be
	// bound method values (fInit/fStep) instead of fresh closures — the
	// difference between zero allocations per apply and one per step.
	w             [][]float64
	theta, a1, a2 float64
	fInit, fStep  func(lo, hi int)
}

// newChebyshev builds the Chebyshev preconditioner for c on
// [hi/chebRatio, hi], hi being the Gershgorin row estimate of c's
// largest eigenvalue (≈ 2 on a normalized Laplacian; 1 for a zero
// matrix).
func newChebyshev(c *CSR) *chebPrecond {
	var hi float64
	for i := 0; i < c.N; i++ {
		var row float64
		for _, v := range c.Vals[c.RowPtr[i]:c.RowPtr[i+1]] {
			row += math.Abs(v)
		}
		if row > hi {
			hi = row
		}
	}
	if hi == 0 {
		hi = 1
	}
	return chebyshevOn(c, hi/chebRatio, hi)
}

// forCoarse builds the preconditioner for a Galerkin coarse operator of
// the warm-start hierarchy. It keeps the fine level's [lo, hi] rather
// than estimating one for op: with orthonormal prolongator columns the
// coarse spectrum lies inside the fine one, so the interval still covers
// it. The figures and the pinned iteration counts were recorded with
// this interval.
func (m *chebPrecond) forCoarse(op *CSR) *chebPrecond {
	return chebyshevOn(op, m.lo, m.hi)
}

func chebyshevOn(c *CSR, lo, hi float64) *chebPrecond {
	m := &chebPrecond{c: c, lo: lo, hi: hi}
	m.fInit = m.initCols
	m.fStep = m.stepCols
	return m
}

// ensure sizes the three scratch blocks to b columns of length n,
// reusing them across apply calls when the shape is stable (the LOBPCG
// loop applies to the same residual block shape every iteration).
func (m *chebPrecond) ensure(bcols, n int) {
	if len(m.r) == bcols && len(m.r) > 0 && len(m.r[0]) == n {
		return
	}
	m.r = newBlock(bcols, n)
	m.d = newBlock(bcols, n)
	m.t = newBlock(bcols, n)
}

// apply overwrites each block column w[j] with M⁻¹ w[j].
func (m *chebPrecond) apply(w [][]float64) {
	if len(w) == 0 {
		return
	}
	m.ensure(len(w), len(w[0]))
	m.w = w
	m.theta = (m.hi + m.lo) / 2
	delta := (m.hi - m.lo) / 2
	sigma := m.theta / delta
	rho := 1 / sigma

	// x₀ = 0, r₀ = w, d₀ = r₀/θ, x₁ = d₀. The accumulated solution x
	// lives in w itself, so the final overwrite is free.
	fan(len(w), m.fInit)
	for k := 1; k < chebSteps; k++ {
		m.c.MulVecs(m.d, m.t)
		rhoNext := 1 / (2*sigma - rho)
		m.a1 = rhoNext * rho
		m.a2 = 2 * rhoNext / delta
		fan(len(w), m.fStep)
		rho = rhoNext
	}
	m.w = nil
}

// initCols seeds columns [lo, hi) of the semi-iteration from the
// current m.w.
func (m *chebPrecond) initCols(lo, hi int) {
	inv := 1 / m.theta
	for j := lo; j < hi; j++ {
		wj, rj, dj := m.w[j], m.r[j], m.d[j]
		for i := range wj {
			v := wj[i]
			rj[i] = v
			dj[i] = v * inv
			wj[i] = dj[i]
		}
	}
}

// stepCols advances columns [lo, hi) one semi-iteration update under the
// current m.a1/m.a2 coefficients.
func (m *chebPrecond) stepCols(lo, hi int) {
	for j := lo; j < hi; j++ {
		wj, rj, dj, tj := m.w[j], m.r[j], m.d[j], m.t[j]
		for i := range rj {
			rj[i] -= tj[i]
			dj[i] = m.a1*dj[i] + m.a2*rj[i]
			wj[i] += dj[i]
		}
	}
}
