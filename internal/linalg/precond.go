package linalg

import (
	"math"

	"elink/internal/par"
)

// Preconditioner approximates the inverse of the symmetric operator the
// sparse eigensolver iterates on: Apply overwrites each block column
// w[j] with M⁻¹ w[j], where M is symmetric positive definite (Knyazev's
// requirement for preconditioned LOBPCG). Implementations must be
// deterministic and worker-count independent — per-column arithmetic in
// a fixed serial order, parallelism only across independent columns or
// fixed row chunks — and steady-state Apply must not allocate: workspace
// is created at construction or on the first Apply and reused (pinned by
// the zero-alloc regression tests).
type Preconditioner interface {
	Apply(w [][]float64)
}

// coarsable is implemented by preconditioners that can rebuild
// themselves for the Galerkin coarse operators of the warm start; kinds
// that don't implement it fall back to the default Chebyshev on coarse
// levels.
type coarsable interface {
	ForMatrix(c *CSR) Preconditioner
}

// IdentityPrecond disables preconditioning: Apply is a no-op, so the
// solver iterates on the raw residual block. Tests use it as the
// unpreconditioned reference the Chebyshev solve is measured against.
type IdentityPrecond struct{}

// Apply implements Preconditioner as a no-op.
func (IdentityPrecond) Apply([][]float64) {}

// ForMatrix implements the coarse-level rebuild trivially.
func (IdentityPrecond) ForMatrix(*CSR) Preconditioner { return IdentityPrecond{} }

// Chebyshev preconditioner defaults: steps block updates per Apply
// (costing steps-1 fused block SpMMs), inverse approximated on
// [hi/chebDefaultRatio, hi]. The interval upper bound defaults to a
// Gershgorin estimate of the largest eigenvalue — 2 for a normalized
// graph Laplacian, whose known [0, 2] spectrum is the design target.
// Eight steps is the measured sweet spot across the bench ladder: more
// SpMMs per apply, but the LOBPCG iteration count (and with it the
// dominant reorthogonalization cost) falls faster than the kernel cost
// grows (n=20000 rung: 12 iters/2.9 s at 4 steps, 6 iters/1.7 s at 8).
const (
	chebDefaultSteps = 8
	chebDefaultRatio = 30
)

// chebPrecond applies a Chebyshev polynomial approximation of the
// operator's inverse on the interval [lo, hi] (the classical Chebyshev
// semi-iteration for solving C x = w, run for a fixed number of steps
// with x₀ = 0). Eigencomponents below lo — exactly the bottom-spectrum
// modes the eigensolver hunts — are amplified by roughly 1/lo while the
// rest of the spectrum is equalized toward 1/λ, which is what collapses
// the LOBPCG iteration count. The resulting polynomial is strictly
// positive on [0, hi], so M is symmetric positive definite as Knyazev's
// formulation requires.
type chebPrecond struct {
	c       *CSR
	steps   int
	lo, hi  float64
	r, d, t [][]float64 // lazily sized to the block shape, then reused

	// Per-Apply loop state, held in fields so the column bodies can be
	// bound method values (fInit/fStep) instead of fresh closures — the
	// difference between zero allocations per Apply and one per step.
	w             [][]float64
	theta, a1, a2 float64
	fInit, fStep  func(j int)
}

// NewChebyshev builds a Chebyshev inverse-approximation preconditioner
// for c. steps is the number of semi-iteration block updates per Apply
// (0 = 8; each update past the first costs one fused block SpMM); hi is
// the upper bound of the approximation interval (0 = Gershgorin row
// estimate of the largest eigenvalue, which evaluates to ~2 on a
// normalized Laplacian); lo is the lower bound (0 = hi/30).
func NewChebyshev(c *CSR, steps int, lo, hi float64) Preconditioner {
	if steps <= 0 {
		steps = chebDefaultSteps
	}
	if hi <= 0 {
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
	}
	if lo <= 0 || lo >= hi {
		lo = hi / chebDefaultRatio
	}
	m := &chebPrecond{c: c, steps: steps, lo: lo, hi: hi}
	m.fInit = m.initCol
	m.fStep = m.stepCol
	return m
}

func (m *chebPrecond) ForMatrix(c *CSR) Preconditioner {
	// Interval bounds re-derive from the coarse operator when they were
	// auto-estimated; an explicit caller interval is preserved because the
	// Galerkin projection can only shrink the spectrum's upper end.
	return NewChebyshev(c, m.steps, m.lo, m.hi)
}

// ensure sizes the three scratch blocks to b columns of length n,
// reusing them across Apply calls when the shape is stable (the LOBPCG
// loop applies to the same residual block shape every iteration).
func (m *chebPrecond) ensure(bcols, n int) {
	if len(m.r) == bcols && len(m.r) > 0 && len(m.r[0]) == n {
		return
	}
	m.r = newBlock(bcols, n)
	m.d = newBlock(bcols, n)
	m.t = newBlock(bcols, n)
}

func (m *chebPrecond) Apply(w [][]float64) {
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
	m.eachCol(len(w), m.fInit)
	for k := 1; k < m.steps; k++ {
		m.c.MulVecs(m.d, m.t)
		rhoNext := 1 / (2*sigma - rho)
		m.a1 = rhoNext * rho
		m.a2 = 2 * rhoNext / delta
		m.eachCol(len(w), m.fStep)
		rho = rhoNext
	}
	m.w = nil
}

// initCol seeds column j of the semi-iteration from the current m.w.
func (m *chebPrecond) initCol(j int) {
	wj, rj, dj := m.w[j], m.r[j], m.d[j]
	inv := 1 / m.theta
	for i := range wj {
		v := wj[i]
		rj[i] = v
		dj[i] = v * inv
		wj[i] = dj[i]
	}
}

// stepCol advances column j one semi-iteration update under the current
// m.a1/m.a2 coefficients.
func (m *chebPrecond) stepCol(j int) {
	wj, rj, dj, tj := m.w[j], m.r[j], m.d[j], m.t[j]
	for i := range rj {
		rj[i] -= tj[i]
		dj[i] = m.a1*dj[i] + m.a2*rj[i]
		wj[i] += dj[i]
	}
}

// eachCol fans a per-column body out over the execution layer; per
// column the arithmetic is serial, so results are worker-count
// independent. The bodies are bound method values held in fields, so
// neither branch allocates per call — the one-worker path is on the
// zero-alloc contract, matching MulVecs.
func (m *chebPrecond) eachCol(b int, body func(j int)) {
	if par.Workers() == 1 {
		for j := 0; j < b; j++ {
			body(j)
		}
		return
	}
	par.For(b, body)
}
