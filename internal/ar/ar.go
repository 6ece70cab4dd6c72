// Package ar implements the auto-regressive data models used as node
// features (paper §2.2 and Appendix A).
//
// Each sensor node regresses its raw time series locally: an AR(k) model
// x_t = α₁x_{t−1} + … + α_k x_{t−k} + ε_t, fitted by least squares. The
// fitted coefficient vector is the node's feature; clustering compares
// these vectors, never the raw data. When new measurements arrive the
// coefficients are refreshed incrementally by recursive least squares
// (Appendix A, equations 6–8), so a node never re-solves the normal
// equations from scratch.
package ar

import (
	"fmt"
	"math/rand"

	"elink/internal/linalg"
)

// Fit estimates AR(order) coefficients for series by ordinary least
// squares on the normal equations XXᵀα = XY. It needs at least
// 2*order observations. A tiny ridge term keeps the normal matrix
// invertible on degenerate (e.g. constant) series.
func Fit(series []float64, order int) ([]float64, error) {
	if order < 1 {
		return nil, fmt.Errorf("ar: order must be >= 1, got %d", order)
	}
	m := len(series) - order
	if m < order {
		return nil, fmt.Errorf("ar: need at least %d observations for AR(%d), got %d", 2*order, order, len(series))
	}
	// Normal matrix P = XXᵀ and rhs b = XY, built incrementally.
	p := linalg.NewMatrix(order, order)
	b := make([]float64, order)
	x := make([]float64, order)
	for t := order; t < len(series); t++ {
		lagVector(series, t, x)
		y := series[t]
		for i := 0; i < order; i++ {
			b[i] += x[i] * y
			for j := 0; j < order; j++ {
				p.Set(i, j, p.At(i, j)+x[i]*x[j])
			}
		}
	}
	for i := 0; i < order; i++ {
		p.Set(i, i, p.At(i, i)+1e-9)
	}
	coef, err := linalg.Solve(p, b)
	if err != nil {
		return nil, fmt.Errorf("ar: normal equations singular: %w", err)
	}
	return coef, nil
}

// lagVector fills x with (series[t-1], …, series[t-order]).
func lagVector(series []float64, t int, x []float64) {
	for i := range x {
		x[i] = series[t-1-i]
	}
}

// Model is an online AR(k) model maintained by recursive least squares.
// P tracks (XXᵀ)⁻¹ so each Update is O(k²) with no matrix solve.
type Model struct {
	Order int
	Coef  []float64 // α, most recent lag first

	p    *linalg.Matrix // (XXᵀ)⁻¹
	lags []float64      // most recent observations, newest first
	seen int            // total observations consumed
	px   []float64      // P x scratch for update, allocated on first use
}

// NewModel returns an untrained online AR(order) model. Until Order+1
// observations arrive the coefficients stay at their initial value
// (zeros, or the values set with SetCoef).
func NewModel(order int) *Model {
	if order < 1 {
		panic(fmt.Sprintf("ar: order must be >= 1, got %d", order))
	}
	return &Model{
		Order: order,
		Coef:  make([]float64, order),
		// Large initial P ≈ infinite prior covariance: the first few
		// updates are then dominated by the data, which is the standard
		// RLS initialization when no batch window is available.
		p:    linalg.Identity(order).Scale(1e6),
		lags: make([]float64, 0, order),
	}
}

// FitModel batch-fits series and returns a Model ready for online
// updates, with P seeded from the batch normal matrix.
func FitModel(series []float64, order int) (*Model, error) {
	coef, err := Fit(series, order)
	if err != nil {
		return nil, err
	}
	p := linalg.NewMatrix(order, order)
	x := make([]float64, order)
	for t := order; t < len(series); t++ {
		lagVector(series, t, x)
		for i := 0; i < order; i++ {
			for j := 0; j < order; j++ {
				p.Set(i, j, p.At(i, j)+x[i]*x[j])
			}
		}
	}
	for i := 0; i < order; i++ {
		p.Set(i, i, p.At(i, i)+1e-9)
	}
	pinv, err := linalg.Inverse(p)
	if err != nil {
		return nil, fmt.Errorf("ar: cannot invert normal matrix: %w", err)
	}
	m := &Model{Order: order, Coef: coef, p: pinv, lags: make([]float64, 0, order)}
	// Seed the lag window with the tail of the series, newest first.
	for i := 0; i < order; i++ {
		m.lags = append(m.lags, series[len(series)-1-i])
	}
	m.seen = len(series)
	return m, nil
}

// SetCoef overrides the current coefficients (used to initialize every
// node with α₁ = 1 as in the paper's synthetic dataset).
func (m *Model) SetCoef(coef []float64) {
	if len(coef) != m.Order {
		panic(fmt.Sprintf("ar: SetCoef got %d coefficients for AR(%d)", len(coef), m.Order))
	}
	copy(m.Coef, coef)
}

// Observe consumes one new raw measurement. Once enough lags have
// accumulated it performs one RLS step (Appendix A eqs. 7–8) and reports
// whether the coefficients changed.
func (m *Model) Observe(value float64) bool {
	if len(m.lags) < m.Order {
		m.lags = append([]float64{value}, m.lags...)
		m.seen++
		return false
	}
	m.update(m.lags[:m.Order], value)
	// Shift the lag window.
	copy(m.lags[1:], m.lags[:m.Order-1])
	m.lags[0] = value
	m.seen++
	return true
}

// update applies one recursive-least-squares step for regressor x and
// response y:
//
//	P ← P − P x (1 + xᵀ P x)⁻¹ xᵀ P          (eq. 7)
//	α ← α − P (x xᵀ α − x y)                  (eq. 8)
//
// x is only read. Both products P x go into the model's own scratch, so
// a step allocates nothing.
func (m *Model) update(x []float64, y float64) {
	k := m.Order
	if len(m.px) != k {
		m.px = make([]float64, k)
	}
	px := m.p.MulVecTo(m.px, x) // P x
	var xpx float64
	for i := range x {
		xpx += x[i] * px[i]
	}
	denom := 1 + xpx
	// P ← P − (P x)(P x)ᵀ / denom. P is symmetric so xᵀP == (Px)ᵀ.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.p.Set(i, j, m.p.At(i, j)-px[i]*px[j]/denom)
		}
	}
	// α ← α − P x (xᵀα − y).
	var xa float64
	for i := range x {
		xa += x[i] * m.Coef[i]
	}
	resid := xa - y
	px = m.p.MulVecTo(px, x) // P x again, with the updated P
	for i := 0; i < k; i++ {
		m.Coef[i] -= px[i] * resid
	}
}

// Snapshot returns a copy of the current coefficient vector. RLS updates
// mutate Coef in place, so callers that hand coefficients to long-lived
// consumers (clustering features, index routing entries) must take a
// snapshot rather than alias the live slice.
func (m *Model) Snapshot() []float64 {
	out := make([]float64, len(m.Coef))
	copy(out, m.Coef)
	return out
}

// Seen returns the number of observations consumed so far.
func (m *Model) Seen() int { return m.seen }

// Simulate generates n observations of x_t = Σ coef_i x_{t−1−i} + noise(),
// starting from the given initial lags (newest first; zeros if nil).
func Simulate(coef []float64, n int, initial []float64, noise func() float64) []float64 {
	k := len(coef)
	lags := make([]float64, k)
	copy(lags, initial)
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		var v float64
		for i := 0; i < k; i++ {
			v += coef[i] * lags[i]
		}
		if noise != nil {
			v += noise()
		}
		out[t] = v
		copy(lags[1:], lags[:k-1])
		lags[0] = v
	}
	return out
}

// GaussianNoise returns a noise source drawing from N(0, sigma²) using rng.
func GaussianNoise(rng *rand.Rand, sigma float64) func() float64 {
	return func() float64 { return rng.NormFloat64() * sigma }
}

// UniformNoise returns a noise source drawing from U(lo, hi) using rng, as
// used by the paper's synthetic dataset (e_t ~ U(0,1)).
func UniformNoise(rng *rand.Rand, lo, hi float64) func() float64 {
	return func() float64 { return lo + rng.Float64()*(hi-lo) }
}
