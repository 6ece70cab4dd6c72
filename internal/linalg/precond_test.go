package linalg

import (
	"math"
	"math/rand"
	"testing"

	"elink/internal/par"
)

// applyToDense materializes the linear operator a Preconditioner's Apply
// implements by running it over the identity's columns — Apply is linear,
// so the columns are M⁻¹'s columns.
func applyToDense(m Preconditioner, n int) *Matrix {
	out := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		col := [][]float64{make([]float64, n)}
		col[0][j] = 1
		m.Apply(col)
		for r := 0; r < n; r++ {
			out.Set(r, j, col[0][r])
		}
	}
	return out
}

// TestChebyshevDefaults: the zero-value knobs resolve to the documented
// defaults — 8 steps, Gershgorin hi (≈2 on a normalized Laplacian), and
// lo = hi/30.
func TestChebyshevDefaults(t *testing.T) {
	l := gridLaplacian(8, 8)
	m, ok := NewChebyshev(l, 0, 0, 0).(*chebPrecond)
	if !ok {
		t.Fatal("NewChebyshev did not return a *chebPrecond")
	}
	if m.steps != chebDefaultSteps {
		t.Errorf("steps = %d, want %d", m.steps, chebDefaultSteps)
	}
	if m.hi < 1.5 || m.hi > 2.5 {
		t.Errorf("Gershgorin hi = %v, want ~2 for a normalized Laplacian", m.hi)
	}
	if math.Abs(m.lo-m.hi/chebDefaultRatio) > 1e-15 {
		t.Errorf("lo = %v, want hi/%d = %v", m.lo, chebDefaultRatio, m.hi/chebDefaultRatio)
	}
	// Explicit knobs are honored.
	e := NewChebyshev(l, 3, 0.25, 1.75).(*chebPrecond)
	if e.steps != 3 || e.lo != 0.25 || e.hi != 1.75 {
		t.Errorf("explicit knobs not preserved: %+v", e)
	}
}

// TestChebyshevSPD: the semi-iteration's operator is a polynomial in L
// that is strictly positive on [0, hi], so M⁻¹ must come out symmetric
// positive definite — Knyazev's requirement for the preconditioner.
func TestChebyshevSPD(t *testing.T) {
	l := gridLaplacian(5, 6)
	n := l.N
	dense := applyToDense(NewChebyshev(l, 0, 0, 0), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := math.Abs(dense.At(i, j) - dense.At(j, i)); d > 1e-10 {
				t.Fatalf("asymmetry at (%d,%d): %v", i, j, d)
			}
			// Symmetrize round-off before the eigensolve.
			v := (dense.At(i, j) + dense.At(j, i)) / 2
			dense.Set(i, j, v)
			dense.Set(j, i, v)
		}
	}
	vals, _, err := EigenSym(dense)
	if err != nil {
		t.Fatal(err)
	}
	if smallest := vals[len(vals)-1]; smallest <= 0 {
		t.Fatalf("smallest eigenvalue of M⁻¹ = %v, want > 0 (not positive definite)", smallest)
	}
}

// TestChebyshevAmplifiesBottomSpectrum: applying M⁻¹ to an exact bottom
// eigenvector must scale it by far more than it scales a top-spectrum
// vector — the spectral shaping that collapses the LOBPCG iteration count.
func TestChebyshevAmplifiesBottomSpectrum(t *testing.T) {
	l := gridLaplacian(6, 7)
	n := l.N
	vals, vecs, err := EigenSym(l.Dense())
	if err != nil {
		t.Fatal(err)
	}
	m := NewChebyshev(l, 0, 0, 0)
	gain := func(col int) float64 {
		v := [][]float64{make([]float64, n)}
		for r := 0; r < n; r++ {
			v[0][r] = vecs.At(r, col)
		}
		m.Apply(v)
		return math.Sqrt(dot(v[0], v[0]))
	}
	bottom := gain(n - 1) // smallest eigenvalue (dense order is descending)
	top := gain(0)
	if bottom < 4*top {
		t.Fatalf("bottom-mode gain %v vs top-mode gain %v (λ_min=%v λ_max=%v): want ≥4x separation",
			bottom, top, vals[n-1], vals[0])
	}
}

// TestChebyshevCutsIterations is the end-to-end reason the preconditioner
// exists: with identical seeded-random starts, the Chebyshev-preconditioned
// solve must converge in well under half the unpreconditioned iterations.
func TestChebyshevCutsIterations(t *testing.T) {
	l := gridLaplacian(25, 30)
	solve := func(pre Preconditioner) *BottomKResult {
		rng := rand.New(rand.NewSource(5))
		res, err := l.EigenBottomK(6, rng, BottomKOptions{
			Tol: 1e-4, Precond: pre, RandomStart: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := solve(IdentityPrecond{})
	cheb := solve(NewChebyshev(l, 0, 0, 0))
	if 2*cheb.Iters >= plain.Iters {
		t.Fatalf("chebyshev took %d iters vs %d unpreconditioned: want < half", cheb.Iters, plain.Iters)
	}
	for j := range cheb.Values {
		if math.Abs(cheb.Values[j]-plain.Values[j]) > 1e-6 {
			t.Errorf("value %d: cheb %v vs plain %v", j, cheb.Values[j], plain.Values[j])
		}
	}
}

// TestPrecondForMatrix: the coarse-level rebuild preserves each kind —
// Chebyshev re-derives for the coarse operator, identity stays identity,
// and unknown kinds fall back to the default Chebyshev.
func TestPrecondForMatrix(t *testing.T) {
	fine := gridLaplacian(10, 10)
	op := coarsen(fine).op
	if _, ok := precondFor(NewChebyshev(fine, 0, 0, 0), op).(*chebPrecond); !ok {
		t.Error("chebyshev did not re-derive as chebyshev on the coarse operator")
	}
	if _, ok := precondFor(IdentityPrecond{}, op).(IdentityPrecond); !ok {
		t.Error("identity did not stay identity")
	}
	if _, ok := precondFor(fakePrecond{}, op).(*chebPrecond); !ok {
		t.Error("non-coarsable kind did not fall back to chebyshev")
	}
}

type fakePrecond struct{}

func (fakePrecond) Apply([][]float64) {}

// TestPrecondWorkerIndependence: the Chebyshev Apply is bitwise identical
// at every worker count.
func TestPrecondWorkerIndependence(t *testing.T) {
	l := gridLaplacian(12, 13)
	apply := func(workers int) [][]float64 {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		w := newBlock(6, l.N)
		fillRandom(w, rand.New(rand.NewSource(8)))
		NewChebyshev(l, 0, 0, 0).Apply(w)
		return w
	}
	ref := apply(1)
	for _, workers := range []int{2, 4, 8} {
		got := apply(workers)
		for j := range ref {
			for r := range ref[j] {
				if got[j][r] != ref[j][r] {
					t.Fatalf("workers=%d: element (%d,%d) differs: %v != %v",
						workers, j, r, got[j][r], ref[j][r])
				}
			}
		}
	}
}
