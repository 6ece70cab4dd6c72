package linalg

import (
	"math"
	"math/rand"
	"testing"

	"elink/internal/par"
)

// applyToDense materializes the linear operator the preconditioner's
// apply implements by running it over the identity's columns — apply is
// linear, so the columns are M⁻¹'s columns.
func applyToDense(m *chebPrecond, n int) *Matrix {
	out := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		col := [][]float64{make([]float64, n)}
		col[0][j] = 1
		m.apply(col)
		for r := 0; r < n; r++ {
			out.Set(r, j, col[0][r])
		}
	}
	return out
}

// TestChebyshevDefaults: the interval is the documented one — Gershgorin
// hi (≈2 on a normalized Laplacian) and lo = hi/30 — and a zero matrix
// gets hi = 1 rather than an empty interval.
func TestChebyshevDefaults(t *testing.T) {
	m := newChebyshev(gridLaplacian(8, 8))
	if m.hi < 1.5 || m.hi > 2.5 {
		t.Errorf("Gershgorin hi = %v, want ~2 for a normalized Laplacian", m.hi)
	}
	if math.Abs(m.lo-m.hi/chebRatio) > 1e-15 {
		t.Errorf("lo = %v, want hi/%d = %v", m.lo, chebRatio, m.hi/chebRatio)
	}
	if z := newChebyshev(NewSparseSym(4).Finalize()); z.hi != 1 || z.lo != 1.0/chebRatio {
		t.Errorf("zero matrix: interval [%v, %v], want [1/%d, 1]", z.lo, z.hi, chebRatio)
	}
}

// TestChebyshevSPD: the semi-iteration's operator is a polynomial in L
// that is strictly positive on [0, hi], so M⁻¹ must come out symmetric
// positive definite — Knyazev's requirement for the preconditioner.
func TestChebyshevSPD(t *testing.T) {
	l := gridLaplacian(5, 6)
	n := l.N
	dense := applyToDense(newChebyshev(l), n)
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
	m := newChebyshev(l)
	gain := func(col int) float64 {
		v := [][]float64{make([]float64, n)}
		for r := 0; r < n; r++ {
			v[0][r] = vecs.At(r, col)
		}
		m.apply(v)
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
	setKnob(t, &coarseStartMinN, l.N+1)
	cheb, err := l.EigenBottomK(6, 1e-4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	plain, plainIters := solvePlain(t, l, 6, 1e-4, rand.New(rand.NewSource(5)))
	if 2*cheb.Iters >= plainIters {
		t.Fatalf("chebyshev took %d iters vs %d unpreconditioned: want < half", cheb.Iters, plainIters)
	}
	for j := range cheb.Values {
		if math.Abs(cheb.Values[j]-plain.lam[j]) > 1e-6 {
			t.Errorf("value %d: cheb %v vs plain %v", j, cheb.Values[j], plain.lam[j])
		}
	}
}

// TestPrecondForMatrix: the coarse-level rebuild is a Chebyshev
// preconditioner on the coarse operator that keeps the fine level's
// interval rather than re-estimating one from the coarse rows.
func TestPrecondForMatrix(t *testing.T) {
	fine := newChebyshev(gridLaplacian(10, 10))
	op := coarsen(fine.c).op
	m := fine.forCoarse(op)
	if m.c != op {
		t.Error("coarse preconditioner does not apply the coarse operator")
	}
	if m.lo != fine.lo || m.hi != fine.hi {
		t.Errorf("coarse interval [%v, %v], want the fine [%v, %v]", m.lo, m.hi, fine.lo, fine.hi)
	}
}

// TestPrecondWorkerIndependence: the Chebyshev apply is bitwise identical
// at every worker count.
func TestPrecondWorkerIndependence(t *testing.T) {
	l := gridLaplacian(12, 13)
	apply := func(workers int) [][]float64 {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		w := newBlock(6, l.N)
		fillRandom(w, rand.New(rand.NewSource(8)))
		newChebyshev(l).apply(w)
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
