package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"elink/internal/par"
)

// randomSym builds a random symmetric matrix resembling the normalized
// affinity Laplacians the spectral baseline feeds the solver.
func randomSym(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1+rng.Float64())
		for j := i + 1; j < n; j++ {
			v := rng.NormFloat64() / float64(n)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// TestEigenParBitIdentical pins the tentpole determinism contract: the
// parallel Jacobi path produces bitwise identical eigenvalues and
// eigenvectors for every worker count, including 1.
func TestEigenParBitIdentical(t *testing.T) {
	old := parEigenCutoff
	parEigenCutoff = 64 // force the parallel path at test-friendly sizes
	defer func() { parEigenCutoff = old }()

	for _, n := range []int{64, 130} {
		a := randomSym(n, int64(n))
		refVals, refVecs, err := EigenSymOpt(a, EigenOptions{Workers: 1})
		if err != nil {
			t.Fatalf("n=%d workers=1: %v", n, err)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			vals, vecs, err := EigenSymOpt(a, EigenOptions{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range vals {
				if vals[i] != refVals[i] {
					t.Fatalf("n=%d workers=%d: eigenvalue %d differs: %v != %v (bit-identity broken)",
						n, workers, i, vals[i], refVals[i])
				}
			}
			for i := range vecs.Data {
				if vecs.Data[i] != refVecs.Data[i] {
					t.Fatalf("n=%d workers=%d: eigenvector element %d differs: %v != %v (bit-identity broken)",
						n, workers, i, vecs.Data[i], refVecs.Data[i])
				}
			}
		}
	}
}

// TestEigenParMatchesSerial checks the parallel path against the serial
// reference numerically: same spectrum, residuals at solver tolerance.
func TestEigenParMatchesSerial(t *testing.T) {
	const n = 96
	a := randomSym(n, 7)

	serialVals, _, err := EigenSym(a) // n < cutoff: serial path
	if err != nil {
		t.Fatal(err)
	}

	old := parEigenCutoff
	parEigenCutoff = 64
	defer func() { parEigenCutoff = old }()
	parVals, parVecs, err := EigenSymOpt(a, EigenOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialVals {
		if math.Abs(serialVals[i]-parVals[i]) > 1e-8 {
			t.Fatalf("eigenvalue %d: serial %v vs parallel %v", i, serialVals[i], parVals[i])
		}
	}
	// Residual ||A v - λ v|| for a few leading pairs.
	for c := 0; c < 5; c++ {
		var res float64
		for r := 0; r < n; r++ {
			var av float64
			for k := 0; k < n; k++ {
				av += a.At(r, k) * parVecs.At(k, c)
			}
			d := av - parVals[c]*parVecs.At(r, c)
			res += d * d
		}
		if math.Sqrt(res) > 1e-7 {
			t.Fatalf("pair %d residual %g too large", c, math.Sqrt(res))
		}
	}
}

// TestCheckSymmetricRelative covers the satellite fix: large well-scaled
// entries may differ by a relative 1e-9 without rejection, and the error
// for a real violation names the offending row/column pair.
func TestCheckSymmetricRelative(t *testing.T) {
	// Large magnitudes with tiny relative asymmetry: must pass (the old
	// absolute 1e-9 threshold falsely rejected this).
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1e6)
	m.Set(1, 1, 1e6)
	m.Set(0, 1, 1e6)
	m.Set(1, 0, 1e6+1e-4) // relative diff 1e-10 < 1e-9
	if _, _, err := EigenSym(m); err != nil {
		t.Fatalf("well-scaled matrix falsely rejected: %v", err)
	}

	// A genuine violation must fail and name the worst pair.
	bad := NewMatrix(3, 3)
	bad.Set(1, 2, 1.0)
	bad.Set(2, 1, 2.0)
	_, _, err := EigenSym(bad)
	if err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	for _, want := range []string{"(1,2)", "a[1][2]=1", "a[2][1]=2"} {
		if !containsStr(err.Error(), want) {
			t.Fatalf("error %q does not report %q", err.Error(), want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkEigenParallel times the serial and parallel Jacobi paths at
// the sizes the spectral baseline actually sees. MaxSweeps is capped so
// the large sizes time per-sweep throughput rather than full
// convergence:
//
//	go test -run '^$' -bench EigenParallel ./internal/linalg
func BenchmarkEigenParallel(b *testing.B) {
	for _, n := range []int{256, 700} {
		a := randomSym(n, int64(n))
		sweeps := 3
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := EigenSymOpt(a, EigenOptions{MaxSweeps: sweeps, ForceSerial: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d/j=%d", n, par.Workers()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := EigenSymOpt(a, EigenOptions{MaxSweeps: sweeps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
