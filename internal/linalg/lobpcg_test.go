package linalg

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"elink/internal/par"
)

// gridLaplacian builds the normalized Laplacian of a rows x cols grid
// graph with unit edge weights and unit self-loops (the affinity shape
// the spectral baseline produces).
func gridLaplacian(rows, cols int) *CSR {
	n := rows * cols
	s := NewSparseSym(n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			s.Set(id, id, 1)
			if c+1 < cols {
				s.Set(id, id+1, 1)
			}
			if r+1 < rows {
				s.Set(id, (r+1)*cols+c, 1)
			}
		}
	}
	return s.Finalize().NormalizedLaplacian()
}

// TestEigenBottomKMatchesDense checks the LOBPCG engine against the
// dense Jacobi reference on a banded random symmetric matrix: values
// must agree, and each sparse eigenvector must lie in the dense
// eigenvector subspace of the matching eigenvalues (subspace angle ~ 0),
// which is the rotation-proof comparison for (near-)multiple spectra.
func TestEigenBottomKMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, k := 150, 5
	s := NewSparseSym(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 2+rng.Float64())
		for w := 1; w <= 4; w++ {
			if i+w < n {
				s.Set(i, i+w, rng.NormFloat64())
			}
		}
	}
	c := s.Finalize()
	res, err := c.EigenBottomK(k, rng, BottomKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := EigenSym(c.Dense())
	if err != nil {
		t.Fatal(err)
	}
	// Dense values are descending: the bottom k are the trailing ones.
	for j := 0; j < k; j++ {
		want := vals[n-1-j]
		if math.Abs(res.Values[j]-want) > 1e-5 {
			t.Errorf("value %d = %v, want %v", j, res.Values[j], want)
		}
		if res.Residuals[j] > 1e-5 {
			t.Errorf("residual %d = %v, want < 1e-5", j, res.Residuals[j])
		}
	}
	checkSubspace(t, c, res, vals, vecs, 1e-4)
}

// checkSubspace verifies each sparse eigenvector is (numerically) inside
// the span of the dense eigenvectors whose eigenvalues match its own.
func checkSubspace(t *testing.T, c *CSR, res *BottomKResult, denseVals []float64, denseVecs *Matrix, tol float64) {
	t.Helper()
	n := c.N
	for j := range res.Values {
		v := make([]float64, n)
		for r := 0; r < n; r++ {
			v[r] = res.Vectors.At(r, j)
		}
		// Projection onto the matching dense eigenspace.
		var proj float64
		for col := 0; col < n; col++ {
			if math.Abs(denseVals[col]-res.Values[j]) > 1e-4 {
				continue
			}
			var d float64
			for r := 0; r < n; r++ {
				d += denseVecs.At(r, col) * v[r]
			}
			proj += d * d
		}
		if sin := math.Sqrt(math.Max(0, 1-proj)); sin > tol {
			t.Errorf("vector %d: subspace angle sin = %v (> %v)", j, sin, tol)
		}
	}
}

// TestEigenBottomKDisconnected: the normalized Laplacian of a graph with
// three connected components has a zero eigenvalue of multiplicity 3;
// the block solver must resolve all three and their component-indicator
// eigenspace.
func TestEigenBottomKDisconnected(t *testing.T) {
	// Three disjoint grids of different sizes.
	comps := []struct{ rows, cols int }{{5, 6}, {4, 4}, {3, 7}}
	total := 0
	for _, cp := range comps {
		total += cp.rows * cp.cols
	}
	s := NewSparseSym(total)
	base := 0
	for _, cp := range comps {
		for r := 0; r < cp.rows; r++ {
			for c := 0; c < cp.cols; c++ {
				id := base + r*cp.cols + c
				s.Set(id, id, 1)
				if c+1 < cp.cols {
					s.Set(id, id+1, 1)
				}
				if r+1 < cp.rows {
					s.Set(id, base+(r+1)*cp.cols+c, 1)
				}
			}
		}
		base += cp.rows * cp.cols
	}
	l := s.Finalize().NormalizedLaplacian()
	rng := rand.New(rand.NewSource(3))
	res, err := l.EigenBottomK(4, rng, BottomKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(res.Values[j]) > 1e-8 {
			t.Errorf("eigenvalue %d = %v, want 0 (component count 3)", j, res.Values[j])
		}
	}
	if res.Values[3] < 1e-4 {
		t.Errorf("eigenvalue 3 = %v, want > 0 (only 3 components)", res.Values[3])
	}
	// Every component must be represented in the kernel basis.
	base = 0
	for ci, cp := range comps {
		sz := cp.rows * cp.cols
		var mass float64
		for j := 0; j < 3; j++ {
			for r := base; r < base+sz; r++ {
				v := res.Vectors.At(r, j)
				mass += v * v
			}
		}
		if mass < 0.5 {
			t.Errorf("component %d has kernel mass %v, want ~1", ci, mass)
		}
		base += sz
	}
}

// TestEigenBottomKBitIdenticalAcrossWorkers pins the determinism
// contract: the sparse engine's results are bitwise identical for every
// worker count.
func TestEigenBottomKBitIdenticalAcrossWorkers(t *testing.T) {
	l := gridLaplacian(20, 25)
	solve := func(workers int) *BottomKResult {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		rng := rand.New(rand.NewSource(42))
		res, err := l.EigenBottomK(6, rng, BottomKOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := solve(1)
	for _, workers := range []int{2, 3, 4, 8} {
		got := solve(workers)
		for j := range ref.Values {
			if got.Values[j] != ref.Values[j] {
				t.Fatalf("workers=%d: value %d differs: %v != %v (bit-identity broken)",
					workers, j, got.Values[j], ref.Values[j])
			}
		}
		for i := range ref.Vectors.Data {
			if got.Vectors.Data[i] != ref.Vectors.Data[i] {
				t.Fatalf("workers=%d: vector element %d differs: %v != %v (bit-identity broken)",
					workers, i, got.Vectors.Data[i], ref.Vectors.Data[i])
			}
		}
	}
}

// TestEigenBottomKNoConvergence starves the solver of iterations and
// checks the explicit error contract: best-effort result plus a
// ConvergenceError wrapping ErrNoConvergence, residuals attached.
func TestEigenBottomKNoConvergence(t *testing.T) {
	l := gridLaplacian(18, 18)
	rng := rand.New(rand.NewSource(9))
	res, err := l.EigenBottomK(4, rng, BottomKOptions{MaxIter: 2})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("starved solve returned err = %v, want ErrNoConvergence", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T does not unwrap to *ConvergenceError", err)
	}
	if len(ce.Residuals) != 4 || ce.Iters != 2 {
		t.Errorf("diagnostics: residuals len %d iters %d, want 4 and 2", len(ce.Residuals), ce.Iters)
	}
	if res == nil || res.Vectors == nil || len(res.Values) != 4 {
		t.Fatalf("best-effort result missing alongside ErrNoConvergence: %+v", res)
	}
	worst := 0.0
	for _, r := range ce.Residuals {
		if r > worst {
			worst = r
		}
	}
	if worst == 0 {
		t.Error("all residuals zero on an unconverged solve")
	}
}

// TestEigenBottomKRaceHammer runs concurrent solves over one shared CSR
// at a mixed worker count so the -race pass exercises the block solver's
// parallel sections. Results must still be identical across goroutines
// (same seed, shared read-only matrix).
func TestEigenBottomKRaceHammer(t *testing.T) {
	par.SetWorkers(3)
	defer par.SetWorkers(0)
	l := gridLaplacian(15, 16)
	const nsolvers = 4
	results := make([]*BottomKResult, nsolvers)
	errs := make([]error, nsolvers)
	var wg sync.WaitGroup
	for g := 0; g < nsolvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(77))
			results[g], errs[g] = l.EigenBottomK(3, rng, BottomKOptions{})
		}(g)
	}
	wg.Wait()
	for g := 0; g < nsolvers; g++ {
		if errs[g] != nil {
			t.Fatalf("solver %d: %v", g, errs[g])
		}
		for i := range results[0].Vectors.Data {
			if results[g].Vectors.Data[i] != results[0].Vectors.Data[i] {
				t.Fatalf("solver %d diverged from solver 0 at element %d", g, i)
			}
		}
	}
}

// TestEigenBottomKWarmStart: above coarseStartMinN the default path
// builds a coarse-grid hierarchy, and the warm-started solve must reach
// the same eigenvalues as the random-start one in far fewer iterations.
func TestEigenBottomKWarmStart(t *testing.T) {
	l := gridLaplacian(25, 26) // n=650 >= coarseStartMinN
	warm, err := l.EigenBottomK(6, rand.New(rand.NewSource(2)), BottomKOptions{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CoarseLevels < 1 {
		t.Fatalf("CoarseLevels = %d, want >= 1 at n=%d", warm.CoarseLevels, l.N)
	}
	cold, err := l.EigenBottomK(6, rand.New(rand.NewSource(2)), BottomKOptions{Tol: 1e-4, RandomStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CoarseLevels != 0 {
		t.Fatalf("RandomStart reported %d coarse levels", cold.CoarseLevels)
	}
	// Both arms run the default Jacobi preconditioner (≈ identity on a
	// normalized Laplacian), so this isolates the warm start's effect:
	// measured 16 vs 32 iterations here — require a strict improvement
	// with headroom rather than pinning the exact counts.
	if 3*warm.Iters >= 2*cold.Iters {
		t.Fatalf("warm start took %d iters vs %d cold: want < 2/3", warm.Iters, cold.Iters)
	}
	for j := range warm.Values {
		if math.Abs(warm.Values[j]-cold.Values[j]) > 1e-6 {
			t.Errorf("value %d: warm %v vs cold %v", j, warm.Values[j], cold.Values[j])
		}
	}
	// Below the threshold the hierarchy is skipped entirely.
	small, err := gridLaplacian(10, 12).EigenBottomK(4, rand.New(rand.NewSource(2)), BottomKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if small.CoarseLevels != 0 {
		t.Fatalf("n=120 solve used %d coarse levels, want 0", small.CoarseLevels)
	}
}

// TestEigenBottomKPrecondDeterminism is the cross-preconditioner golden:
// for none/Jacobi/Chebyshev — warm-started, on a matrix large enough to
// exercise the coarse hierarchy — results are bitwise identical across
// worker counts. Only the preconditioner may change the trajectory, never
// the worker count.
func TestEigenBottomKPrecondDeterminism(t *testing.T) {
	l := gridLaplacian(25, 26) // n=650: warm start + chunked kernels active
	for _, tc := range []struct {
		name  string
		build func() Preconditioner
	}{
		{"none", func() Preconditioner { return IdentityPrecond{} }},
		{"jacobi", func() Preconditioner { return NewJacobi(l) }},
		{"chebyshev", func() Preconditioner { return NewChebyshev(l, 0, 0, 0) }},
	} {
		solve := func(workers int) *BottomKResult {
			par.SetWorkers(workers)
			defer par.SetWorkers(0)
			res, err := l.EigenBottomK(5, rand.New(rand.NewSource(17)), BottomKOptions{
				Tol: 1e-4, Precond: tc.build(),
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			return res
		}
		ref := solve(1)
		for _, workers := range []int{4} {
			got := solve(workers)
			if got.Iters != ref.Iters || got.CoarseLevels != ref.CoarseLevels {
				t.Fatalf("%s workers=%d: iters/levels %d/%d differ from %d/%d",
					tc.name, workers, got.Iters, got.CoarseLevels, ref.Iters, ref.CoarseLevels)
			}
			for j := range ref.Values {
				if got.Values[j] != ref.Values[j] {
					t.Fatalf("%s workers=%d: value %d differs: %v != %v (bit-identity broken)",
						tc.name, workers, j, got.Values[j], ref.Values[j])
				}
			}
			for i := range ref.Vectors.Data {
				if got.Vectors.Data[i] != ref.Vectors.Data[i] {
					t.Fatalf("%s workers=%d: vector element %d differs (bit-identity broken)",
						tc.name, workers, i)
				}
			}
		}
	}
}

// TestEigenBottomKIterationsPinned pins the production configuration's
// convergence on the 50x50 grid: k=8 at the spectral baseline's sparse
// tolerance, Chebyshev-preconditioned, default coarse-grid warm start.
// The solve is deterministic at any worker count, so a change to the
// preconditioner, the coarsening or the warm start that costs (or saves)
// iterations shows up here as an exact mismatch.
func TestEigenBottomKIterationsPinned(t *testing.T) {
	l := gridLaplacian(50, 50)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		res, err := l.EigenBottomK(8, rand.New(rand.NewSource(2501)), BottomKOptions{
			Tol: 2e-4, Precond: NewChebyshev(l, 0, 0, 0),
		})
		par.SetWorkers(0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Iters != 5 || res.CoarseLevels != 3 {
			t.Errorf("workers=%d: iters/levels = %d/%d, want 5/3", workers, res.Iters, res.CoarseLevels)
		}
	}
}

// TestEigenBottomKDenseFallback covers the small-n path and k clamping.
func TestEigenBottomKDenseFallback(t *testing.T) {
	l := gridLaplacian(4, 5) // n=20 <= 64: dense fallback
	rng := rand.New(rand.NewSource(1))
	res, err := l.EigenBottomK(25, rng, BottomKOptions{}) // k clamps to 20
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 20 || res.Vectors.Cols != 20 {
		t.Fatalf("clamp: got %d pairs, want 20", len(res.Values))
	}
	for j := 1; j < len(res.Values); j++ {
		if res.Values[j] < res.Values[j-1] {
			t.Fatalf("values not ascending at %d: %v < %v", j, res.Values[j], res.Values[j-1])
		}
	}
	if math.Abs(res.Values[0]) > 1e-9 {
		t.Errorf("connected grid: smallest eigenvalue %v, want 0", res.Values[0])
	}
	if _, err := l.EigenBottomK(0, rng, BottomKOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}
