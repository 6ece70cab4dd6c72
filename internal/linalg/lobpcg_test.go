package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"elink/internal/par"
)

// setKnob sets one of the solver's package knobs (coarseStartMinN,
// maxIters) for the rest of the test.
func setKnob(t *testing.T, knob *int, v int) {
	t.Helper()
	old := *knob
	*knob = v
	t.Cleanup(func() { *knob = old })
}

// solvePlain runs the loop EigenBottomK runs, unpreconditioned and from
// the seeded-random start: the reference the Chebyshev preconditioner
// and the warm start are measured against. It returns the solver state
// (pairs ascending in x/lam/res) and the iteration count.
func solvePlain(t *testing.T, c *CSR, k int, tol float64, rng *rand.Rand) (*lobpcgState, int) {
	t.Helper()
	st := newLobpcgState(c, min(k+8, (c.N-1)/3), nil)
	fillRandom(st.x, rng)
	orthonormalize(st.x)
	iters, err := st.run(k, tol, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	return st, iters
}

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
	return mustFinalize(s).NormalizedLaplacian()
}

// TestEigenBottomKMatchesDense checks the LOBPCG engine against the
// dense EigenSym reference on a banded random symmetric matrix: values
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
	c := mustFinalize(s)
	res, err := c.EigenBottomK(k, 1e-6, rng)
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
	l := mustFinalize(s).NormalizedLaplacian()
	rng := rand.New(rand.NewSource(3))
	res, err := l.EigenBottomK(4, 1e-6, rng)
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
		res, err := l.EigenBottomK(6, 1e-6, rng)
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
	setKnob(t, &maxIters, 2)
	l := gridLaplacian(18, 18)
	rng := rand.New(rand.NewSource(9))
	res, err := l.EigenBottomK(4, 1e-6, rng)
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
			results[g], errs[g] = l.EigenBottomK(3, 1e-6, rng)
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

// TestEigenBottomKWarmStart: above coarseStartMinN EigenBottomK
// builds a coarse-grid hierarchy, and the warm-started solve must reach
// the same eigenvalues as the random-start one in far fewer iterations.
func TestEigenBottomKWarmStart(t *testing.T) {
	l := gridLaplacian(25, 26) // n=650 >= coarseStartMinN
	warm, err := l.EigenBottomK(6, 1e-4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CoarseLevels < 1 {
		t.Fatalf("CoarseLevels = %d, want >= 1 at n=%d", warm.CoarseLevels, l.N)
	}
	setKnob(t, &coarseStartMinN, l.N+1)
	cold, err := l.EigenBottomK(6, 1e-4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CoarseLevels != 0 {
		t.Fatalf("random start reported %d coarse levels", cold.CoarseLevels)
	}
	// Both arms run the Chebyshev preconditioner, so this
	// isolates the warm start's effect: measured 4 vs 7 iterations here —
	// require a strict improvement rather than pinning the exact counts.
	if 3*warm.Iters >= 2*cold.Iters {
		t.Fatalf("warm start took %d iters vs %d cold: want < 2/3", warm.Iters, cold.Iters)
	}
	for j := range warm.Values {
		if math.Abs(warm.Values[j]-cold.Values[j]) > 1e-6 {
			t.Errorf("value %d: warm %v vs cold %v", j, warm.Values[j], cold.Values[j])
		}
	}
	// Below the threshold the hierarchy is skipped entirely.
	small, err := gridLaplacian(10, 12).EigenBottomK(4, 1e-6, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if small.CoarseLevels != 0 {
		t.Fatalf("n=120 solve used %d coarse levels, want 0", small.CoarseLevels)
	}
}

// TestEigenBottomKPrecondDeterminism is the cross-preconditioner golden:
// unpreconditioned from a random start, and Chebyshev-preconditioned
// from the warm start on a matrix large enough to exercise the coarse
// hierarchy, results are bitwise identical across worker counts. Only
// the preconditioner may change the trajectory, never the worker count.
func TestEigenBottomKPrecondDeterminism(t *testing.T) {
	l := gridLaplacian(25, 26) // n=650: warm start + chunked kernels active
	type outcome struct {
		values, vectors []float64
		iters, levels   int
	}
	for _, tc := range []struct {
		name  string
		solve func() outcome
	}{
		{"none", func() outcome {
			st, iters := solvePlain(t, l, 5, 1e-4, rand.New(rand.NewSource(17)))
			var vecs []float64
			for _, col := range st.x[:5] {
				vecs = append(vecs, col...)
			}
			return outcome{append([]float64(nil), st.lam[:5]...), vecs, iters, 0}
		}},
		{"chebyshev", func() outcome {
			res, err := l.EigenBottomK(5, 1e-4, rand.New(rand.NewSource(17)))
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.Values, res.Vectors.Data, res.Iters, res.CoarseLevels}
		}},
	} {
		solve := func(workers int) outcome {
			par.SetWorkers(workers)
			defer par.SetWorkers(0)
			return tc.solve()
		}
		ref := solve(1)
		for _, workers := range []int{4} {
			got := solve(workers)
			if got.iters != ref.iters || got.levels != ref.levels {
				t.Fatalf("%s workers=%d: iters/levels %d/%d differ from %d/%d",
					tc.name, workers, got.iters, got.levels, ref.iters, ref.levels)
			}
			for j := range ref.values {
				if got.values[j] != ref.values[j] {
					t.Fatalf("%s workers=%d: value %d differs: %v != %v (bit-identity broken)",
						tc.name, workers, j, got.values[j], ref.values[j])
				}
			}
			for i := range ref.vectors {
				if got.vectors[i] != ref.vectors[i] {
					t.Fatalf("%s workers=%d: vector element %d differs (bit-identity broken)",
						tc.name, workers, i)
				}
			}
		}
	}
}

// TestEigenBottomKIterationsPinned pins the production configuration's
// convergence on the 50x50 grid: k=8 at the spectral baseline's
// tolerance, Chebyshev preconditioner and coarse-grid warm start.
// The solve is deterministic at any worker count, so a change to the
// preconditioner, the coarsening or the warm start that costs (or saves)
// iterations shows up here as an exact mismatch.
func TestEigenBottomKIterationsPinned(t *testing.T) {
	l := gridLaplacian(50, 50)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		res, err := l.EigenBottomK(8, 2e-4, rand.New(rand.NewSource(2501)))
		par.SetWorkers(0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Iters != 5 || res.CoarseLevels != 3 {
			t.Errorf("workers=%d: iters/levels = %d/%d, want 5/3", workers, res.Iters, res.CoarseLevels)
		}
	}
}

// TestEigenBottomKDegenerateSpectrum: on a scaled identity every vector
// is an eigenvector, so the LOBPCG path's random starting block is
// already converged and the solver must return the repeated eigenvalue
// at once instead of tripping over the collapsed Rayleigh–Ritz basis.
func TestEigenBottomKDegenerateSpectrum(t *testing.T) {
	s := NewSparseSym(100) // > 64: the iterative path, not the dense fallback
	for i := 0; i < s.N; i++ {
		s.Set(i, i, 2)
	}
	res, err := mustFinalize(s).EigenBottomK(3, 1e-6, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 {
		t.Errorf("iters = %d, want 1 (the start block is already exact)", res.Iters)
	}
	for j, v := range res.Values {
		if math.Abs(v-2) > 1e-9 {
			t.Errorf("eigenvalue %d = %v, want 2", j, v)
		}
	}
}

// TestEigenBottomKDenseFallback covers the small-n path and k clamping.
func TestEigenBottomKDenseFallback(t *testing.T) {
	l := gridLaplacian(4, 5) // n=20 <= 64: dense fallback
	rng := rand.New(rand.NewSource(1))
	res, err := l.EigenBottomK(25, 1e-6, rng) // k clamps to 20
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
	if _, err := l.EigenBottomK(0, 1e-6, rng); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestEigenBottomKIndefiniteMatchesDense runs the iterative path on an
// unstructured indefinite matrix — random banded entries, no Laplacian
// shape, unpreconditioned — and checks the bottom values against the
// dense EigenSym decomposition: the solver must not lean on a [0, 2]
// spectrum.
func TestEigenBottomKIndefiniteMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, k := 100, 5
	s := NewSparseSym(n)
	for i := 0; i < n; i++ {
		for w := 0; w <= 3 && i+w < n; w++ {
			s.Set(i, i+w, rng.NormFloat64())
		}
	}
	c := mustFinalize(s)
	st, _ := solvePlain(t, c, k, 1e-8, rng)
	vals, _, err := EigenSym(c.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if vals[n-1] >= 0 {
		t.Fatalf("test matrix is not indefinite: smallest eigenvalue %v", vals[n-1])
	}
	for j := 0; j < k; j++ {
		if want := vals[n-1-j]; math.Abs(st.lam[j]-want) > 1e-6 {
			t.Errorf("value %d = %v, dense = %v", j, st.lam[j], want)
		}
	}
}

// TestEigenBottomKRitzVectorsAreEigenvectors checks the returned pairs
// directly against the matrix: L v = λ v row by row, and the vectors are
// orthonormal.
func TestEigenBottomKRitzVectorsAreEigenvectors(t *testing.T) {
	l := gridLaplacian(10, 12)
	n, k := l.N, 4
	res, err := l.EigenBottomK(k, 1e-8, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = make([]float64, n)
		for r := range cols[c] {
			cols[c][r] = res.Vectors.At(r, c)
		}
		y := make([]float64, n)
		l.MulVec(cols[c], y)
		for r := range y {
			if d := y[r] - res.Values[c]*cols[c][r]; math.Abs(d) > 1e-6 {
				t.Fatalf("pair %d: residual %v at row %d", c, d, r)
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if d := dot(cols[a], cols[b]); math.Abs(d-want) > 1e-9 {
				t.Errorf("<v%d, v%d> = %v, want %v", a, b, d, want)
			}
		}
	}
}

// TestEigenBottomKClampsK: asking for more pairs than the matrix has
// returns all n of them, ascending.
func TestEigenBottomKClampsK(t *testing.T) {
	s := NewSparseSym(3)
	s.Set(0, 0, 3)
	s.Set(1, 1, 1)
	s.Set(2, 2, 2)
	res, err := mustFinalize(s).EigenBottomK(10, 1e-6, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 || res.Vectors.Cols != 3 {
		t.Fatalf("got %d eigenpairs, want clamped to 3", len(res.Values))
	}
	for j, want := range []float64{1, 2, 3} {
		if math.Abs(res.Values[j]-want) > 1e-12 {
			t.Errorf("value %d = %v, want %v", j, res.Values[j], want)
		}
	}
}

// TestEigenBottomKRejectsBadK: non-positive k is an error on both the
// dense-fallback and the iterative size.
func TestEigenBottomKRejectsBadK(t *testing.T) {
	for _, l := range []*CSR{gridLaplacian(3, 3), gridLaplacian(10, 10)} {
		for _, k := range []int{0, -1} {
			if _, err := l.EigenBottomK(k, 1e-6, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("n=%d: k=%d accepted", l.N, k)
			}
		}
	}
}

// TestEigenBottomKRejectsBadTol: a tolerance that is not positive and
// finite is an error with no result on both the dense-fallback and the
// iterative size — a NaN or negative tol could never be met, and +Inf
// would accept any block.
func TestEigenBottomKRejectsBadTol(t *testing.T) {
	for _, l := range []*CSR{gridLaplacian(3, 3), gridLaplacian(10, 10)} {
		for _, tol := range []float64{0, -1e-6, math.NaN(), math.Inf(1), math.Inf(-1)} {
			res, err := l.EigenBottomK(2, tol, rand.New(rand.NewSource(1)))
			if err == nil || res != nil {
				t.Errorf("n=%d: tol=%v gave result %v, err %v; want an error and no result", l.N, tol, res, err)
			}
		}
	}
}

// TestEigenBottomKSurfacesNonConvergence: a bottom spectrum packed into
// [0, 1e-2] with uniform 1e-4 gaps cannot reach a 1e-10 residual in five
// iterations. The solver must say so with a ConvergenceError carrying
// the residual, and still hand back its best-effort pair from inside the
// cluster.
func TestEigenBottomKSurfacesNonConvergence(t *testing.T) {
	n := 100
	s := NewSparseSym(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, float64(i)*1e-4)
	}
	setKnob(t, &maxIters, 5)
	res, err := mustFinalize(s).EigenBottomK(1, 1e-10, rand.New(rand.NewSource(8)))
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("unconverged solve returned err = %v, want ErrNoConvergence", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T does not unwrap to *ConvergenceError", err)
	}
	if len(ce.Residuals) != 1 || ce.Residuals[0] == 0 {
		t.Errorf("residual diagnostics missing: %+v", ce.Residuals)
	}
	if res == nil || res.Vectors == nil || res.Vectors.Cols != 1 || len(res.Values) != 1 {
		t.Fatalf("best-effort result missing: %+v", res)
	}
	if v := res.Values[0]; v < 0 || v > 1e-2 {
		t.Errorf("best-effort eigenvalue %v outside the [0, 1e-2] cluster", v)
	}
}

// TestEigenBottomKResolvesMultiplicity: three disconnected 30-cliques give
// a normalized Laplacian I - J/30 per block, so 0 is a triple eigenvalue
// and everything else sits at 1. The block solver must return all three
// kernel vectors, each clique carried by one of them.
func TestEigenBottomKResolvesMultiplicity(t *testing.T) {
	const size = 30
	n := 3 * size
	s := NewSparseSym(n)
	for c := 0; c < 3; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i; j < size; j++ {
				s.Set(base+i, base+j, 1)
			}
		}
	}
	l := mustFinalize(s).NormalizedLaplacian()
	res, err := l.EigenBottomK(3, 1e-6, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters == 0 {
		t.Fatal("solve took the dense fallback, want the iterative path")
	}
	for j := 0; j < 3; j++ {
		if math.Abs(res.Values[j]) > 1e-8 {
			t.Fatalf("eigenvalue %d = %v, want 0 (triple)", j, res.Values[j])
		}
	}
	for c := 0; c < 3; c++ {
		var mass float64
		for j := 0; j < 3; j++ {
			for r := c * size; r < (c+1)*size; r++ {
				v := res.Vectors.At(r, j)
				mass += v * v
			}
		}
		if math.Abs(mass-1) > 1e-6 {
			t.Errorf("clique %d has kernel mass %v, want 1", c, mass)
		}
	}
}

// TestEigenBottomKRejectsNonFinite: on the iterative size (n > 64) a NaN
// or ±Inf matrix entry is an error, and so is a projected eigensolve
// that meets non-finite values inside the iteration — neither may loop.
func TestEigenBottomKRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := gridLaplacian(10, 10)
		l.Vals[len(l.Vals)/2] = bad
		err := errWithin(t, func() error {
			_, err := l.EigenBottomK(4, 1e-6, rand.New(rand.NewSource(1)))
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("entry %v: err = %v, want a non-finite-entry error", bad, err)
		}

		// Past the entry check, the NaN reaches the Rayleigh–Ritz
		// problem, whose solve must fail with an error.
		st := newLobpcgState(l, 8, nil)
		fillRandom(st.x, rand.New(rand.NewSource(2)))
		orthonormalize(st.x)
		err = errWithin(t, func() error {
			_, err := st.run(4, 1e-6, 50)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "projected eigensolve") {
			t.Errorf("entry %v: run err = %v, want a projected-eigensolve error", bad, err)
		}
	}
}
