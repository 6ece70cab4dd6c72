package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"elink/internal/par"
)

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At returned wrong elements")
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set did not stick")
	}
	tr := m.T()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Fatal("transpose wrong")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Errorf("Mul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Errorf("MulVec = %v, want [17 39]", got)
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 5}})
	if got := a.Add(b); got.At(0, 0) != 4 || got.At(0, 1) != 7 {
		t.Error("Add wrong")
	}
	if got := b.Sub(a); got.At(0, 0) != 2 || got.At(0, 1) != 3 {
		t.Error("Sub wrong")
	}
	if got := a.Scale(3); got.At(0, 1) != 6 {
		t.Error("Scale wrong")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsDiff(orig) != 0 {
		t.Error("Solve mutated the input matrix")
	}
	if b[0] != 1 || b[1] != 2 {
		t.Error("Solve mutated the rhs")
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	if prod.MaxAbsDiff(Identity(2)) > 1e-9 {
		t.Errorf("a * a^-1 = %v, want identity", prod.Data)
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Inverse(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// Property: for random well-conditioned systems, Solve produces x with
// A x == b to high precision.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		// Diagonal dominance keeps the system well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-9 {
		t.Errorf("first eigenvector = [%v %v], want e1", vecs.At(0, 0), vecs.At(1, 0))
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
	r := vecs.At(0, 0) / vecs.At(1, 0)
	if math.Abs(r-1) > 1e-8 {
		t.Errorf("eigenvector ratio = %v, want 1", r)
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(a); err == nil {
		t.Error("EigenSym accepted an asymmetric matrix")
	}
}

// TestCheckSymmetricRelative: large well-scaled entries may differ by a
// relative 1e-9 without rejection, and the error for a real violation
// names the offending row/column pair.
func TestCheckSymmetricRelative(t *testing.T) {
	// Large magnitudes with tiny relative asymmetry: must pass (an
	// absolute 1e-9 threshold would falsely reject this).
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
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not report %q", err.Error(), want)
		}
	}
}

// TestEigenSymBitIdenticalAcrossWorkers pins the determinism contract of
// the dense QL solve the spectral reference and the small-n fallback
// rely on: eigenvalues and eigenvectors are bitwise identical for every
// worker count, including 1.
func TestEigenSymBitIdenticalAcrossWorkers(t *testing.T) {
	solve := func(a *Matrix, workers int) ([]float64, *Matrix) {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return vals, vecs
	}
	for _, n := range []int{64, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, 1+rng.Float64())
			for j := i + 1; j < n; j++ {
				v := rng.NormFloat64() / float64(n)
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		refVals, refVecs := solve(a, 1)
		for _, workers := range []int{2, 3, 4, 8} {
			vals, vecs := solve(a, workers)
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

// TestEigenSymReconstructionProperty: for random symmetric matrices and
// for the fixed shapes the QL solver must not trip over — the empty and
// 1×1 matrices, the 72×72 size of the projected LOBPCG problem, repeated
// eigenvalues (a diagonal with duplicates, the zero matrix, a rank-1
// matrix) and a three-component graph Laplacian — eigenvalues come back
// descending, the eigenvectors are orthonormal, and A V = V Λ, both to
// 1e-10·(‖A‖+1) in the Frobenius norm.
func TestEigenSymReconstructionProperty(t *testing.T) {
	check := func(a *Matrix) string {
		n := a.Rows
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return err.Error()
		}
		if len(vals) != n || vecs.Rows != n || vecs.Cols != n {
			return fmt.Sprintf("got %d values and a %dx%d basis for n=%d", len(vals), vecs.Rows, vecs.Cols, n)
		}
		var normA float64
		for _, v := range a.Data {
			normA += v * v
		}
		bound := 1e-10 * (math.Sqrt(normA) + 1)
		var orth, resid float64
		for c := 0; c < n; c++ {
			if c > 0 && vals[c] > vals[c-1] {
				return fmt.Sprintf("values not descending at %d: %v > %v", c, vals[c], vals[c-1])
			}
			for c2 := 0; c2 < n; c2++ {
				var d float64
				for i := 0; i < n; i++ {
					d += vecs.At(i, c) * vecs.At(i, c2)
				}
				if c == c2 {
					d--
				}
				orth += d * d
			}
			for i := 0; i < n; i++ {
				var av float64
				for j := 0; j < n; j++ {
					av += a.At(i, j) * vecs.At(j, c)
				}
				d := av - vals[c]*vecs.At(i, c)
				resid += d * d
			}
		}
		if math.Sqrt(orth) > bound || math.Sqrt(resid) > bound {
			return fmt.Sprintf("n=%d: ‖VᵀV−I‖=%.3g ‖AV−VΛ‖=%.3g, bound %.3g", n, math.Sqrt(orth), math.Sqrt(resid), bound)
		}
		return ""
	}
	randomSym := func(r *rand.Rand, n int) *Matrix {
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		return a
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		if msg := check(randomSym(r, 2+r.Intn(7))); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}

	r := rand.New(rand.NewSource(72))
	rank1 := NewMatrix(9, 9)
	u := make([]float64, 9)
	for i := range u {
		u[i] = r.NormFloat64()
	}
	for i := range u {
		for j := range u {
			rank1.Set(i, j, u[i]*u[j])
		}
	}
	// Three components: a path of 4, a triangle, and an isolated vertex.
	lap := NewMatrix(8, 8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}} {
		lap.Set(e[0], e[1], -1)
		lap.Set(e[1], e[0], -1)
		lap.Set(e[0], e[0], lap.At(e[0], e[0])+1)
		lap.Set(e[1], e[1], lap.At(e[1], e[1])+1)
	}
	for _, tc := range []struct {
		name string
		a    *Matrix
	}{
		{"n=0", NewMatrix(0, 0)},
		{"n=1", FromRows([][]float64{{-3.5}})},
		{"n=2", randomSym(r, 2)},
		{"n=72", randomSym(r, 72)},
		{"diagonal with duplicates", FromRows([][]float64{{2, 0, 0, 0, 0}, {0, -1, 0, 0, 0}, {0, 0, 2, 0, 0}, {0, 0, 0, 2, 0}, {0, 0, 0, 0, -1}})},
		{"zero", NewMatrix(6, 6)},
		{"rank 1", rank1},
		{"three-component Laplacian", lap},
	} {
		if msg := check(tc.a); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

// errWithin runs f and fails the test unless it returns within a few
// seconds: the non-finite-input tests guard against a solver that loops
// instead of erroring.
func errWithin(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("solver did not return within 10s")
		return nil
	}
}

// TestEigenSymRejectsNonFinite: a NaN or ±Inf entry is an error, never a
// hang or a NaN decomposition.
func TestEigenSymRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 3, 20} {
			a := Identity(n)
			a.Set(n/2, n-1, bad)
			a.Set(n-1, n/2, bad)
			err := errWithin(t, func() error {
				_, _, err := EigenSym(a)
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("n=%d entry %v: err = %v, want a non-finite-entry error", n, bad, err)
			}
		}
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 0, 40)
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{10 + rng.NormFloat64()*0.1, 10 + rng.NormFloat64()*0.1})
	}
	assign := KMeans(FromRows(rows), 2, rng, 50)
	first := assign[0]
	for i := 1; i < 20; i++ {
		if assign[i] != first {
			t.Fatalf("point %d not in same cluster as point 0", i)
		}
	}
	for i := 20; i < 40; i++ {
		if assign[i] == first {
			t.Fatalf("point %d should be in the other cluster", i)
		}
	}
}

func TestKMeansKGreaterOrEqualN(t *testing.T) {
	pts := FromRows([][]float64{{0}, {1}, {2}})
	assign := KMeans(pts, 5, rand.New(rand.NewSource(1)), 10)
	seen := map[int]bool{}
	for _, a := range assign {
		if seen[a] {
			t.Fatal("k >= n should give each point its own cluster")
		}
		seen[a] = true
	}
}

func TestKMeansAssignmentInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := NewMatrix(30, 2)
	for i := range pts.Data {
		pts.Data[i] = rng.Float64()
	}
	k := 4
	assign := KMeans(pts, k, rng, 25)
	if len(assign) != 30 {
		t.Fatalf("len(assign) = %d, want 30", len(assign))
	}
	for i, a := range assign {
		if a < 0 || a >= k {
			t.Fatalf("assign[%d] = %d out of range [0,%d)", i, a, k)
		}
	}
}
