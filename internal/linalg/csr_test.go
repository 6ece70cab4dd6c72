package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"elink/internal/par"
)

func TestFinalizeSortsAndMergesDuplicates(t *testing.T) {
	s := NewSparseSym(4)
	s.Set(0, 3, 2)
	s.Set(0, 1, 1)
	s.Set(0, 3, 5) // duplicate: must merge to 7
	s.Set(2, 2, 4)
	s.Set(2, 2, -1) // duplicate diagonal: must merge to 3
	c := s.Finalize()

	// Rows sorted, duplicates merged.
	for i := 0; i < c.N; i++ {
		cols := c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]]
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d not strictly sorted: %v", i, cols)
			}
		}
	}
	// The builder's accumulate semantics are preserved: CSR MulVec and
	// Dense agree with the duplicate-accumulating SparseSym.
	x := []float64{1, 2, 3, 4}
	want := make([]float64, 4)
	s.MulVec(x, want)
	got := make([]float64, 4)
	c.MulVec(x, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if d := c.Dense().MaxAbsDiff(s.Dense()); d > 1e-12 {
		t.Errorf("Dense disagrees after duplicate sets: max diff %v", d)
	}
	if c.Dense().At(0, 3) != 7 || c.Dense().At(2, 2) != 3 {
		t.Errorf("duplicates not merged: (0,3)=%v (2,2)=%v", c.Dense().At(0, 3), c.Dense().At(2, 2))
	}
}

func TestFinalizeStrictRejectsDuplicates(t *testing.T) {
	s := NewSparseSym(3)
	s.Set(0, 1, 1)
	s.Set(1, 0, 2) // same position via the mirrored triangle
	if _, err := s.FinalizeStrict(); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("duplicate set not rejected: err = %v", err)
	}

	clean := NewSparseSym(3)
	clean.Set(0, 1, 1)
	clean.Set(1, 2, 2)
	clean.Set(2, 2, 3)
	c, err := clean.FinalizeStrict()
	if err != nil {
		t.Fatalf("clean builder rejected: %v", err)
	}
	if c.NNZ() != 5 { // (0,1),(1,0),(1,2),(2,1),(2,2)
		t.Errorf("NNZ = %d, want 5", c.NNZ())
	}
}

func TestCSRMatchesSparseSym(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSparseSym(40)
	for e := 0; e < 120; e++ {
		i, j := rng.Intn(40), rng.Intn(40)
		if i > j {
			i, j = j, i
		}
		s.Set(i, j, rng.NormFloat64())
	}
	c := s.Finalize()
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, got := make([]float64, 40), make([]float64, 40)
	s.MulVec(x, want)
	c.MulVec(x, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	ss, cs := s.RowSums(), c.RowSums()
	for i := range ss {
		if math.Abs(ss[i]-cs[i]) > 1e-12 {
			t.Fatalf("RowSums[%d] = %v, want %v", i, cs[i], ss[i])
		}
	}
}

// TestNormalizedLaplacian pins L = I - D^{-1/2} A D^{-1/2} against a
// dense reference on a graph exercising self-loops, their absence, and
// an isolated vertex.
func TestNormalizedLaplacian(t *testing.T) {
	s := NewSparseSym(5)
	s.Set(0, 0, 1) // self-loop
	s.Set(0, 1, 2)
	s.Set(1, 2, 1)
	s.Set(2, 3, 0.5)
	// node 4 isolated: zero degree
	c := s.Finalize()
	l := c.NormalizedLaplacian()

	// Dense reference.
	a := c.Dense()
	deg := c.RowSums()
	want := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		if deg[i] > 0 {
			want.Set(i, i, 1)
		}
		for j := 0; j < 5; j++ {
			if a.At(i, j) != 0 && deg[i] > 0 && deg[j] > 0 {
				want.Set(i, j, want.At(i, j)-a.At(i, j)/math.Sqrt(deg[i]*deg[j]))
			}
		}
	}
	if d := l.Dense().MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("NormalizedLaplacian differs from dense reference by %v\n got %v\nwant %v", d, l.Dense(), want)
	}
	// Rows stay sorted and duplicate-free.
	for i := 0; i < l.N; i++ {
		cols := l.ColIdx[l.RowPtr[i]:l.RowPtr[i+1]]
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("Laplacian row %d not strictly sorted: %v", i, cols)
			}
		}
	}
}

func randomCSR(t *testing.T, n, edges int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSparseSym(n)
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		s.Set(i, j, rng.NormFloat64())
	}
	return s.Finalize()
}

// TestMulVecsMatchesMulVec pins the fused kernel's contract: for every
// block width (exercising the 4-wide unroll and each remainder path) and
// every worker count, MulVecs is bitwise equal to per-column MulVec.
func TestMulVecsMatchesMulVec(t *testing.T) {
	c := randomCSR(t, 700, 2500, 19) // > mulVecsGrain: multiple row chunks
	rng := rand.New(rand.NewSource(2))
	for _, b := range []int{1, 2, 3, 4, 5, 7, 9} {
		x := newBlock(b, c.N)
		fillRandom(x, rng)
		want := newBlock(b, c.N)
		for j := 0; j < b; j++ {
			c.MulVec(x[j], want[j])
		}
		for _, workers := range []int{1, 2, 4, 8} {
			par.SetWorkers(workers)
			y := newBlock(b, c.N)
			c.MulVecs(x, y)
			par.SetWorkers(0)
			for j := 0; j < b; j++ {
				for i := 0; i < c.N; i++ {
					if y[j][i] != want[j][i] {
						t.Fatalf("b=%d workers=%d: y[%d][%d] = %v, MulVec gives %v (bit-equality broken)",
							b, workers, j, i, y[j][i], want[j][i])
					}
				}
			}
		}
	}
	// Shape mismatch panics rather than corrupting.
	defer func() {
		if recover() == nil {
			t.Error("mismatched block shapes did not panic")
		}
	}()
	c.MulVecs(newBlock(2, c.N), newBlock(3, c.N))
}
