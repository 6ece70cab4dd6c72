package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"elink/internal/par"
)

// mustFinalize is Finalize for a builder that sets each position once.
func mustFinalize(s *SparseSym) *CSR {
	c, err := s.Finalize()
	if err != nil {
		panic(err)
	}
	return c
}

// MulVec computes y = C x: the one-column product MulVecs is held
// bitwise equal to.
func (c *CSR) MulVec(x, y []float64) {
	for i := 0; i < c.N; i++ {
		var sum float64
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		cols, vals := c.ColIdx[lo:hi], c.Vals[lo:hi]
		for k, j := range cols {
			sum += vals[k] * x[j]
		}
		y[i] = sum
	}
}

// setOnce sets (i, j) unless it, or its mirror (j, i), is already set:
// a random builder that draws a position twice keeps the first value.
func setOnce(s *SparseSym, i, j int, v float64) {
	if !slices.Contains(s.Cols[i], int32(j)) {
		s.Set(i, j, v)
	}
}

// randomSparse sets up to edges random positions of an n x n builder,
// the diagonal included, to normal values.
func randomSparse(n, edges int, rng *rand.Rand) *SparseSym {
	s := NewSparseSym(n)
	for e := 0; e < edges; e++ {
		setOnce(s, rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return s
}

func TestFinalizeSortsRows(t *testing.T) {
	s := NewSparseSym(4)
	s.Set(0, 3, 2)
	s.Set(0, 1, 1)
	s.Set(2, 2, 4)
	s.Set(3, 1, 5)
	c := mustFinalize(s)
	for i := 0; i < c.N; i++ {
		cols := c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]]
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d not strictly sorted: %v", i, cols)
			}
		}
	}
	if d := c.Dense().MaxAbsDiff(s.Dense()); d != 0 {
		t.Errorf("Dense disagrees with the builder: max diff %v", d)
	}
	if len(c.Vals) != 7 { // (0,1),(0,3),(1,0),(1,3),(2,2),(3,0),(3,1)
		t.Errorf("%d stored entries, want 7", len(c.Vals))
	}
}

func TestFinalizeRejectsDuplicates(t *testing.T) {
	// Each case sets one position twice: through the mirrored
	// triangle, twice as written, and on the diagonal.
	for _, dup := range [][4]int{{0, 1, 1, 0}, {0, 2, 0, 2}, {2, 2, 2, 2}} {
		s := NewSparseSym(3)
		s.Set(1, 2, 1)
		s.Set(dup[0], dup[1], 1)
		s.Set(dup[2], dup[3], 2)
		if c, err := s.Finalize(); !errors.Is(err, ErrDuplicateEntry) || c != nil {
			t.Errorf("sets %v: duplicate not rejected: err = %v", dup, err)
		}
	}
}

func TestCSRMatchesSparseSym(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSparse(40, 120, rng)
	c := mustFinalize(s)
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
	c := mustFinalize(s)
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

func randomCSR(n, edges int, seed int64) *CSR {
	return mustFinalize(randomSparse(n, edges, rand.New(rand.NewSource(seed))))
}

// TestMulVecsMatchesMulVec pins the fused kernel's contract: for every
// block width (exercising the 4-wide unroll and each remainder path) and
// every worker count, MulVecs is bitwise equal to per-column MulVec.
func TestMulVecsMatchesMulVec(t *testing.T) {
	c := randomCSR(700, 2500, 19) // > mulVecsGrain: multiple row chunks
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
