package linalg

import (
	"math"
	"testing"
)

// The SparseSym methods below are the references the CSR tests hold the
// finalized form to: they read the builder's appended entries directly.

// MulVec computes y = S x.
func (s *SparseSym) MulVec(x, y []float64) {
	for i := 0; i < s.N; i++ {
		var sum float64
		cols, vals := s.Cols[i], s.Vals[i]
		for k, j := range cols {
			sum += vals[k] * x[j]
		}
		y[i] = sum
	}
}

// RowSums returns the per-row sums (the degree vector of an affinity
// matrix).
func (s *SparseSym) RowSums() []float64 {
	out := make([]float64, s.N)
	for i := 0; i < s.N; i++ {
		for _, v := range s.Vals[i] {
			out[i] += v
		}
	}
	return out
}

// Dense materializes the sparse matrix.
func (s *SparseSym) Dense() *Matrix {
	m := NewMatrix(s.N, s.N)
	for i := 0; i < s.N; i++ {
		for k, j := range s.Cols[i] {
			m.Set(i, int(j), m.At(i, int(j))+s.Vals[i][k])
		}
	}
	return m
}

func TestSparseMulVec(t *testing.T) {
	s := NewSparseSym(3)
	s.Set(0, 1, 2)
	s.Set(1, 2, 3)
	s.Set(2, 2, 5)
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	s.MulVec(x, y)
	want := []float64{2, 5, 8}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	sums := s.RowSums()
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("RowSums[%d] = %v, want %v", i, sums[i], want[i])
		}
	}
}
