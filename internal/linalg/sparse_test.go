package linalg

import (
	"math"
	"testing"
)

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
