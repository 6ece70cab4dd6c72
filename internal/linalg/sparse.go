package linalg

// SparseSym is a symmetric sparse matrix in adjacency-list form, used for
// the graph affinity matrices of the spectral-clustering baseline.
type SparseSym struct {
	N    int
	Cols [][]int32   // per row: column indices (both triangles stored)
	Vals [][]float64 // matching values
}

// NewSparseSym returns an empty n x n sparse symmetric matrix.
func NewSparseSym(n int) *SparseSym {
	return &SparseSym{N: n, Cols: make([][]int32, n), Vals: make([][]float64, n)}
}

// Set stores value v at (i, j) and (j, i). Duplicate sets accumulate, so
// callers should set each pair once; FinalizeStrict rejects builders
// that set a position twice, and Finalize merges duplicates explicitly
// while converting to the CSR form the sparse spectral engine consumes.
func (s *SparseSym) Set(i, j int, v float64) {
	s.Cols[i] = append(s.Cols[i], int32(j))
	s.Vals[i] = append(s.Vals[i], v)
	if i != j {
		s.Cols[j] = append(s.Cols[j], int32(i))
		s.Vals[j] = append(s.Vals[j], v)
	}
}

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

// Dense materializes the sparse matrix (accumulating duplicates).
func (s *SparseSym) Dense() *Matrix {
	m := NewMatrix(s.N, s.N)
	for i := 0; i < s.N; i++ {
		for k, j := range s.Cols[i] {
			m.Set(i, int(j), m.At(i, int(j))+s.Vals[i][k])
		}
	}
	return m
}
