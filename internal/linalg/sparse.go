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

// Set stores value v at (i, j) and (j, i). Callers set each pair once:
// Finalize, which converts the builder to the CSR form the sparse
// spectral engine consumes, rejects a builder that set a position twice.
func (s *SparseSym) Set(i, j int, v float64) {
	s.Cols[i] = append(s.Cols[i], int32(j))
	s.Vals[i] = append(s.Vals[i], v)
	if i != j {
		s.Cols[j] = append(s.Cols[j], int32(i))
		s.Vals[j] = append(s.Vals[j], v)
	}
}
