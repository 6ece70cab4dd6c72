package linalg

import (
	"fmt"
	"math"
	"sort"

	"elink/internal/par"
)

// CSR is a finalized symmetric sparse matrix in compressed-sparse-row
// form: per-row column indices are sorted and duplicate-free, both
// triangles are stored, and the layout is immutable after construction.
// It is the input type of the sparse spectral engine (EigenBottomK): the
// append-with-duplicates SparseSym is the mutable builder,
// Finalize / FinalizeStrict is the one-way door into CSR.
type CSR struct {
	N      int
	RowPtr []int     // len N+1; row i occupies [RowPtr[i], RowPtr[i+1])
	ColIdx []int32   // sorted within each row, no duplicates
	Vals   []float64 // matching values
}

// ErrDuplicateEntry is returned by FinalizeStrict when the builder holds
// more than one entry for the same (i, j) position — the SparseSym.Set
// accumulate-on-duplicate footgun this validation mode exists to catch.
var ErrDuplicateEntry = fmt.Errorf("linalg: duplicate sparse entry")

// Finalize converts the builder into CSR form, sorting each row by
// column and merging duplicate (i, j) entries by summation (matching the
// accumulate semantics MulVec and Dense already had on the raw builder).
func (s *SparseSym) Finalize() *CSR {
	c, _ := s.finalize(false)
	return c
}

// FinalizeStrict is Finalize with duplicate validation: any (i, j)
// position set more than once fails with an error wrapping
// ErrDuplicateEntry instead of silently accumulating.
func (s *SparseSym) FinalizeStrict() (*CSR, error) {
	return s.finalize(true)
}

func (s *SparseSym) finalize(strict bool) (*CSR, error) {
	n := s.N
	c := &CSR{N: n, RowPtr: make([]int, n+1)}
	nnz := 0
	for i := 0; i < n; i++ {
		nnz += len(s.Cols[i])
	}
	c.ColIdx = make([]int32, 0, nnz)
	c.Vals = make([]float64, 0, nnz)
	type ent struct {
		col int32
		val float64
	}
	var row []ent
	for i := 0; i < n; i++ {
		row = row[:0]
		for k, j := range s.Cols[i] {
			row = append(row, ent{col: j, val: s.Vals[i][k]})
		}
		sort.Slice(row, func(a, b int) bool { return row[a].col < row[b].col })
		for k := 0; k < len(row); k++ {
			if k > 0 && row[k].col == row[k-1].col {
				if strict {
					return nil, fmt.Errorf("linalg: FinalizeStrict: position (%d,%d) set more than once: %w",
						i, row[k].col, ErrDuplicateEntry)
				}
				c.Vals[len(c.Vals)-1] += row[k].val
				continue
			}
			c.ColIdx = append(c.ColIdx, row[k].col)
			c.Vals = append(c.Vals, row[k].val)
		}
		c.RowPtr[i+1] = len(c.ColIdx)
	}
	return c, nil
}

// NNZ returns the number of stored entries (both triangles counted).
func (c *CSR) NNZ() int { return len(c.Vals) }

// MulVec computes y = C x.
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

// mulVecsGrain is the fixed row-chunk size of the parallel block-SpMM
// path. The chunk layout depends only on (n, grain) — never on the
// worker count — and every output element y[j][i] is computed by exactly
// one chunk with serial per-element arithmetic, so MulVecs is bitwise
// identical for every worker count and bitwise identical to b separate
// MulVec calls.
const mulVecsGrain = 512

// MulVecs computes y[j] = C x[j] for every block column in one pass: the
// row data (RowPtr, ColIdx, Vals) is streamed once per row for the whole
// block instead of once per column, which is the difference between
// re-reading the matrix b times per LOBPCG iteration and reading it once
// (the matrix stream dominates memory traffic at engine scale). Rows fan
// out over internal/par in fixed mulVecsGrain chunks; at one worker the
// kernel runs inline and allocates nothing.
func (c *CSR) MulVecs(x, y [][]float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: MulVecs block shape mismatch: %d inputs, %d outputs", len(x), len(y)))
	}
	if len(x) == 0 {
		return
	}
	if par.Workers() == 1 {
		c.mulVecsRows(0, c.N, x, y)
		return
	}
	par.Chunks(c.N, mulVecsGrain, func(lo, hi int) { c.mulVecsRows(lo, hi, x, y) })
}

// mulVecsRows is the MulVecs kernel over the row range [lo, hi): each
// row's index/value data is read once and applied to four block columns
// at a time. Each column's accumulation runs in ascending-k order — the
// exact arithmetic MulVec performs — so the fused kernel is bitwise
// equivalent to the per-column path.
func (c *CSR) mulVecsRows(lo, hi int, x, y [][]float64) {
	for i := lo; i < hi; i++ {
		a, b := c.RowPtr[i], c.RowPtr[i+1]
		cols, vals := c.ColIdx[a:b], c.Vals[a:b]
		j := 0
		for ; j+4 <= len(x); j += 4 {
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
			var s0, s1, s2, s3 float64
			for k, col := range cols {
				v := vals[k]
				s0 += v * x0[col]
				s1 += v * x1[col]
				s2 += v * x2[col]
				s3 += v * x3[col]
			}
			y[j][i], y[j+1][i], y[j+2][i], y[j+3][i] = s0, s1, s2, s3
		}
		for ; j < len(x); j++ {
			xj := x[j]
			var sum float64
			for k, col := range cols {
				sum += vals[k] * xj[col]
			}
			y[j][i] = sum
		}
	}
}

// RowSums returns the per-row sums (the weighted degree vector of an
// affinity matrix).
func (c *CSR) RowSums() []float64 {
	out := make([]float64, c.N)
	for i := 0; i < c.N; i++ {
		for _, v := range c.Vals[c.RowPtr[i]:c.RowPtr[i+1]] {
			out[i] += v
		}
	}
	return out
}

// Dense materializes the matrix. Intended for small sizes (tests and the
// solver's dense fallback); an n x n allocation at engine scale is
// exactly what the sparse pipeline exists to avoid.
func (c *CSR) Dense() *Matrix {
	m := NewMatrix(c.N, c.N)
	for i := 0; i < c.N; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			m.Set(i, int(c.ColIdx[k]), c.Vals[k])
		}
	}
	return m
}

// NormalizedLaplacian returns L = I - D^{-1/2} A D^{-1/2} for an
// affinity matrix A with weighted degrees D = diag(RowSums). Rows with
// zero degree (isolated vertices without a self-loop) get an all-zero
// row, so each contributes one zero eigenvalue exactly like a
// disconnected component. The bottom-k eigenvectors of L are the NJW
// embedding: they equal the top-k eigenvectors of D^{-1/2} A D^{-1/2}.
func (c *CSR) NormalizedLaplacian() *CSR {
	n := c.N
	deg := c.RowSums()
	inv := make([]float64, n)
	for i, d := range deg {
		if d > 0 {
			inv[i] = 1 / math.Sqrt(d)
		}
	}
	l := &CSR{N: n, RowPtr: make([]int, n+1)}
	// Each output row is the scaled, negated input row with the diagonal
	// entry merged in (inserting it if A has no self-loop there).
	l.ColIdx = make([]int32, 0, len(c.ColIdx)+n)
	l.Vals = make([]float64, 0, len(c.Vals)+n)
	for i := 0; i < n; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		diag := false
		for k := lo; k < hi; k++ {
			j := int(c.ColIdx[k])
			v := -c.Vals[k] * inv[i] * inv[j]
			if j == i {
				v += diagOne(deg[i])
				diag = true
			} else if !diag && j > i {
				// The diagonal slot is absent in A; emit it before the
				// first column past it so the row stays sorted.
				if d := diagOne(deg[i]); d != 0 {
					l.ColIdx = append(l.ColIdx, int32(i))
					l.Vals = append(l.Vals, d)
				}
				diag = true
			}
			l.ColIdx = append(l.ColIdx, int32(j))
			l.Vals = append(l.Vals, v)
		}
		if !diag {
			if d := diagOne(deg[i]); d != 0 {
				l.ColIdx = append(l.ColIdx, int32(i))
				l.Vals = append(l.Vals, d)
			}
		}
		l.RowPtr[i+1] = len(l.ColIdx)
	}
	return l
}

// diagOne is the identity contribution of the normalized Laplacian's
// diagonal: 1 for connected rows, 0 for zero-degree rows (Chung's
// convention, which keeps isolated vertices in the zero eigenspace).
func diagOne(deg float64) float64 {
	if deg > 0 {
		return 1
	}
	return 0
}
