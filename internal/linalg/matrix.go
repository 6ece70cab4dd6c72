// Package linalg provides the small dense linear-algebra kernel the
// reproduction needs: matrix arithmetic, linear solves and inversion for
// least-squares AR fitting, a symmetric eigensolver for the centralized
// spectral-clustering baseline, and k-means for the spectral embedding.
// Everything is stdlib-only and sized for the problem (matrices up to a few
// thousand rows); it is not a general-purpose BLAS.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowO := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, v := range rowB {
				rowO[j] += a * v
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	return m.MulVecTo(make([]float64, m.Rows), v)
}

// MulVecTo writes the matrix-vector product m * v into out (length
// m.Rows, not aliasing v) and returns it.
func (m *Matrix) MulVecTo(out, v []float64) []float64 {
	if m.Cols != len(v) || m.Rows != len(out) {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by vector of length %d into %d", m.Rows, m.Cols, len(v), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	checkSameShape(m, b)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	checkSameShape(m, b)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and b; useful in tests.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	checkSameShape(m, b)
	var max float64
	for i := range m.Data {
		if d := math.Abs(m.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// ErrSingular is returned by Solve and Inverse when the system matrix is
// singular (or numerically indistinguishable from singular).
var ErrSingular = fmt.Errorf("linalg: singular matrix")

// Solve solves the square system A x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d does not match matrix size %d", len(b), n)
	}
	// Augmented working copies.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// Inverse returns A^{-1}, solving column by column.
func Inverse(a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Inverse requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	out := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
