package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix
// using the cyclic Jacobi rotation method. It returns eigenvalues in
// descending order and the matching eigenvectors as the columns of the
// returned matrix. The input is not modified.
//
// Jacobi is O(n^3) per sweep, so it serves small matrices only: the
// projected Rayleigh–Ritz problems and the small-n fallback of
// EigenBottomK, and the dense references tests compare against. Every
// spectral solve on a network goes through EigenBottomK.
func EigenSym(a *Matrix) (values []float64, vectors *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := checkSymmetric(a); err != nil {
		return nil, nil, err
	}

	m := a.Clone()
	v := Identity(n)
	jacobiSweeps(m, v, n, 100)

	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = m.At(i, i)
	}
	// Sort eigenvalues descending, permuting eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] > values[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// checkSymmetric validates symmetry under a relative tolerance: the
// element pair (i, j) may differ by up to 1e-9 relative to its own
// magnitude (with an absolute floor of 1e-9 near zero), so well-scaled
// Laplacians with large edge weights are not falsely rejected the way an
// absolute threshold rejects them. On failure the error reports the
// row/column of the worst relative violation.
func checkSymmetric(a *Matrix) error {
	const tol = 1e-9
	n := a.Rows
	worst, wi, wj := 0.0, -1, -1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			aij, aji := a.At(i, j), a.At(j, i)
			scale := math.Max(1, math.Max(math.Abs(aij), math.Abs(aji)))
			if rel := math.Abs(aij-aji) / scale; rel > worst {
				worst, wi, wj = rel, i, j
			}
		}
	}
	if worst > tol {
		return fmt.Errorf("linalg: EigenSym requires a symmetric matrix; worst violation at (%d,%d): a[%d][%d]=%v != a[%d][%d]=%v (relative difference %.3g > %g)",
			wi, wj, wi, wj, a.At(wi, wj), wj, wi, a.At(wj, wi), worst, tol)
	}
	return nil
}

// jacobiParams computes the rotation (c, s) annihilating m[p][q].
// Returns ok=false when the element is already negligible.
func jacobiParams(m *Matrix, p, q int) (c, s float64, ok bool) {
	apq := m.At(p, q)
	if math.Abs(apq) < 1e-14 {
		return 0, 0, false
	}
	app, aqq := m.At(p, p), m.At(q, q)
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c = 1 / math.Sqrt(1+t*t)
	s = t * c
	return c, s, true
}

// jacobiSweeps runs cyclic Jacobi sweeps over m, accumulating every
// rotation into the eigenvector matrix v, until the off-diagonal norm
// drops below 1e-11 or maxSweeps sweeps have run. It is serial, so the
// result depends only on the input.
func jacobiSweeps(m, v *Matrix, n, maxSweeps int) {
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(m)
		if off < 1e-11 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				c, s, ok := jacobiParams(m, p, q)
				if !ok {
					continue
				}
				rotate(m, v, p, q, c, s)
			}
		}
	}
}

// rotate applies the Jacobi rotation J(p,q,c,s) to m (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided).
func rotate(m, v *Matrix, p, q int, c, s float64) {
	n := m.Rows
	for k := 0; k < n; k++ {
		mkp, mkq := m.At(k, p), m.At(k, q)
		m.Set(k, p, c*mkp-s*mkq)
		m.Set(k, q, s*mkp+c*mkq)
	}
	for k := 0; k < n; k++ {
		mpk, mqk := m.At(p, k), m.At(q, k)
		m.Set(p, k, c*mpk-s*mqk)
		m.Set(q, k, s*mpk+c*mqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func offDiagNorm(m *Matrix) float64 {
	var sum float64
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.At(i, j)
			sum += 2 * v * v
		}
	}
	return math.Sqrt(sum)
}
