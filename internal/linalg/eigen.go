package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix by
// Householder tridiagonalization followed by the implicit QL algorithm
// (EISPACK tred2/tql2). It returns eigenvalues in descending order and
// the matching eigenvectors as the columns of the returned matrix. The
// input is not modified. A non-square, asymmetric or non-finite input is
// an error, and so is a QL iteration that fails to converge.
//
// The decomposition is O(n³), so it serves small matrices only: the
// small-n fallback of EigenBottomK and the dense references tests compare
// against. Every spectral solve on a network goes through EigenBottomK,
// whose projected Rayleigh–Ritz problems run the same QL kernel.
func EigenSym(a *Matrix) (values []float64, vectors *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := checkSymmetric(a); err != nil {
		return nil, nil, err
	}

	z := append([]float64(nil), a.Data...)
	d := make([]float64, n)
	if err := symEigenQL(z, n, d, make([]float64, n)); err != nil {
		return nil, nil, fmt.Errorf("linalg: EigenSym: %w", err)
	}

	// Sort eigenvalues descending; row oldCol of z becomes column newCol.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] > d[idx[j]] })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for newCol, oldCol := range idx {
		values[newCol] = d[oldCol]
		for r, v := range z[oldCol*n : (oldCol+1)*n] {
			vectors.Set(r, newCol, v)
		}
	}
	return values, vectors, nil
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

// qlMaxIter caps the implicit-QL iterations spent on one eigenvalue, as
// EISPACK's tql2 does; a well-posed matrix needs two or three.
const qlMaxIter = 30

// symEigenQL diagonalizes the n×n symmetric matrix held row-major in z,
// in place and serially: on return d holds the eigenvalues (unsorted)
// and row j of z the unit eigenvector for d[j]. e is n-long scratch. The
// only allocation is the error. It is JAMA's tred2/tql2 run on the
// transposed eigenvector matrix, so every rotation and reflection
// updates contiguous rows. Non-finite entries and an eigenvalue that
// needs more than qlMaxIter iterations are errors; with them the
// contents of z and d are unspecified.
func symEigenQL(z []float64, n int, d, e []float64) error {
	for i, v := range z[:n*n] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite entry %v at (%d,%d)", v, i/n, i%n)
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		d[0], z[0] = z[0], 1
		return nil
	}
	tridiagonalize(z, n, d, e)
	return tridiagonalQL(z, n, d, e)
}

// tridiagonalize is tred2: Householder reduction of the symmetric matrix
// in z to tridiagonal form (diagonal d, subdiagonal e[1:]), leaving the
// transposed accumulated orthogonal transform in z. With W = zᵀ stored,
// JAMA's V[a][b] reads z[b*n+a] throughout.
func tridiagonalize(z []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		zi := z[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			zi[j] = f
			zj := z[j*n : j*n+i]
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z[j*n : j*n+i+1]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			zj[i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		zi := z[i*n : i*n+n]
		zi[n-1] = zi[i]
		zi[i] = 1
		next := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, v := range next {
				d[k] = v / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				g := 0.0
				for k, v := range next {
					g += v * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		for k := range next {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tridiagonalQL is tql2: the implicit-shift QL iteration on the
// tridiagonal (d, e[1:]), rotating the rows of z along. Each rotation
// touches two contiguous rows.
func tridiagonalQL(z []float64, n int, d, e []float64) error {
	const eps = 0x1p-52
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	f, tst1 := 0.0, 0.0
	for l := 0; l < n; l++ {
		// Find the first negligible subdiagonal element at or after l.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// m == l: d[l] is already an eigenvalue; otherwise iterate.
		for iter := 0; m > l && math.Abs(e[l]) > eps*tst1; iter++ {
			if iter == qlMaxIter {
				return fmt.Errorf("QL iteration did not converge on eigenvalue %d after %d iterations", l, qlMaxIter)
			}
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				zi, zi1 := z[i*n:i*n+n], z[(i+1)*n:(i+1)*n+n]
				for k, v := range zi1 {
					zi1[k] = s*zi[k] + c*v
					zi[k] = c*zi[k] - s*v
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
