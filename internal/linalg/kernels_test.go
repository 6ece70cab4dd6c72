package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Bitwise references for the rewritten LOBPCG and k-means kernels: each
// production kernel is compared against the plain loop it replaced,
// element by element with math.Float64bits, so a reordered sum or a
// changed tie rule fails here before it can move a figure.

// plainMGSDrop is orthonormalizeKeepAll's kept columns computed with
// separate dot, axpy and norm passes.
func plainMGSDrop(q [][]float64, keep int) [][]float64 {
	out := q[:0]
	for c := 0; c < len(q); c++ {
		col := q[c]
		for _, prev := range out {
			f := dot(prev, col)
			if f == 0 {
				continue
			}
			for r := range col {
				col[r] -= f * prev[r]
			}
		}
		norm := math.Sqrt(dot(col, col))
		if norm < 1e-10 && len(out) >= keep {
			continue
		}
		if norm == 0 {
			norm = 1
		}
		inv := 1 / norm
		for r := range col {
			col[r] *= inv
		}
		out = append(out, col)
	}
	return out
}

// mgsTestBlock draws a cols×n block whose columns mix random draws,
// exact duplicates of earlier columns, sums of earlier columns (which
// collapse to rounding noise under Gram–Schmidt), zero columns and
// columns already orthogonal to everything before them.
func mgsTestBlock(rng *rand.Rand, cols, n int) [][]float64 {
	q := newBlock(cols, n)
	for c := range q {
		switch kind := rng.Intn(6); {
		case c == 0 || kind <= 1:
			fillRandom(q[c:c+1], rng)
		case kind == 2:
			copy(q[c], q[rng.Intn(c)])
		case kind == 3:
			a, b := q[rng.Intn(c)], q[rng.Intn(c)]
			for r := range q[c] {
				q[c][r] = a[r] - 0.5*b[r]
			}
		case kind == 4:
			// zero column
		default:
			q[c][c%n] = 1
		}
	}
	return q
}

func cloneBlock(q [][]float64) [][]float64 {
	out := make([][]float64, len(q))
	for i := range q {
		out[i] = append([]float64(nil), q[i]...)
	}
	return out
}

func sameBlockBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d columns, want %d", what, len(got), len(want))
	}
	for c := range want {
		for r := range want[c] {
			if math.Float64bits(got[c][r]) != math.Float64bits(want[c][r]) {
				t.Fatalf("%s: column %d row %d = %v, want %v (bitwise)", what, c, r, got[c][r], want[c][r])
			}
		}
	}
}

// TestOrthonormalizeMatchesPlainMGS: the fused Gram–Schmidt step leaves
// orthonormalizeKeepAll bitwise equal to the plain loop — same kept
// columns, same values, same drop decisions.
func TestOrthonormalizeMatchesPlainMGS(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		cols, n := 1+rng.Intn(24), 1+rng.Intn(90)
		keep := rng.Intn(3)
		base := mgsTestBlock(rng, cols, n)

		want := plainMGSDrop(cloneBlock(base), keep)
		pool := cloneBlock(base)
		var spill [][]float64
		kept := orthonormalizeKeepAll(pool, keep, &spill)
		sameBlockBits(t, "orthonormalizeKeepAll", pool[:kept], want)
		if len(pool) != cols {
			t.Fatalf("orthonormalizeKeepAll lost pool columns: %d of %d", len(pool), cols)
		}
	}
}

// TestGramRowsMatchesDot: the four-accumulator projected-matrix kernel
// fills every cell of T = Sᵀ (L S) with exactly dot(s_i, as_j),
// including the ragged tail when m is not a multiple of four, and
// mirrors it into (j, i).
func TestGramRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := gridLaplacian(6, 7)
	for _, m := range []int{1, 3, 4, 5, 8, 11, 24} {
		st := newLobpcgState(l, 8, nil)
		st.s = newBlock(m, l.N)
		fillRandom(st.s, rng)
		fillRandom(st.as[:m], rng)
		st.m = m
		st.gramRows(0, m)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				want := math.Float64bits(dot(st.s[i], st.as[j]))
				if got := math.Float64bits(st.t[i*m+j]); got != want {
					t.Fatalf("m=%d: T[%d][%d] differs from dot (bitwise)", m, i, j)
				}
				if got := math.Float64bits(st.t[j*m+i]); got != want {
					t.Fatalf("m=%d: mirror T[%d][%d] differs from dot (bitwise)", m, j, i)
				}
			}
		}
	}
}

// sqDist is the full-scan squared distance the early-exit kernel must
// reproduce whenever it finishes.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// fullScanSeed is k-means++ seeding with every distance summed in full.
func fullScanSeed(points *Matrix, k int, rng *rand.Rand) [][]float64 {
	n, dim := points.Rows, points.Cols
	centers := [][]float64{append([]float64(nil), points.Data[rng.Intn(n)*dim:][:dim]...)}
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centers) < k {
		newest := centers[len(centers)-1]
		var total float64
		for i := 0; i < n; i++ {
			if d := sqDist(points.Data[i*dim:(i+1)*dim], newest); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		pick := 0
		if total == 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			for i := 0; i < n; i++ {
				r -= d2[i]
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), points.Data[pick*dim:][:dim]...))
	}
	return centers
}

// fullScanKMeans is Lloyd's algorithm with full-scan distances, serial,
// and the lowest-index strict-< tie rule.
func fullScanKMeans(points *Matrix, k int, rng *rand.Rand, maxIter int) []int {
	n, dim := points.Rows, points.Cols
	assign := make([]int, n)
	if k >= n {
		for i := range assign {
			assign[i] = i
		}
		return assign
	}
	centers := fullScanSeed(points, k, rng)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDist(points.Data[i*dim:(i+1)*dim], centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		for c := range centers {
			for j := range centers[c] {
				centers[c][j] = 0
			}
		}
		for i := 0; i < n; i++ {
			counts[assign[i]]++
			for j, v := range points.Data[i*dim : (i+1)*dim] {
				centers[assign[i]][j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				i := rng.Intn(n)
				copy(centers[c], points.Data[i*dim:(i+1)*dim])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] *= inv
			}
		}
	}
	return assign
}

// kmeansTestPoints draws n points in dim dimensions on a coarse integer
// lattice — so duplicate points and exactly tied distances are common —
// or, when lattice is false, from a row-normalized Gaussian like the
// spectral embedding.
func kmeansTestPoints(rng *rand.Rand, n, dim int, lattice bool) *Matrix {
	p := NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := p.Data[i*dim : (i+1)*dim]
		var norm float64
		for j := range row {
			if lattice {
				row[j] = float64(rng.Intn(3))
			} else {
				row[j] = rng.NormFloat64()
				norm += row[j] * row[j]
			}
		}
		if !lattice {
			for j := range row {
				row[j] /= math.Sqrt(norm)
			}
		}
	}
	return p
}

// TestKMeansMatchesFullScan: early-exit distances leave the k-means++
// centers bitwise equal and the Lloyd labels equal to the full-scan
// algorithm's, including duplicate points, exact ties, k = 1, k = n−1
// and k ≥ n.
func TestKMeansMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n, dim := 2+rng.Intn(120), 1+rng.Intn(17)
		lattice := trial%2 == 0
		pts := kmeansTestPoints(rng, n, dim, lattice)
		for _, k := range []int{1, 2, 1 + rng.Intn(n), n - 1, n, n + 3} {
			if k < 1 {
				continue
			}
			seed := rng.Int63()
			if k < n {
				got := seedPlusPlus(pts, k, rand.New(rand.NewSource(seed)))
				want := fullScanSeed(pts, k, rand.New(rand.NewSource(seed)))
				sameBlockBits(t, "seedPlusPlus", got, want)
			}
			got := KMeans(pts, k, rand.New(rand.NewSource(seed)), 30)
			want := fullScanKMeans(pts, k, rand.New(rand.NewSource(seed)), 30)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (n=%d dim=%d k=%d lattice=%v): label %d = %d, full scan %d",
						trial, n, dim, k, lattice, i, got[i], want[i])
				}
			}
		}
	}
}
