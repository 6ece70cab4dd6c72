package linalg

import (
	"math"
	"math/rand"
	"sync/atomic"

	"elink/internal/par"
)

// KMeans clusters the rows of points into k groups using Lloyd's algorithm
// with k-means++ seeding. It returns the assignment of each row to a
// cluster in [0,k). The rng makes runs reproducible; maxIter bounds the
// Lloyd iterations (25 is plenty for the spectral embeddings used here).
func KMeans(points *Matrix, k int, rng *rand.Rand, maxIter int) []int {
	n, dim := points.Rows, points.Cols
	if k <= 0 {
		panic("linalg: KMeans requires k >= 1")
	}
	if k >= n {
		// Every point its own cluster (extra clusters stay empty).
		assign := make([]int, n)
		for i := range assign {
			assign[i] = i
		}
		return assign
	}

	centers := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		// Assignment: each point's nearest center is independent, so the
		// scan fans out over the shared execution layer (deterministic —
		// writes are per-index, the changed flag is order-free). Ties go
		// to the lowest center index.
		var changedFlag atomic.Bool
		par.For(n, func(i int) {
			row := points.Data[i*dim : (i+1)*dim]
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDistBelow(row, centers[c], bestD); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changedFlag.Store(true)
			}
		})
		changed := changedFlag.Load()
		if !changed && iter > 0 {
			break
		}
		// Recompute centers.
		counts := make([]int, k)
		for c := range centers {
			for j := range centers[c] {
				centers[c][j] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			row := points.Data[i*dim : (i+1)*dim]
			for j, v := range row {
				centers[c][j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
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

func seedPlusPlus(points *Matrix, k int, rng *rand.Rand) [][]float64 {
	n, dim := points.Rows, points.Cols
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, append([]float64(nil), points.Data[first*dim:(first+1)*dim]...))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centers) < k {
		// Fold the newest center into each point's squared distance to
		// its nearest center, in parallel — O(n) per center rather than
		// rescanning all of them, and the same values, since a minimum
		// is exact — then total them serially in index order so the
		// sampling threshold (and hence the seeding) is bitwise
		// worker-count independent.
		newest := centers[len(centers)-1]
		par.For(n, func(i int) {
			if d := sqDistBelow(points.Data[i*dim:(i+1)*dim], newest, d2[i]); d < d2[i] {
				d2[i] = d
			}
		})
		var total float64
		for i := 0; i < n; i++ {
			total += d2[i]
		}
		var pick int
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
		centers = append(centers, append([]float64(nil), points.Data[pick*dim:(pick+1)*dim]...))
	}
	return centers
}

// sqDistBelow returns the squared Euclidean distance between a and b
// when it is below bound, and otherwise some partial sum that is at
// least bound: the sum stops as soon as its running total reaches bound.
// Squares are non-negative and rounding is monotone, so partial sums
// never decrease and a stopped sum could not have finished below bound.
// A finished sum accumulates term by term in index order, so a caller
// keeping the strict-< minimum sees exactly the full-scan result.
func sqDistBelow(a, b []float64, bound float64) float64 {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s += d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
		if s >= bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
