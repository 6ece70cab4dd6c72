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
		// writes are per-index, the changed flag is order-free).
		var changedFlag atomic.Bool
		par.For(n, func(i int) {
			row := points.Data[i*dim : (i+1)*dim]
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := sqDist(row, centers[c])
				if d < bestD {
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
			if d := sqDist(points.Data[i*dim:(i+1)*dim], newest); d < d2[i] {
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

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
