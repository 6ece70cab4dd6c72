package linalg

import (
	"math/rand"
	"testing"
)

// Package-level sinks keep the compiler from discarding benchmarked calls.
var (
	benchValues []float64
	benchLabels []int
)

// BenchmarkProjectedEigen times the dense QL solver at the size of the
// spectral baseline's Rayleigh–Ritz problem: k = 16 at block 24 gives a
// 72×72 projected matrix every LOBPCG iteration.
func BenchmarkProjectedEigen(b *testing.B) {
	const n = 72
	rng := rand.New(rand.NewSource(72))
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, _, err := EigenSym(a)
		if err != nil {
			b.Fatal(err)
		}
		benchValues = vals
	}
}

// BenchmarkEigenBottomK2500 times one solve at the shape
// TestEigenBottomKIterationsPinned pins — the 50×50 grid Laplacian, k=8,
// the spectral baseline's tol 2e-4 — so the coarse-grid warm start and
// its coarse-level preconditioners are timed (the quick-scale spectral
// figure stays below coarseStartMinN and never builds a hierarchy).
func BenchmarkEigenBottomK2500(b *testing.B) {
	l := gridLaplacian(50, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l.EigenBottomK(8, 2e-4, rand.New(rand.NewSource(2501)))
		if err != nil {
			b.Fatal(err)
		}
		benchValues = res.Values
	}
}

// BenchmarkKMeans times k-means++ seeding plus Lloyd at the paper-scale
// spectral search's shape: 2500 row-normalized 16-dimensional embedding
// rows split into 256 clusters.
func BenchmarkKMeans(b *testing.B) {
	pts := kmeansTestPoints(rand.New(rand.NewSource(16)), 2500, 16, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLabels = KMeans(pts, 256, rand.New(rand.NewSource(1)), 30)
	}
}
