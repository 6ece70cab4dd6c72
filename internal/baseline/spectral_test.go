package baseline

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"elink/internal/cluster"
	"elink/internal/linalg"
	"elink/internal/metric"
	"elink/internal/topology"
)

func fakeClustering(numClusters int) *cluster.Clustering {
	labels := make([]int, numClusters)
	for i := range labels {
		labels[i] = i
	}
	return cluster.FromAssignment(labels)
}

// TestSpectralSearchExploresAboveEmbeddingCap pins the search-cap bugfix:
// the doubling sweep must explore k all the way to maxK even when the
// embedding dimension is capped far below it. The old code clamped the
// whole search range to the cap, so a configuration whose best k lies
// above it silently returned a worse clustering.
func TestSpectralSearchExploresAboveEmbeddingCap(t *testing.T) {
	const (
		maxK   = 2000
		embCap = 256
	)
	var ks, dims []int
	// Cluster count minimized at k=512 — above the embedding cap, so the
	// pre-fix search (capped at 256) could never find it.
	try := func(k, embDim int) (*cluster.Clustering, error) {
		ks = append(ks, k)
		dims = append(dims, embDim)
		count := k - 512
		if count < 0 {
			count = -count
		}
		return fakeClustering(count + 10), nil
	}
	best, err := spectralSearch(maxK, embCap, try)
	if err != nil {
		t.Fatal(err)
	}
	if best.NumClusters() != 10 {
		t.Errorf("best clustering has %d clusters, want 10 (found at k=512 > cap)", best.NumClusters())
	}
	sawAboveCap := false
	for i, k := range ks {
		if k > embCap {
			sawAboveCap = true
		}
		if k > maxK {
			t.Errorf("search tried k=%d above maxK=%d", k, maxK)
		}
		wantDim := k
		if wantDim > embCap {
			wantDim = embCap
		}
		if dims[i] != wantDim {
			t.Errorf("k=%d used embedding dim %d, want min(k, cap)=%d", k, dims[i], wantDim)
		}
	}
	if !sawAboveCap {
		t.Fatalf("search never explored above the embedding cap: ks=%v", ks)
	}
}

// TestSpectralSparseMatchesDense checks the one eigensolver path against
// a dense reference: on a banded 216-node grid the embedding the k-search
// uses (LOBPCG at the baseline's tolerance) must span the bottom
// eigenspace of a full dense EigenSym decomposition of the same normalized
// Laplacian, and the clustering built on it must recover the bands.
func TestSpectralSparseMatchesDense(t *testing.T) {
	g := topology.NewGrid(12, 18)
	feats := bandedFeatures(g, 3, 10, rand.New(rand.NewSource(5)))
	cfg := SpectralConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats, Sigma: 1, Seed: 6, MaxK: 8}
	n := g.N()

	const dim = 6
	cache, err := newEigenCache(affinity(g, cfg), dim, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := cache.topK(dim)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Rows != n || sparse.Cols != dim {
		t.Fatalf("embedding is %dx%d, want %dx%d", sparse.Rows, sparse.Cols, n, dim)
	}
	_, dense, err := linalg.EigenSym(cache.lap.Dense())
	if err != nil {
		t.Fatal(err)
	}
	// Dense eigenvalues come back descending, so the bottom eigenspace is
	// the trailing dim columns. The solvers may rotate within eigenspaces
	// and flip signs, so compare subspaces: every LOBPCG column must lie
	// in the span of the dense bottom eigenvectors (projection mass ~ 1).
	for c := 0; c < dim; c++ {
		var mass, norm float64
		for r := 0; r < n; r++ {
			norm += sparse.At(r, c) * sparse.At(r, c)
		}
		for cc := n - dim; cc < n; cc++ {
			var d float64
			for r := 0; r < n; r++ {
				d += sparse.At(r, c) * dense.At(r, cc)
			}
			mass += d * d
		}
		if mass < 0.98*norm {
			t.Errorf("LOBPCG column %d has only %.3f of its mass in the dense bottom eigenspace", c, mass/norm)
		}
	}

	res, err := Spectral(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "spectral", g, res, feats, 2)
	if k := res.Clustering.NumClusters(); k < 3 || k > 7 {
		t.Errorf("NumClusters = %d, want near the 3 bands", k)
	}
}

// TestEigenCacheServesPrefixes pins the cache contract the k search leans
// on: one solve at maxDim serves every narrower request as a column
// prefix of the same embedding, wider requests clamp to maxDim, and the
// columns are orthonormal.
func TestEigenCacheServesPrefixes(t *testing.T) {
	g := topology.NewGrid(12, 18)
	feats := bandedFeatures(g, 3, 10, rand.New(rand.NewSource(5)))
	cfg := SpectralConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats, Sigma: 1, Seed: 6, MaxK: 8}
	n := g.N()

	const dim = 6
	cache, err := newEigenCache(affinity(g, cfg), dim, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := cache.topK(dim)
	if err != nil {
		t.Fatal(err)
	}
	solved := cache.vecs
	for _, k := range []int{1, 3, dim, dim + 4} {
		got, err := cache.topK(k)
		if err != nil {
			t.Fatalf("topK(%d): %v", k, err)
		}
		if cache.vecs != solved {
			t.Fatalf("topK(%d) re-ran the eigensolve", k)
		}
		if want := min(k, dim); got.Rows != n || got.Cols != want {
			t.Fatalf("topK(%d) is %dx%d, want %dx%d", k, got.Rows, got.Cols, n, want)
		}
		for c := 0; c < got.Cols; c++ {
			for r := 0; r < n; r++ {
				if got.At(r, c) != full.At(r, c) {
					t.Fatalf("topK(%d) column %d row %d is not a prefix of the full embedding", k, c, r)
				}
			}
		}
	}
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			var d float64
			for r := 0; r < n; r++ {
				d += full.At(r, a) * full.At(r, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(d-want) > 1e-9 {
				t.Errorf("<v%d, v%d> = %v, want %v", a, b, d, want)
			}
		}
	}
}

// TestSpectralRejectsNonFiniteFeature: a NaN feature makes the affinity
// and the Laplacian non-finite. On both solver paths — the dense
// fallback (25 nodes) and LOBPCG (216 nodes) — Spectral must return the
// eigensolver's error promptly rather than loop or cluster garbage.
func TestSpectralRejectsNonFiniteFeature(t *testing.T) {
	for _, g := range []*topology.Graph{topology.NewGrid(5, 5), topology.NewGrid(12, 18)} {
		feats := bandedFeatures(g, 3, 10, rand.New(rand.NewSource(5)))
		feats[g.N()/2] = metric.Feature{math.NaN()}
		done := make(chan error, 1)
		go func() {
			_, err := Spectral(g, SpectralConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats, Seed: 1})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("n=%d: err = %v, want a non-finite-entry error", g.N(), err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("n=%d: Spectral did not return within 10s", g.N())
		}
	}
}
