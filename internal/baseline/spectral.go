// Package baseline implements the clustering algorithms the paper
// evaluates ELink against (§8.3): the centralized spectral algorithm, the
// distributed spanning-forest algorithm, the distributed hierarchical
// algorithm, and the centralized communication cost models used by the
// update and scalability experiments.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"elink/internal/cluster"
	"elink/internal/detrand"
	"elink/internal/linalg"
	"elink/internal/metric"
	"elink/internal/par"
	"elink/internal/topology"
)

// SpectralConfig parameterizes the centralized spectral clustering
// baseline (Ng–Jordan–Weiss [22] over the communication-graph affinity).
type SpectralConfig struct {
	// Delta is the δ-compactness target the search loop must satisfy.
	Delta float64
	// Metric measures feature dissimilarity.
	Metric metric.Metric
	// Features holds one feature per node.
	Features []metric.Feature
	// Sigma is the Gaussian affinity bandwidth; defaults to Delta/2.
	// (The paper's affinity table uses raw distances on edges; we use the
	// Gaussian kernel the cited NJW algorithm requires — see DESIGN.md.)
	Sigma float64
	// Seed drives k-means and eigensolver initialization.
	Seed int64
	// MaxK caps the cluster search (defaults to N). The search explores
	// the whole range even past the embedding-dimension cap: above it,
	// k-means still partitions into k clusters over the capped embedding
	// and the δ-repair pass does the fine splitting.
	MaxK int
}

// Spectral runs the centralized algorithm: nodes ship features to the
// base station (cost accounted separately by the CentralizedCost model),
// the base station spectrally embeds the affinity graph, k-means
// partitions the embedding, and each partition is repaired into
// δ-compact clusters by greedy δ/2-ball covering — so every k yields a
// valid δ-clustering. The search over k ("repeated with different values
// of k and the smallest k is chosen", §8.3) doubles k and then refines
// locally, keeping the k whose repaired clustering has the fewest
// clusters. The repair step makes the search robust where raw k-means
// labels would need to satisfy the δ-condition exactly — on fractal data
// a single misassigned node would otherwise push k all the way to N.
func Spectral(g *topology.Graph, cfg SpectralConfig) (*cluster.Result, error) {
	n := g.N()
	if len(cfg.Features) != n {
		return nil, fmt.Errorf("baseline: %d features for %d nodes", len(cfg.Features), n)
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = cfg.Delta / 2
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 1
	}
	if cfg.MaxK == 0 || cfg.MaxK > n {
		cfg.MaxK = n
	}
	rng := detrand.New(cfg.Seed)

	// The embedding dimension is capped, but the k-search itself runs all
	// the way to cfg.MaxK. The eigenvectors do not depend on k, so the
	// cache computes them once and each k in the search only costs a
	// k-means over the first k columns plus the repair pass.
	embCap := min(embedCap, cfg.MaxK)
	solver, err := newEigenCache(affinity(g, cfg), embCap, rng)
	if err != nil {
		return nil, err
	}

	try := func(k, embDim int) (*cluster.Clustering, error) {
		c, err := spectralPartition(g, solver, k, embDim, rng)
		if err != nil {
			return nil, err
		}
		return repairDelta(c, cfg.Features, cfg.Metric, cfg.Delta), nil
	}
	best, err := spectralSearch(cfg.MaxK, embCap, try)
	if err != nil {
		return nil, err
	}
	return &cluster.Result{
		Clustering: best.SplitDisconnected(g),
		Stats:      cluster.Stats{}, // communication is charged by CentralizedCost
	}, nil
}

// affinity builds the Gaussian affinity matrix A over the communication
// graph: exp(-d²/2σ²) on every edge plus unit self-loops, each position
// set exactly once.
func affinity(g *topology.Graph, cfg SpectralConfig) *linalg.SparseSym {
	n := g.N()
	aff := linalg.NewSparseSym(n)
	for u := 0; u < n; u++ {
		aff.Set(u, u, 1)
		for _, v := range g.Neighbors(topology.NodeID(u)) {
			if int(v) <= u {
				continue
			}
			d := cfg.Metric.Distance(cfg.Features[u], cfg.Features[v])
			aff.Set(u, int(v), math.Exp(-d*d/(2*cfg.Sigma*cfg.Sigma)))
		}
	}
	return aff
}

// embedCap bounds the spectral embedding's dimension: every extra
// eigenvector costs LOBPCG block width and iterations (the bottom of a
// sensor-network Laplacian spectrum has tiny gaps, so wide solves are
// the dominant cost at 10k+ nodes). Beyond the cap the δ-repair pass
// does the splitting more cheaply than k-means over a wider embedding
// would.
const embedCap = 16

// spectralSearch runs the k search: a doubling sweep over [1, maxK],
// then a local refinement around the best k, keeping the clustering with
// the fewest clusters. try is called with the embedding dimension
// min(k, embCap) — the fix for the old behaviour where the whole search
// range (not just the embedding width) was clamped to the cap, so
// callers with MaxK above it silently got a truncated search.
func spectralSearch(maxK, embCap int, try func(k, embDim int) (*cluster.Clustering, error)) (*cluster.Clustering, error) {
	dim := func(k int) int {
		if k > embCap {
			return embCap
		}
		return k
	}
	var best *cluster.Clustering
	tried := map[int]bool{}
	attempt := func(k int) error {
		if k < 1 || k > maxK || tried[k] {
			return nil
		}
		tried[k] = true
		c, err := try(k, dim(k))
		if err != nil {
			return err
		}
		if best == nil || c.NumClusters() < best.NumClusters() {
			best = c
		}
		return nil
	}
	// Doubling sweep, then a local refinement around the best k.
	bestK := 1
	bestCount := math.MaxInt
	for k := 1; k <= maxK; k *= 2 {
		c, err := try(k, dim(k))
		if err != nil {
			return nil, err
		}
		tried[k] = true
		if c.NumClusters() < bestCount {
			bestCount, bestK, best = c.NumClusters(), k, c
		}
	}
	for _, k := range []int{bestK - bestK/4, bestK + bestK/4, bestK - bestK/2 + bestK/8, bestK + bestK/2} {
		if err := attempt(k); err != nil {
			return nil, err
		}
	}
	return best, nil
}

// repairDelta splits every cluster that violates the δ-condition into
// δ-compact pieces by greedy δ/2-ball covering: repeatedly seed a new
// sub-cluster at the lowest-id unassigned member and absorb every
// unassigned member within δ/2 of the seed (pairwise ≤ δ by the triangle
// inequality). Clusters that already satisfy the condition pass through
// untouched.
func repairDelta(c *cluster.Clustering, feats []metric.Feature, m metric.Metric, delta float64) *cluster.Clustering {
	labels := make([]int, len(c.Assign))
	next := 0
	for _, members := range c.Members {
		if clusterSatisfiesDelta(members, feats, m, delta) {
			for _, u := range members {
				labels[u] = next
			}
			next++
			continue
		}
		assigned := make(map[topology.NodeID]bool, len(members))
		for _, seedCandidate := range members {
			if assigned[seedCandidate] {
				continue
			}
			seed := feats[seedCandidate]
			for _, u := range members {
				if !assigned[u] && m.Distance(seed, feats[u]) <= delta/2 {
					assigned[u] = true
					labels[u] = next
				}
			}
			next++
		}
	}
	return cluster.FromAssignment(labels)
}

func clusterSatisfiesDelta(members []topology.NodeID, feats []metric.Feature, m metric.Metric, delta float64) bool {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if m.Distance(feats[members[i]], feats[members[j]]) > delta+1e-9 {
				return false
			}
		}
	}
	return true
}

// solveTol is the convergence tolerance the eigensolve requests: looser
// than the solver's 1e-6 default because k-means over the embedding is
// insensitive to eigenvector perturbations at this level while the
// bottom of a sensor-network Laplacian spectrum converges slowly (tiny
// gaps), so the tight default costs 2-3x the iterations for no
// clustering difference. residualBudget is the residual the baseline
// still accepts from an iteration-starved solve; anything worse
// propagates the solver's ErrNoConvergence.
const (
	solveTol       = 2e-4
	residualBudget = 1e-3
)

// eigenCache computes the spectral embedding's eigenvectors lazily and
// reuses them across the whole k search. It runs exactly one
// EigenBottomK solve (Chebyshev-preconditioned LOBPCG with the
// coarse-grid warm start) on the normalized Laplacian
// L = I - D^-1/2 A D^-1/2, whose bottom eigenvectors are exactly the NJW
// top eigenvectors of the normalized affinity.
type eigenCache struct {
	lap    *linalg.CSR
	maxDim int // the one solve's width: the widest embedding the search requests
	rng    *rand.Rand
	vecs   *linalg.Matrix // bottom eigenvectors as columns
}

// newEigenCache finalizes the affinity into its normalized Laplacian.
// affinity sets every position once, which FinalizeStrict verifies.
func newEigenCache(aff *linalg.SparseSym, maxDim int, rng *rand.Rand) (*eigenCache, error) {
	csr, err := aff.FinalizeStrict()
	if err != nil {
		return nil, fmt.Errorf("baseline: affinity build: %w", err)
	}
	return &eigenCache{lap: csr.NormalizedLaplacian(), maxDim: maxDim, rng: rng}, nil
}

// topK returns the first k embedding eigenvectors, computing the cache
// on first use. The solve runs once at maxDim, so the slow-gap bottom
// spectrum is paid for once, not per search step.
func (e *eigenCache) topK(k int) (*linalg.Matrix, error) {
	if e.vecs == nil {
		res, err := e.lap.EigenBottomK(e.maxDim, solveTol, e.rng)
		if err != nil {
			// Accept iteration-starved solves inside the documented
			// residual budget; anything else is a hard failure.
			var ce *linalg.ConvergenceError
			if !errors.As(err, &ce) || worstResidual(ce.Residuals) > residualBudget {
				return nil, fmt.Errorf("baseline: eigensolve (k=%d): %w", e.maxDim, err)
			}
		}
		e.vecs = res.Vectors
	}
	k = min(k, e.vecs.Cols)
	n := e.lap.N
	out := linalg.NewMatrix(n, k)
	for c := 0; c < k; c++ {
		for r := 0; r < n; r++ {
			out.Set(r, c, e.vecs.At(r, c))
		}
	}
	return out, nil
}

func worstResidual(res []float64) float64 {
	worst := 0.0
	for _, r := range res {
		if r > worst {
			worst = r
		}
	}
	return worst
}

// spectralPartition embeds the nodes into embDim eigenvector
// coordinates and k-means-partitions them into k clusters. embDim is
// min(k, embedding cap): above the cap, k-means still splits into k
// clusters — the capped embedding only bounds the coordinate width.
func spectralPartition(g *topology.Graph, solver *eigenCache, k, embDim int, rng *rand.Rand) (*cluster.Clustering, error) {
	n := g.N()
	if k >= n {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return cluster.FromAssignment(labels), nil
	}
	if k == 1 {
		return cluster.FromAssignment(make([]int, n)), nil
	}
	vecs, err := solver.topK(embDim)
	if err != nil {
		return nil, err
	}
	// Row-normalize the embedding (NJW step 4); rows are independent, so
	// the normalization fans out over the shared execution layer.
	emb := linalg.NewMatrix(n, vecs.Cols)
	par.For(n, func(i int) {
		var norm float64
		for c := 0; c < vecs.Cols; c++ {
			v := vecs.At(i, c)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for c := 0; c < vecs.Cols; c++ {
			emb.Set(i, c, vecs.At(i, c)/norm)
		}
	})
	labels := linalg.KMeans(emb, k, rng, 30)
	return cluster.FromAssignment(labels), nil
}
