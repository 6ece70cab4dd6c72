package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"elink/internal/cluster"
	"elink/internal/data"
	"elink/internal/metric"
	"elink/internal/topology"
)

func bandedFeatures(g *topology.Graph, bands int, jump float64, rng *rand.Rand) []metric.Feature {
	min, max := g.BoundingBox()
	span := max.X - min.X
	if span == 0 {
		span = 1
	}
	feats := make([]metric.Feature, g.N())
	for u := range feats {
		b := int((g.Pos[u].X - min.X) / span * float64(bands))
		if b >= bands {
			b = bands - 1
		}
		feats[u] = metric.Feature{float64(b)*jump + rng.Float64()*0.1}
	}
	return feats
}

func uniformFeatures(n int, v float64) []metric.Feature {
	fs := make([]metric.Feature, n)
	for i := range fs {
		fs[i] = metric.Feature{v}
	}
	return fs
}

func checkValid(t *testing.T, name string, g *topology.Graph, res *cluster.Result, feats []metric.Feature, delta float64) {
	t.Helper()
	if err := res.Clustering.Validate(g, feats, metric.Scalar{}, delta, 1e-9); err != nil {
		t.Fatalf("%s produced an invalid clustering: %v", name, err)
	}
}

func TestSpanningForestUniformOneCluster(t *testing.T) {
	g := topology.NewGrid(5, 5)
	feats := uniformFeatures(g.N(), 1)
	res, err := SpanningForest(g, ForestConfig{Delta: 1, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "forest", g, res, feats, 1)
	if res.Clustering.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1 (identical features give one spanning tree)", res.Clustering.NumClusters())
	}
	// Phase-1 feature exchange costs exactly 2E messages.
	if got := res.Stats.Breakdown[ForestKindFeature]; got != int64(2*g.Edges()) {
		t.Errorf("feature messages = %d, want %d", got, 2*g.Edges())
	}
}

func TestSpanningForestSplitsOnJumps(t *testing.T) {
	g := topology.NewGrid(4, 12)
	rng := rand.New(rand.NewSource(1))
	feats := bandedFeatures(g, 3, 10, rng)
	res, err := SpanningForest(g, ForestConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "forest", g, res, feats, 2)
	if n := res.Clustering.NumClusters(); n < 3 {
		t.Errorf("NumClusters = %d, want at least the 3 bands", n)
	}
}

func TestSpanningForestLinearMessages(t *testing.T) {
	perNode := func(side int) float64 {
		g := topology.NewGrid(side, side)
		rng := rand.New(rand.NewSource(5))
		feats := bandedFeatures(g, 3, 10, rng)
		res, err := SpanningForest(g, ForestConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.Messages) / float64(g.N())
	}
	if small, large := perNode(8), perNode(16); large > 2*small {
		t.Errorf("forest messages/node grew %v -> %v; want O(N) total", small, large)
	}
}

func TestSpanningForestValidOnRandomTopologies(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomGeometricForDegree(70, 4, rng)
		feats := bandedFeatures(g, 4, 5, rng)
		res, err := SpanningForest(g, ForestConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkValid(t, "forest", g, res, feats, 2)
	}
}

func TestHierarchicalUniformOneCluster(t *testing.T) {
	g := topology.NewGrid(5, 5)
	feats := uniformFeatures(g.N(), 2)
	res, err := Hierarchical(g, HierConfig{Delta: 1, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "hierarchical", g, res, feats, 1)
	if res.Clustering.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1", res.Clustering.NumClusters())
	}
}

func TestHierarchicalRespectsDelta(t *testing.T) {
	g := topology.NewGrid(4, 12)
	rng := rand.New(rand.NewSource(2))
	feats := bandedFeatures(g, 3, 10, rng)
	res, err := Hierarchical(g, HierConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "hierarchical", g, res, feats, 2)
	if n := res.Clustering.NumClusters(); n < 3 || n > 12 {
		t.Errorf("NumClusters = %d, want a handful for 3 bands", n)
	}
}

func TestHierarchicalBeatsForestQuality(t *testing.T) {
	// The paper: hierarchical produces fewer clusters than spanning
	// forest thanks to its fitness function. Check over several seeds in
	// aggregate.
	var hTotal, fTotal int
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 50))
		g := topology.RandomGeometricForDegree(80, 4, rng)
		feats := bandedFeatures(g, 3, 6, rng)
		h, err := Hierarchical(g, HierConfig{Delta: 2.5, Metric: metric.Scalar{}, Features: feats})
		if err != nil {
			t.Fatal(err)
		}
		f, err := SpanningForest(g, ForestConfig{Delta: 2.5, Metric: metric.Scalar{}, Features: feats, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkValid(t, "hierarchical", g, h, feats, 2.5)
		checkValid(t, "forest", g, f, feats, 2.5)
		hTotal += h.Clustering.NumClusters()
		fTotal += f.Clustering.NumClusters()
	}
	if hTotal > fTotal {
		t.Errorf("hierarchical total clusters %d should not exceed forest %d", hTotal, fTotal)
	}
}

func TestHierarchicalCostsMoreThanForest(t *testing.T) {
	g := topology.NewGrid(10, 10)
	rng := rand.New(rand.NewSource(3))
	feats := bandedFeatures(g, 2, 4, rng)
	h, err := Hierarchical(g, HierConfig{Delta: 3, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	f, err := SpanningForest(g, ForestConfig{Delta: 3, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Messages <= f.Stats.Messages {
		t.Errorf("hierarchical (%d msgs) should cost more than forest (%d msgs)", h.Stats.Messages, f.Stats.Messages)
	}
}

func TestSpectralUniformOneCluster(t *testing.T) {
	g := topology.NewGrid(4, 4)
	feats := uniformFeatures(g.N(), 7)
	res, err := Spectral(g, SpectralConfig{Delta: 1, Metric: metric.Scalar{}, Features: feats, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "spectral", g, res, feats, 1)
	if res.Clustering.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1", res.Clustering.NumClusters())
	}
}

func TestSpectralFindsBands(t *testing.T) {
	g := topology.NewGrid(4, 12)
	rng := rand.New(rand.NewSource(4))
	feats := bandedFeatures(g, 3, 10, rng)
	res, err := Spectral(g, SpectralConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "spectral", g, res, feats, 2)
	if n := res.Clustering.NumClusters(); n < 3 || n > 7 {
		t.Errorf("NumClusters = %d, want close to the 3 bands", n)
	}
}

func TestSpectralNearOptimalOnBands(t *testing.T) {
	// Centralized spectral should be at least as good as the greedy
	// forest on a clean banded field.
	g := topology.NewGrid(6, 12)
	rng := rand.New(rand.NewSource(8))
	feats := bandedFeatures(g, 4, 10, rng)
	s, err := Spectral(g, SpectralConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := SpanningForest(g, ForestConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clustering.NumClusters() > f.Clustering.NumClusters() {
		t.Errorf("spectral %d clusters vs forest %d: centralized should win",
			s.Clustering.NumClusters(), f.Clustering.NumClusters())
	}
}

func TestSpectralSingletonFallback(t *testing.T) {
	// All-distinct features with a tiny delta force k up to N.
	g := topology.NewGrid(3, 3)
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{float64(i * 10)}
	}
	res, err := Spectral(g, SpectralConfig{Delta: 0.5, Metric: metric.Scalar{}, Features: feats, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, "spectral", g, res, feats, 0.5)
	if res.Clustering.NumClusters() != g.N() {
		t.Errorf("NumClusters = %d, want %d singletons", res.Clustering.NumClusters(), g.N())
	}
}

func TestCentralizedCost(t *testing.T) {
	g := topology.NewGrid(1, 4) // path 0-1-2-3; base at 0
	c := NewCentralizedCost(g, 0)
	if c.Base() != 0 {
		t.Error("Base mismatch")
	}
	// Hops: 0,1,2,3 -> sum 6.
	raw := c.ShipAll(1)
	if raw.Messages != 6 {
		t.Errorf("ShipAll(1) = %d, want 6", raw.Messages)
	}
	if c.ShipAll(3).Messages != 18 {
		t.Error("ShipAll should scale with value count")
	}
	models := c.ShipModels([]topology.NodeID{2, 3}, 2)
	if models.Messages != (2+3)*2 {
		t.Errorf("ShipModels = %d, want 10", models.Messages)
	}
	if c.Hops(3) != 3 {
		t.Errorf("Hops(3) = %d", c.Hops(3))
	}
}

func TestFeatureCountValidation(t *testing.T) {
	g := topology.NewGrid(2, 2)
	short := uniformFeatures(3, 0)
	if _, err := SpanningForest(g, ForestConfig{Delta: 1, Metric: metric.Scalar{}, Features: short}); err == nil {
		t.Error("forest accepted wrong feature count")
	}
	if _, err := Hierarchical(g, HierConfig{Delta: 1, Metric: metric.Scalar{}, Features: short}); err == nil {
		t.Error("hierarchical accepted wrong feature count")
	}
	if _, err := Spectral(g, SpectralConfig{Delta: 1, Metric: metric.Scalar{}, Features: short}); err == nil {
		t.Error("spectral accepted wrong feature count")
	}
}

func TestForestDeterministic(t *testing.T) {
	g := topology.NewGrid(6, 6)
	rng := rand.New(rand.NewSource(17))
	feats := bandedFeatures(g, 3, 5, rng)
	run := func() *cluster.Result {
		res, err := SpanningForest(g, ForestConfig{Delta: 2, Metric: metric.Scalar{}, Features: feats})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Clustering.NumClusters() != b.Clustering.NumClusters() || a.Stats.Messages != b.Stats.Messages {
		t.Error("spanning forest runs are not deterministic")
	}
}

// TestBaselinesMatchReference pins both §8.3 baselines to the map-based
// references in ref_test.go: clustering, roots, message total,
// breakdown and time must be reflect.DeepEqual on seeded random
// geometric graphs (N 20–300, average degree 3–6) at random δ, δ = 0
// and δ = +Inf, with scalar, two-dimensional and few-valued (so tied)
// features, and on the
// 2500-node Death Valley network. The subtests run in parallel.
func TestBaselinesMatchReference(t *testing.T) {
	check := func(t *testing.T, name string, g *topology.Graph, feats []metric.Feature, m metric.Metric, delta float64, seed int64) {
		t.Helper()
		h, err := Hierarchical(g, HierConfig{Delta: delta, Metric: m, Features: feats})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := hierRef(g, HierConfig{Delta: delta, Metric: m, Features: feats}); !reflect.DeepEqual(h, want) {
			t.Fatalf("%s δ=%v: Hierarchical = %+v %+v, reference %+v %+v", name, delta, h.Clustering, h.Stats, want.Clustering, want.Stats)
		}
		f, err := SpanningForest(g, ForestConfig{Delta: delta, Metric: m, Features: feats, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := forestRef(g, ForestConfig{Delta: delta, Metric: m, Features: feats, Seed: seed}); !reflect.DeepEqual(f, want) {
			t.Fatalf("%s δ=%v: SpanningForest = %+v %+v, reference %+v %+v", name, delta, f.Clustering, f.Stats, want.Clustering, want.Stats)
		}
	}
	t.Run("random", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(35))
		for trial := 0; trial < 21; trial++ {
			n := 20 + rng.Intn(281)
			g := topology.RandomGeometricForDegree(n, 3+3*rng.Float64(), rng)
			var feats []metric.Feature
			var m metric.Metric = metric.Scalar{}
			switch trial % 3 {
			case 0:
				feats = bandedFeatures(g, 1+rng.Intn(5), 5*rng.Float64(), rng)
			case 1:
				feats = make([]metric.Feature, n)
				for u := range feats {
					feats[u] = metric.Feature{rng.NormFloat64(), rng.NormFloat64()}
				}
				m = metric.Euclidean{}
			case 2: // few distinct values: distances, heights and fitnesses tie
				feats = make([]metric.Feature, n)
				for u := range feats {
					feats[u] = metric.Feature{float64(rng.Intn(4))}
				}
			}
			name := fmt.Sprintf("trial %d (N=%d)", trial, n)
			for _, delta := range []float64{rng.Float64() * 6, 0, math.Inf(1)} {
				check(t, name, g, feats, m, delta, int64(trial))
			}
		}
	})
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("deathvalley-%d", seed), func(t *testing.T) {
			t.Parallel()
			ds, err := data.DeathValley(data.DeathValleyConfig{Nodes: 2500, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, delta := range []float64{50, 150, 400} {
				check(t, fmt.Sprintf("Death Valley seed %d", seed), ds.Graph, ds.Features, ds.Metric, delta, seed)
			}
		})
	}
}
