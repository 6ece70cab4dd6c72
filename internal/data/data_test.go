package data

import (
	"math"
	"slices"
	"testing"

	"elink/internal/topology"
)

func TestTaoShape(t *testing.T) {
	ds, err := Tao(TaoConfig{Days: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.N() != 54 {
		t.Errorf("N = %d, want 54 (6x9 grid)", ds.Graph.N())
	}
	if len(ds.Series) != 54 || len(ds.Series[0]) != 8*samplesPerDay {
		t.Errorf("series shape wrong: %d x %d", len(ds.Series), len(ds.Series[0]))
	}
	for u, f := range ds.Features {
		if len(f) != 4 {
			t.Fatalf("node %d feature has %d coefficients, want 4", u, len(f))
		}
		for _, c := range f {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("node %d feature contains %v", u, c)
			}
		}
	}
}

func TestTaoTemperatureRangePlausible(t *testing.T) {
	ds, err := Tao(TaoConfig{Days: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	var sum float64
	var n int
	for _, s := range ds.Series {
		for _, v := range s {
			min = math.Min(min, v)
			max = math.Max(max, v)
			sum += v
			n++
		}
	}
	mean := sum / float64(n)
	// Paper: range (19.57, 32.79), mean 25.61.
	if min < 16.5 || max > 34 {
		t.Errorf("temperature range (%.2f, %.2f) outside tropical plausibility", min, max)
	}
	if mean < 23 || mean > 28 {
		t.Errorf("mean temperature %.2f, want near 25.6", mean)
	}
}

func TestTaoFeaturesSpatiallyCorrelated(t *testing.T) {
	// The whole point of the stand-in: same-zone nodes must be closer in
	// feature space than cross-zone nodes, on average.
	ds, err := Tao(TaoConfig{Days: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Metric
	var within, across float64
	var nw, na int
	for u := 0; u < ds.Graph.N(); u++ {
		for v := u + 1; v < ds.Graph.N(); v++ {
			zu := taoZone(ds.Graph.Pos[u].X / 8)
			zv := taoZone(ds.Graph.Pos[v].X / 8)
			d := m.Distance(ds.Features[u], ds.Features[v])
			if zu == zv {
				within += d
				nw++
			} else {
				across += d
				na++
			}
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if across < 1.5*within {
		t.Errorf("cross-zone mean distance %.4f vs within-zone %.4f: not spatially correlated enough", across, within)
	}
}

func TestDailyMeans(t *testing.T) {
	series := make([]float64, 2*samplesPerDay)
	for i := range series {
		if i < samplesPerDay {
			series[i] = 2
		} else {
			series[i] = 4
		}
	}
	mu := DailyMeans(series)
	if len(mu) != 2 || mu[0] != 2 || mu[1] != 4 {
		t.Errorf("DailyMeans = %v, want [2 4]", mu)
	}
}

func TestFitTaoModelRejectsShortSeries(t *testing.T) {
	if _, err := FitTaoModel(make([]float64, 3*samplesPerDay)); err == nil {
		t.Error("FitTaoModel accepted fewer than 5 days")
	}
}

func TestDeathValleyShape(t *testing.T) {
	ds, err := DeathValley(DeathValleyConfig{Nodes: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.N() != 300 {
		t.Errorf("N = %d, want 300", ds.Graph.N())
	}
	if !ds.Graph.Connected() {
		t.Error("terrain network must be connected")
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, f := range ds.Features {
		min = math.Min(min, f[0])
		max = math.Max(max, f[0])
	}
	if min < 175-1e-9 || max > 1996+1e-9 {
		t.Errorf("elevation range (%.1f, %.1f) outside (175, 1996)", min, max)
	}
	if max-min < 500 {
		t.Errorf("elevation span %.1f too flat to be interesting", max-min)
	}
}

func TestDeathValleyElevationSpatiallySmooth(t *testing.T) {
	ds, err := DeathValley(DeathValleyConfig{Nodes: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Neighbouring sensors should differ far less than random pairs.
	var nbr, rnd float64
	var nn, nr int
	for u := 0; u < ds.Graph.N(); u++ {
		for _, v := range ds.Graph.Neighbors(topology.NodeID(u)) {
			nbr += math.Abs(ds.Features[u][0] - ds.Features[v][0])
			nn++
		}
		w := (u*7 + 13) % ds.Graph.N()
		rnd += math.Abs(ds.Features[u][0] - ds.Features[w][0])
		nr++
	}
	nbr /= float64(nn)
	rnd /= float64(nr)
	if rnd < 2*nbr {
		t.Errorf("random-pair elevation diff %.1f vs neighbour diff %.1f: terrain not spatially correlated", rnd, nbr)
	}
}

func TestDeathValleyTopologiesDiffer(t *testing.T) {
	a, err := DeathValley(DeathValleyConfig{Nodes: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeathValley(DeathValleyConfig{Nodes: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for u := 0; u < 100; u++ {
		if a.Graph.Pos[u] != b.Graph.Pos[u] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical topologies")
	}
}

func TestSyntheticRecoversAlpha(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{Nodes: 50, Readings: 4000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for u, f := range ds.Features {
		if f[0] < 0.3 || f[0] > 0.9 {
			t.Errorf("node %d recovered alpha = %.3f, want within (0.3, 0.9) for true U(0.4, 0.8)", u, f[0])
		}
	}
	if d := 2 * float64(ds.Graph.Edges()) / float64(ds.Graph.N()); d < 2.5 || d > 7.5 {
		t.Errorf("average degree %.2f, want near 4", d)
	}
}

func TestSyntheticUncorrelated(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{Nodes: 120, Readings: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Neighbour feature distance should look like random-pair distance.
	var nbr, rnd float64
	var nn, nr int
	for u := 0; u < ds.Graph.N(); u++ {
		for _, v := range ds.Graph.Neighbors(topology.NodeID(u)) {
			nbr += math.Abs(ds.Features[u][0] - ds.Features[v][0])
			nn++
		}
		w := (u*11 + 29) % ds.Graph.N()
		if w != u {
			rnd += math.Abs(ds.Features[u][0] - ds.Features[w][0])
			nr++
		}
	}
	nbr /= float64(nn)
	rnd /= float64(nr)
	ratio := rnd / nbr
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("random/neighbour distance ratio = %.2f, want near 1 for uncorrelated data", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Tao(TaoConfig{Days: 2}); err == nil {
		t.Error("Tao accepted too few days")
	}
	if _, err := DeathValley(DeathValleyConfig{Nodes: 2}); err == nil {
		t.Error("DeathValley accepted too few nodes")
	}
	if _, err := Synthetic(SyntheticConfig{Nodes: 1}); err == nil {
		t.Error("Synthetic accepted one node")
	}
}

func TestDatasetsDeterministicPerSeed(t *testing.T) {
	a, _ := Synthetic(SyntheticConfig{Nodes: 40, Readings: 500, Seed: 9})
	b, _ := Synthetic(SyntheticConfig{Nodes: 40, Readings: 500, Seed: 9})
	for u := range a.Features {
		if !slices.Equal(a.Features[u], b.Features[u]) {
			t.Fatalf("node %d features differ across identical seeds", u)
		}
	}
}
