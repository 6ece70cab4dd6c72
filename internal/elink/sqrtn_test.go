package elink

import (
	"math"
	"testing"

	"elink/internal/metric"
	"elink/internal/topology"
)

// runRounds runs ELink on a side x side grid with uniform features
// (everything merges into one cluster — the worst case for sentinel
// escalation) and returns the synchronous round count: under UnitDelay
// the run's end time, Stats.Time.
func runRounds(t *testing.T, side int) float64 {
	t.Helper()
	g := topology.NewGrid(side, side)
	feats := make([]metric.Feature, g.N())
	for u := range feats {
		feats[u] = metric.Feature{0}
	}
	res, err := Run(g, Config{
		Delta:    1,
		Metric:   metric.Scalar{},
		Features: feats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clustering.NumClusters() != 1 {
		t.Fatalf("side %d: %d clusters, want 1", side, res.Clustering.NumClusters())
	}
	if res.Stats.Time <= 0 {
		t.Fatalf("side %d: run took %v rounds", side, res.Stats.Time)
	}
	return res.Stats.Time
}

// TestRoundsGrowSqrtN pins ELink's Theorem 2 complexity end to end: the
// number of synchronous rounds grows like √N (times a log factor) in the
// network size. The log-log slope over a geometric ladder of grids must
// sit near 1/2 — well below linear, well above constant.
func TestRoundsGrowSqrtN(t *testing.T) {
	sides := []int{8, 16, 32}
	var xs, ys []float64
	for _, side := range sides {
		n := float64(side * side)
		r := runRounds(t, side)
		t.Logf("N=%4.0f rounds=%3.0f", n, r)
		xs = append(xs, math.Log(n))
		ys = append(ys, math.Log(r))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			t.Fatalf("rounds not increasing across grid sizes: %v", ys)
		}
	}
	// Least-squares slope of log(rounds) against log(N).
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	k := float64(len(xs))
	slope := (k*sxy - sx*sy) / (k*sxx - sx*sx)
	// √N log N on this ladder fits a slope a bit above 0.5; linear growth
	// would be 1.0 and constant 0. Accept the √N band.
	if slope < 0.3 || slope > 0.8 {
		t.Errorf("log-log slope of rounds vs N = %.3f, want ~0.5 (√N growth)", slope)
	}
}
