package ar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitRecoversAR1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	series := Simulate([]float64{0.6}, 5000, []float64{1}, GaussianNoise(rng, 0.1))
	coef, err := Fit(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-0.6) > 0.05 {
		t.Errorf("fitted α = %v, want ≈ 0.6", coef[0])
	}
}

func TestFitRecoversAR2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := []float64{0.5, 0.3}
	series := Simulate(truth, 8000, []float64{1, 1}, GaussianNoise(rng, 0.1))
	coef, err := Fit(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(coef[i]-truth[i]) > 0.06 {
			t.Errorf("coef[%d] = %v, want ≈ %v", i, coef[i], truth[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1, 2, 3}, 0); err == nil {
		t.Error("Fit accepted order 0")
	}
	if _, err := Fit([]float64{1, 2}, 2); err == nil {
		t.Error("Fit accepted too-short series")
	}
}

func TestFitConstantSeries(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 5
	}
	coef, err := Fit(series, 2)
	if err != nil {
		t.Fatalf("Fit failed on constant series: %v", err)
	}
	// Prediction from the fit should reproduce the constant.
	pred := coef[0]*5 + coef[1]*5
	if math.Abs(pred-5) > 0.01 {
		t.Errorf("constant series prediction = %v, want 5", pred)
	}
}

func TestRLSMatchesBatchFit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	series := Simulate([]float64{0.5, 0.3}, 600, []float64{1, 1}, GaussianNoise(rng, 0.2))

	// Batch fit on the full series.
	batch, err := Fit(series, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Batch fit on a prefix, then feed the remainder through RLS.
	m, err := FitModel(series[:300], 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range series[300:] {
		m.Observe(v)
	}
	for i := range batch {
		if math.Abs(m.Coef[i]-batch[i]) > 1e-6 {
			t.Errorf("RLS coef[%d] = %v, batch = %v (should agree to numerical precision)", i, m.Coef[i], batch[i])
		}
	}
}

func TestNewModelColdStartConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	series := Simulate([]float64{0.7}, 3000, []float64{1}, GaussianNoise(rng, 0.1))
	m := NewModel(1)
	for _, v := range series {
		m.Observe(v)
	}
	if math.Abs(m.Coef[0]-0.7) > 0.05 {
		t.Errorf("cold-start RLS α = %v, want ≈ 0.7", m.Coef[0])
	}
	if m.Seen() != len(series) {
		t.Errorf("Seen() = %d, want %d", m.Seen(), len(series))
	}
}

func TestObserveReportsUpdates(t *testing.T) {
	m := NewModel(2)
	if m.Observe(1) || m.Observe(2) {
		t.Error("Observe reported an update before the lag window was full")
	}
	if !m.Observe(3) {
		t.Error("Observe did not report an update once lags were available")
	}
}

func TestSetCoefPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetCoef accepted wrong-length coefficients")
		}
	}()
	NewModel(2).SetCoef([]float64{1})
}

func TestSimulateDeterministicWithoutNoise(t *testing.T) {
	got := Simulate([]float64{0.5}, 4, []float64{8}, nil)
	want := []float64{4, 2, 1, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Simulate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: for any stable AR(1) coefficient and seed, the cold-start RLS
// estimate after enough samples lands near the true coefficient.
func TestRLSConvergenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := 0.4 + r.Float64()*0.4 // the paper's U(0.4, 0.8)
		series := Simulate([]float64{alpha}, 2500, []float64{1}, UniformNoise(r, -0.5, 0.5))
		m := NewModel(1)
		for _, v := range series {
			m.Observe(v)
		}
		return math.Abs(m.Coef[0]-alpha) < 0.1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: online RLS equals batch least squares regardless of the split
// point between the batch prefix and the streamed suffix.
func TestRLSBatchEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	series := Simulate([]float64{0.6, 0.2}, 400, []float64{1, 1}, GaussianNoise(rng, 0.3))
	batch, err := Fit(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawSplit uint16) bool {
		split := 50 + int(rawSplit)%300
		m, err := FitModel(series[:split], 2)
		if err != nil {
			return false
		}
		for _, v := range series[split:] {
			m.Observe(v)
		}
		for i := range batch {
			if math.Abs(m.Coef[i]-batch[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestObserveAllocs pins a warmed-up RLS step at zero allocations: the
// regressor is read in place from the lag window and both P x products
// reuse the model's scratch.
func TestObserveAllocs(t *testing.T) {
	m := NewModel(3)
	v := 0.0
	for i := 0; i < 8; i++ {
		v += 0.37
		m.Observe(v)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		v = v*0.9 + 0.37
		m.Observe(v)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v objects per step, want 0", allocs)
	}
}
