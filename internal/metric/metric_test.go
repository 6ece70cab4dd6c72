package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEuclideanDistance(t *testing.T) {
	var m Euclidean
	got := m.Distance(Feature{0, 0}, Feature{3, 4})
	if got != 5 {
		t.Errorf("Distance((0,0),(3,4)) = %v, want 5", got)
	}
}

func TestManhattanDistance(t *testing.T) {
	var m Manhattan
	got := m.Distance(Feature{1, -2}, Feature{4, 2})
	if got != 7 {
		t.Errorf("Distance = %v, want 7", got)
	}
}

func TestScalarDistance(t *testing.T) {
	var m Scalar
	if got := m.Distance(Feature{175}, Feature{1996}); got != 1821 {
		t.Errorf("Distance = %v, want 1821", got)
	}
}

func TestWeightedEuclideanOrdersModels(t *testing.T) {
	// Paper §2.2: N1 = (0.5, 0.4), N2 = (0.5, 0.3), N3 = (0.4, 0.4).
	// With the higher-order coefficient weighted more, N1 should be closer
	// to N2 than to N3.
	m := NewWeightedEuclidean(1.0, 0.25)
	n1 := Feature{0.5, 0.4}
	n2 := Feature{0.5, 0.3}
	n3 := Feature{0.4, 0.4}
	d12 := m.Distance(n1, n2)
	d13 := m.Distance(n1, n3)
	if d12 >= d13 {
		t.Errorf("d(N1,N2)=%v should be < d(N1,N3)=%v", d12, d13)
	}
}

func TestWeightedEuclideanPanicsOnBadWeight(t *testing.T) {
	for _, w := range [][]float64{{0}, {-1}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWeightedEuclidean(%v) did not panic", w)
				}
			}()
			NewWeightedEuclidean(w...)
		}()
	}
}

func TestDistancePanicsOnDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Euclidean{}.Distance(Feature{1}, Feature{1, 2})
}

func TestMatrixMetricFig3(t *testing.T) {
	// Distance matrix shaped like the paper's Fig 3b example.
	d := [][]float64{
		{0, 2, 3, 4, 5},
		{2, 0, 2, 3, 4},
		{3, 2, 0, 6, 6},
		{4, 3, 6, 0, 2},
		{5, 4, 6, 2, 0},
	}
	m := Matrix{D: d}
	if got := m.Distance(Feature{2}, Feature{4}); got != 6 {
		t.Errorf("d(c,e) = %v, want 6", got)
	}
	if got := m.Distance(Feature{0}, Feature{1}); got != 2 {
		t.Errorf("d(a,b) = %v, want 2", got)
	}
}

func TestFeatureCloneIsIndependent(t *testing.T) {
	f := Feature{1, 2, 3}
	c := f.Clone()
	c[0] = 99
	if f[0] != 1 {
		t.Error("Clone shares backing storage with original")
	}
	if !f.Equal(Feature{1, 2, 3}) {
		t.Error("original mutated")
	}
}

func TestFeatureEqual(t *testing.T) {
	cases := []struct {
		a, b Feature
		want bool
	}{
		{Feature{1, 2}, Feature{1, 2}, true},
		{Feature{1, 2}, Feature{1, 3}, false},
		{Feature{1}, Feature{1, 2}, false},
		{Feature{}, Feature{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFeatureString(t *testing.T) {
	if got := (Feature{0.5, 0.25}).String(); got != "(0.5, 0.25)" {
		t.Errorf("String() = %q", got)
	}
}

func TestVerifyMetricAcceptsEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := randomFeatures(rng, 12, 3)
	if err := VerifyMetric(Euclidean{}, samples, 1e-9); err != nil {
		t.Errorf("Euclidean failed metric axioms: %v", err)
	}
}

func TestVerifyMetricRejectsNonMetric(t *testing.T) {
	// A "distance" violating the triangle inequality: squared euclidean.
	bad := funcMetric(func(a, b Feature) float64 {
		d := Euclidean{}.Distance(a, b)
		return d * d
	})
	samples := []Feature{{0}, {1}, {2}}
	if err := VerifyMetric(bad, samples, 1e-9); err == nil {
		t.Error("VerifyMetric accepted squared-euclidean, which violates the triangle inequality")
	}
}

func TestVerifyMetricRejectsAsymmetric(t *testing.T) {
	bad := funcMetric(func(a, b Feature) float64 {
		if a[0] < b[0] {
			return b[0] - a[0]
		}
		return 2 * (a[0] - b[0])
	})
	samples := []Feature{{0}, {1}}
	if err := VerifyMetric(bad, samples, 1e-9); err == nil {
		t.Error("VerifyMetric accepted an asymmetric distance")
	}
}

type funcMetric func(a, b Feature) float64

func (f funcMetric) Distance(a, b Feature) float64 { return f(a, b) }

func randomFeatures(rng *rand.Rand, n, dim int) []Feature {
	fs := make([]Feature, n)
	for i := range fs {
		f := make(Feature, dim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		fs[i] = f
	}
	return fs
}

// Property: the weighted euclidean distance satisfies the metric axioms on
// arbitrary inputs.
func TestWeightedEuclideanMetricAxiomsProperty(t *testing.T) {
	m := NewWeightedEuclidean(0.5, 0.3, 0.2, 0.1)
	prop := func(ax, ay, az, aw, bx, by, bz, bw, cx, cy, cz, cw float64) bool {
		a := clamp4(ax, ay, az, aw)
		b := clamp4(bx, by, bz, bw)
		c := clamp4(cx, cy, cz, cw)
		dab := m.Distance(a, b)
		dba := m.Distance(b, a)
		dac := m.Distance(a, c)
		dcb := m.Distance(c, b)
		return dab >= 0 && math.Abs(dab-dba) < 1e-9 && dab <= dac+dcb+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all weights by a positive constant scales distances by
// its square root.
func TestWeightedEuclideanScalingProperty(t *testing.T) {
	prop := func(x1, x2, y1, y2 float64) bool {
		x1, x2, y1, y2 = clampf(x1), clampf(x2), clampf(y1), clampf(y2)
		m1 := NewWeightedEuclidean(1, 1)
		m4 := NewWeightedEuclidean(4, 4)
		a, b := Feature{x1, x2}, Feature{y1, y2}
		return math.Abs(m4.Distance(a, b)-2*m1.Distance(a, b)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func clamp4(a, b, c, d float64) Feature {
	return Feature{clampf(a), clampf(b), clampf(c), clampf(d)}
}

// TestEuclideanNoSpuriousOverflow checks the distances whose sum of
// squares overflows although the distance does not: they come back
// finite and correctly rounded, and only a distance past MaxFloat64 (or
// an infinite operand) is +Inf.
func TestEuclideanNoSpuriousOverflow(t *testing.T) {
	w := NewWeightedEuclidean(4, 1)
	cases := []struct {
		name string
		m    Metric
		a, b Feature
		want float64
	}{
		{"one huge difference", Euclidean{}, Feature{1e308}, Feature{0}, 1e308},
		{"two huge differences", Euclidean{}, Feature{1e200, 1e200}, Feature{0, 0}, 1e200 * math.Sqrt2},
		{"difference overflows", Euclidean{}, Feature{1e308}, Feature{-1e308}, math.Inf(1)},
		{"difference near max", Euclidean{}, Feature{1e308, 0}, Feature{-5e307, 0}, 1.5e308},
		{"infinite operand", Euclidean{}, Feature{math.Inf(1), 0}, Feature{0, 0}, math.Inf(1)},
		{"weighted", w, Feature{1e200, 0}, Feature{0, 0}, 2e200},
		{"weighted, difference overflows", NewWeightedEuclidean(1, 0.25), Feature{0, 0x1p1023}, Feature{0, -0x1p1023}, 0x1p1023},
		{"weighted past max", w, Feature{1e308, 0}, Feature{0, 0}, math.Inf(1)},
	}
	for _, tc := range cases {
		if got := tc.m.Distance(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Distance(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// Property: a feature pair scaled up by 2^600, which overflows the plain
// sum of squares, has 2^600 times the distance of the unscaled pair.
func TestEuclideanLargeScaleProperty(t *testing.T) {
	up := math.Ldexp(1, 600)
	ms := []Metric{Euclidean{}, NewWeightedEuclidean(0.5, 0.3, 0.2, 0.1)}
	prop := func(ax, ay, az, aw, bx, by, bz, bw float64) bool {
		a, b := clamp4(ax, ay, az, aw), clamp4(bx, by, bz, bw)
		A, B := make(Feature, 4), make(Feature, 4)
		for i := range a {
			A[i], B[i] = a[i]*up, b[i]*up
		}
		for _, m := range ms {
			want, got := m.Distance(a, b)*up, m.Distance(A, B)
			if math.IsInf(got, 0) || math.Abs(got-want) > 1e-15*want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
