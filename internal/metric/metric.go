// Package metric defines the feature space used for spatial clustering and
// the distance metrics on it.
//
// Every sensor node summarizes its time series with a model whose
// coefficients form a Feature (paper §2.2). Clustering, index construction
// and query pruning all operate on a Metric over those features; all the
// pruning rules in the paper rely on the triangle inequality, so distances
// used here must be true metrics (positivity, symmetry, triangle
// inequality). WeightedEuclidean is the paper's choice: higher-order AR
// coefficients matter more, so each coordinate carries a weight.
package metric

import (
	"fmt"
	"math"
)

// Feature is a point in the model-coefficient space of a sensor node.
// For an AR(k) model it holds the k regression coefficients.
type Feature []float64

// Clone returns an independent copy of f.
func (f Feature) Clone() Feature {
	c := make(Feature, len(f))
	copy(c, f)
	return c
}

// String renders the feature as a parenthesized coordinate tuple.
func (f Feature) String() string {
	s := "("
	for i, v := range f {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.4g", v)
	}
	return s + ")"
}

// Metric computes the dissimilarity between two features. Implementations
// must satisfy the metric axioms: d(a,b) >= 0 with equality iff a == b,
// d(a,b) == d(b,a), and d(a,c) <= d(a,b) + d(b,c).
type Metric interface {
	// Distance returns the dissimilarity between a and b. It panics if the
	// features have mismatched dimensions.
	Distance(a, b Feature) float64
}

// Euclidean is the unweighted L2 metric.
type Euclidean struct{}

// Distance implements Metric.
func (Euclidean) Distance(a, b Feature) float64 {
	checkDims(a, b)
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	if sum <= math.MaxFloat64 {
		return math.Sqrt(sum)
	}
	return overflowNorm(a, b, sum, nil)
}

// overflowNorm finishes a Euclidean distance whose plain sum of squares,
// sum, is +Inf or NaN; the callers keep the common case inline. It
// returns sqrt(Σ w_i (a_i-b_i)²), with w_i = 1 when w is nil, for the
// rare inputs whose sum overflows although the distance may not: each
// term is divided by the largest √w_i·|a_i-b_i| before squaring, as
// math.Hypot does, and the operands are halved first when a difference
// itself overflows. A distance past MaxFloat64, or an infinite operand,
// still gives +Inf, and a NaN sum stays NaN.
func overflowNorm(a, b Feature, sum float64, w []float64) float64 {
	if math.IsNaN(sum) {
		return sum
	}
	half := 1.0
	for i := range a {
		if math.IsInf(a[i]-b[i], 0) {
			half = 0.5
			break
		}
	}
	term := func(i int) float64 {
		d := a[i]*half - b[i]*half
		if w != nil {
			d *= math.Sqrt(w[i])
		}
		return d
	}
	var scale float64
	for i := range a {
		scale = math.Max(scale, math.Abs(term(i)))
	}
	if math.IsInf(scale, 1) {
		return scale
	}
	var scaled float64
	for i := range a {
		d := term(i) / scale
		scaled += d * d
	}
	return scale * math.Sqrt(scaled) / half
}

// Manhattan is the L1 metric.
type Manhattan struct{}

// Distance implements Metric.
func (Manhattan) Distance(a, b Feature) float64 {
	checkDims(a, b)
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// WeightedEuclidean weights each coordinate before taking the L2 norm,
// giving higher-order model coefficients more influence (paper §2.2).
// A weight vector w yields d(a,b) = sqrt(Σ w_i (a_i-b_i)²). All weights
// must be strictly positive for the result to be a metric.
type WeightedEuclidean struct {
	Weights []float64
}

// NewWeightedEuclidean returns a WeightedEuclidean metric over the given
// weights. It panics if any weight is not strictly positive.
func NewWeightedEuclidean(weights ...float64) WeightedEuclidean {
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("metric: weight %d = %v must be positive and finite", i, w))
		}
	}
	ws := make([]float64, len(weights))
	copy(ws, weights)
	return WeightedEuclidean{Weights: ws}
}

// Distance implements Metric.
func (m WeightedEuclidean) Distance(a, b Feature) float64 {
	checkDims(a, b)
	if len(a) != len(m.Weights) {
		panic(fmt.Sprintf("metric: feature dimension %d does not match %d weights", len(a), len(m.Weights)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += m.Weights[i] * d * d
	}
	if sum <= math.MaxFloat64 {
		return math.Sqrt(sum)
	}
	return overflowNorm(a, b, sum, m.Weights)
}

// Scalar treats one-dimensional features as plain numbers: d(a,b) = |a-b|.
// It is the natural metric for the elevation dataset, where the feature is
// the terrain height at the sensor.
type Scalar struct{}

// Distance implements Metric.
func (Scalar) Distance(a, b Feature) float64 {
	checkDims(a, b)
	if len(a) != 1 {
		panic(fmt.Sprintf("metric: Scalar requires 1-dimensional features, got %d", len(a)))
	}
	return math.Abs(a[0] - b[0])
}

// Matrix is a precomputed pairwise distance table, useful in tests that
// specify a metric directly (for example the paper's Fig 3 example). It is
// indexed by integer node ids stored in the single coordinate of each
// feature.
type Matrix struct {
	D [][]float64
}

// Distance implements Metric. Features must be 1-dimensional and hold the
// integer node index.
func (m Matrix) Distance(a, b Feature) float64 {
	i, j := int(a[0]), int(b[0])
	return m.D[i][j]
}

func checkDims(a, b Feature) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: dimension mismatch %d vs %d", len(a), len(b)))
	}
}

// VerifyMetric exercises the metric axioms over the given sample features
// and returns an error describing the first violation found, or nil. eps
// absorbs floating-point slack in the triangle inequality. It is used by
// property tests and by callers wiring in custom metrics.
//
//elink:allow deadexport — the metric-axiom oracle that tests of two packages share
func VerifyMetric(m Metric, samples []Feature, eps float64) error {
	n := len(samples)
	for i := 0; i < n; i++ {
		if d := m.Distance(samples[i], samples[i]); d != 0 {
			return fmt.Errorf("identity violated: d(x%d,x%d) = %v, want 0", i, i, d)
		}
		for j := i + 1; j < n; j++ {
			dij := m.Distance(samples[i], samples[j])
			dji := m.Distance(samples[j], samples[i])
			if dij < 0 {
				return fmt.Errorf("positivity violated: d(x%d,x%d) = %v", i, j, dij)
			}
			if math.Abs(dij-dji) > eps {
				return fmt.Errorf("symmetry violated: d(x%d,x%d)=%v, d(x%d,x%d)=%v", i, j, dij, j, i, dji)
			}
			for k := 0; k < n; k++ {
				dik := m.Distance(samples[i], samples[k])
				dkj := m.Distance(samples[k], samples[j])
				if dij > dik+dkj+eps {
					return fmt.Errorf("triangle inequality violated: d(x%d,x%d)=%v > d(x%d,x%d)+d(x%d,x%d)=%v",
						i, j, dij, i, k, k, j, dik+dkj)
				}
			}
		}
	}
	return nil
}
