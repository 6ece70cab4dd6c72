package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestHeavyEdgeMatchProperties: the matching is a valid involution (i and
// match[i] point at each other), matched pairs share an edge, and on a
// path graph the ascending greedy sweep pairs (0,1)(2,3)... exactly.
func TestHeavyEdgeMatchProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSparseSym(60)
	for e := 0; e < 150; e++ {
		i, j := rng.Intn(60), rng.Intn(60)
		if i != j {
			setOnce(s, i, j, 1+rng.Float64())
		}
	}
	c := mustFinalize(s)
	match := heavyEdgeMatch(c)
	for i, m := range match {
		if match[m] != i {
			t.Fatalf("match not symmetric: match[%d]=%d but match[%d]=%d", i, m, m, match[m])
		}
		if m != i {
			found := false
			for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
				if int(c.ColIdx[k]) == m {
					found = true
				}
			}
			if !found {
				t.Fatalf("matched pair (%d,%d) shares no edge", i, m)
			}
		}
	}

	// Path graph: deterministic (0,1)(2,3)... pairing.
	p := NewSparseSym(7)
	for i := 0; i < 6; i++ {
		p.Set(i, i+1, 1)
	}
	pm := heavyEdgeMatch(mustFinalize(p))
	want := []int{1, 0, 3, 2, 5, 4, 6} // trailing odd vertex stays single
	for i := range want {
		if pm[i] != want[i] {
			t.Fatalf("path match = %v, want %v", pm, want)
		}
	}
}

// TestCoarsenGalerkin pins the coarse operator against a dense Pᵀ L P
// reference, checks the prolongator's columns are orthonormal (so the
// coarse problem stays a standard eigenproblem), and checks prolong is
// exactly multiplication by P.
func TestCoarsenGalerkin(t *testing.T) {
	l := gridLaplacian(6, 8)
	n := l.N
	lvl := coarsen(l)
	nc := lvl.op.N
	if nc >= n || nc < n/3 {
		t.Fatalf("coarse size %d out of range for n=%d", nc, n)
	}

	// Dense prolongator from the aggregate map.
	p := NewMatrix(n, nc)
	for i := 0; i < n; i++ {
		p.Set(i, lvl.coarse[i], lvl.scale[lvl.coarse[i]])
	}
	// PᵀP = I (orthonormal columns).
	for a := 0; a < nc; a++ {
		for b := 0; b < nc; b++ {
			var v float64
			for r := 0; r < n; r++ {
				v += p.At(r, a) * p.At(r, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(v-want) > 1e-12 {
				t.Fatalf("PᵀP[%d,%d] = %v, want %v", a, b, v, want)
			}
		}
	}
	// Lc = Pᵀ L P.
	ld := l.Dense()
	want := NewMatrix(nc, nc)
	for a := 0; a < nc; a++ {
		for b := 0; b < nc; b++ {
			var v float64
			for r := 0; r < n; r++ {
				for cc := 0; cc < n; cc++ {
					v += p.At(r, a) * ld.At(r, cc) * p.At(cc, b)
				}
			}
			want.Set(a, b, v)
		}
	}
	if d := lvl.op.Dense().MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("Galerkin operator differs from dense PᵀLP by %v", d)
	}
	// Coarse rows stay sorted and duplicate-free (the CSR contract).
	for i := 0; i < nc; i++ {
		cols := lvl.op.ColIdx[lvl.op.RowPtr[i]:lvl.op.RowPtr[i+1]]
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("coarse row %d not strictly sorted: %v", i, cols)
			}
		}
	}

	// prolong == multiply by P.
	cv := newBlock(2, nc)
	fillRandom(cv, rand.New(rand.NewSource(4)))
	fv := newBlock(2, n)
	lvl.prolong(cv, fv)
	for j := range fv {
		for i := 0; i < n; i++ {
			var v float64
			for a := 0; a < nc; a++ {
				v += p.At(i, a) * cv[j][a]
			}
			if math.Abs(fv[j][i]-v) > 1e-14 {
				t.Fatalf("prolong[%d][%d] = %v, want %v", j, i, fv[j][i], v)
			}
		}
	}
}

// TestCoarsenDeterministic: two coarsenings of the same matrix are
// structurally identical — the warm-start hierarchy depends only on the
// matrix.
func TestCoarsenDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewSparseSym(200)
	for e := 0; e < 700; e++ {
		i, j := rng.Intn(200), rng.Intn(200)
		if i != j {
			setOnce(s, i, j, rng.Float64())
		}
	}
	c := mustFinalize(s)
	a, b := coarsen(c), coarsen(c)
	if a.op.N != b.op.N {
		t.Fatalf("coarse sizes differ: %d vs %d", a.op.N, b.op.N)
	}
	for i := range a.coarse {
		if a.coarse[i] != b.coarse[i] {
			t.Fatalf("aggregate map differs at %d", i)
		}
	}
	for k := range a.op.Vals {
		if a.op.Vals[k] != b.op.Vals[k] || a.op.ColIdx[k] != b.op.ColIdx[k] {
			t.Fatalf("coarse operator differs at entry %d", k)
		}
	}
}
