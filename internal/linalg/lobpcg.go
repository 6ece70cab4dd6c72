package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"elink/internal/par"
)

// ErrNoConvergence reports that an iterative eigensolver exhausted its
// iteration budget with at least one requested pair above tolerance.
// Solvers return their best-effort result alongside the error (a
// *ConvergenceError wrapping this sentinel, carrying the residuals), so
// callers choose between failing hard and accepting a documented
// tolerance — the silent-garbage fallthrough this sentinel replaced is
// no longer possible.
var ErrNoConvergence = errors.New("linalg: eigensolver did not converge")

// ConvergenceError carries residual diagnostics for an unconverged
// solve. It wraps ErrNoConvergence, so errors.Is(err, ErrNoConvergence)
// selects it.
type ConvergenceError struct {
	// Residuals holds the 2-norm of A v - λ v for each requested pair.
	Residuals []float64
	// Tol is the relative tolerance the solve was run under.
	Tol float64
	// Iters is the number of iterations performed.
	Iters int
}

func (e *ConvergenceError) Error() string {
	worst := 0.0
	for _, r := range e.Residuals {
		if r > worst {
			worst = r
		}
	}
	return fmt.Sprintf("linalg: eigensolver did not converge after %d iterations (worst residual %.3g, tol %.3g)",
		e.Iters, worst, e.Tol)
}

// Unwrap makes errors.Is(err, ErrNoConvergence) hold for a
// ConvergenceError.
//
//elink:allow deadexport — errors.Is finds Unwrap through an interface it never names
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// BottomKResult is a bottom-k eigensolve outcome. It is returned even
// when the solve fails to converge, so residual diagnostics survive.
type BottomKResult struct {
	// Values are the k smallest eigenvalues, ascending.
	Values []float64
	// Vectors holds the matching eigenvectors as columns (n x k).
	Vectors *Matrix
	// Residuals are the 2-norms ||L v - λ v||₂ per returned pair.
	Residuals []float64
	// Iters is the number of LOBPCG iterations performed (0 for the
	// dense fallback).
	Iters int
	// CoarseLevels is the depth of the coarse-grid warm-start hierarchy
	// used to seed the block (0 = seeded-random start).
	CoarseLevels int
}

// denseBottomKLimit is the size up to which a rank-deficient block (k
// too large relative to n) falls back to one dense EigenSym
// decomposition instead of failing; beyond it the densification would
// defeat the sparse engine's purpose, so the solve errors instead.
const denseBottomKLimit = 2048

// coarseStartMinN is the size below which the warm start stops
// recursing and draws the block from the seeded generator instead: at a
// few hundred vertices a coarse level costs more in solve overhead than
// the iterations it saves. A variable so tests can force a random start.
var coarseStartMinN = 600

// maxIters caps a fine-level solve's LOBPCG iterations. A variable so
// tests can starve a solve.
var maxIters = 500

// Coarse-level solve budget: each hierarchy level refines its prolonged
// block only far enough to seed the next-finer level (the fine solve
// does the real converging), and a level whose matching stalls —
// shrinking the graph by less than 1/8 — aborts the recursion rather
// than stacking near-identical levels.
const (
	coarseWarmTol     = 1e-3
	coarseWarmMaxIter = 30
	coarseMaxLevels   = 32
)

// EigenBottomK computes the k smallest-eigenvalue eigenpairs of the
// symmetric matrix using preconditioned LOBPCG (locally optimal block
// preconditioned conjugate gradient, Knyazev's formulation) with full
// reorthogonalization of the Rayleigh–Ritz basis every iteration. The
// residual block is preconditioned each iteration by a Chebyshev
// semi-iteration and, from coarseStartMinN vertices up, the starting
// block is prolonged from a coarse-grid solve over a deterministic
// heavy-edge-matching hierarchy. Pair i is converged when
// ||L v - λ v||₂ <= tol·(|λ| + 1); tol must be positive and finite.
// Eigenvalues come back ascending; for a normalized graph Laplacian the
// returned vectors are the NJW spectral embedding, and a zero eigenvalue
// of multiplicity m (one per connected component) is resolved exactly as
// long as the block is at least m wide — the block carries up to k+8
// vectors.
//
// Determinism: every arithmetic reduction (dot products, Gram–Schmidt,
// the projected dense eigensolve) runs in a fixed serial order; only
// independent per-column and fixed-chunk per-row computations fan out
// over internal/par, writing caller-owned slots. Results are therefore
// bitwise identical for every worker count, and depend only on the
// matrix, tol, and the supplied generator.
//
// The steady-state iteration loop runs against workspace allocated once
// per solve: at one worker it performs no allocations at all (pinned by
// AllocsPerRun regression tests), and the matrix is streamed once per
// block operation through CSR.MulVecs rather than once per column.
//
// On iteration-budget exhaustion the best-effort result is returned
// together with a *ConvergenceError (wrapping ErrNoConvergence) carrying
// the per-pair residuals — never silently. A bad k or tol, a non-finite
// matrix entry, or a projected eigensolve that fails, is an error with
// no result.
func (c *CSR) EigenBottomK(k int, tol float64, rng *rand.Rand) (*BottomKResult, error) {
	n := c.N
	if k <= 0 {
		return nil, fmt.Errorf("linalg: EigenBottomK requires k >= 1, got %d", k)
	}
	if !(tol > 0) || math.IsInf(tol, 1) {
		return nil, fmt.Errorf("linalg: EigenBottomK requires a finite tol > 0, got %v", tol)
	}
	if k > n {
		k = n
	}
	for r := 0; r < n; r++ {
		for _, v := range c.Vals[c.RowPtr[r]:c.RowPtr[r+1]] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("linalg: EigenBottomK: non-finite entry %v in row %d", v, r)
			}
		}
	}
	b := k + 8
	if b > (n-1)/3 {
		b = (n - 1) / 3 // keep the 3b-wide Rayleigh–Ritz basis well under n
	}
	if n <= 64 || b <= k {
		if n > denseBottomKLimit {
			return nil, fmt.Errorf("linalg: EigenBottomK: k=%d too large for sparse solve at n=%d (would densify)", k, n)
		}
		return c.denseBottomK(k)
	}

	pre := newChebyshev(c)
	st := newLobpcgState(c, b, pre)
	levels, err := fillWarmStart(c, st.x, rng, pre, 0)
	if err != nil {
		return nil, err
	}
	orthonormalize(st.x)

	iters, err := st.run(k, tol, maxIters)
	if err != nil {
		return nil, err
	}

	out := &BottomKResult{
		Values:       append([]float64(nil), st.lam[:k]...),
		Residuals:    append([]float64(nil), st.res[:k]...),
		Iters:        iters,
		CoarseLevels: levels,
		Vectors:      NewMatrix(n, k),
	}
	for j := 0; j < k; j++ {
		for r := 0; r < n; r++ {
			out.Vectors.Set(r, j, st.x[j][r])
		}
	}
	for j := 0; j < k; j++ {
		if st.res[j] > tol*(math.Abs(st.lam[j])+1) {
			return out, &ConvergenceError{Residuals: out.Residuals, Tol: tol, Iters: iters}
		}
	}
	return out, nil
}

// fillRandom draws the starting block column by column in a fixed order,
// so the start depends only on the generator state.
func fillRandom(x [][]float64, rng *rand.Rand) {
	for j := range x {
		for r := range x[j] {
			x[j][r] = rng.NormFloat64()
		}
	}
}

// fillWarmStart seeds x with eigenvector estimates prolonged from a
// coarse-grid solve: the graph is shrunk by deterministic heavy-edge
// matching, the coarse problem is warm-started the same way
// (recursively), refined by a short coarse-tolerance LOBPCG run, and
// lifted back through the orthonormal aggregation prolongator. The
// generator is consumed only at the bottom of the recursion, in the same
// fixed column order as a direct random start. Returns the hierarchy
// depth (0 = the block is random: the matrix was already small, the
// matching stalled, or the coarse graph is too small to host the block),
// or the error of a failed coarse solve.
func fillWarmStart(c *CSR, x [][]float64, rng *rand.Rand, pre *chebPrecond, depth int) (int, error) {
	b := len(x)
	if c.N >= coarseStartMinN && depth < coarseMaxLevels {
		lvl := coarsen(c)
		nc := lvl.op.N
		if nc > 3*b+1 && nc <= c.N-c.N/8 {
			cpre := pre.forCoarse(lvl.op)
			cst := newLobpcgState(lvl.op, b, cpre)
			levels, err := fillWarmStart(lvl.op, cst.x, rng, cpre, depth+1)
			if err != nil {
				return 0, err
			}
			orthonormalize(cst.x)
			if _, err := cst.run(b, coarseWarmTol, coarseWarmMaxIter); err != nil {
				return 0, err
			}
			lvl.prolong(cst.x, x)
			return levels + 1, nil
		}
	}
	fillRandom(x, rng)
	return 0, nil
}

// lobpcgState is one solve's workspace: every block, projected-problem
// buffer, and chunk-body closure the iteration loop touches is allocated
// here once, so the loop itself is allocation-free in steady state. The
// chunk bodies are bound method values stored in fields — handing a
// field to the execution layer allocates nothing, where a fresh closure
// per call would. A nil pre runs the loop unpreconditioned (the tests'
// reference).
type lobpcgState struct {
	c   *CSR
	pre *chebPrecond
	n   int
	b   int

	x, xalt [][]float64 // current / next eigenvector block (pointer ping-pong)
	ax      [][]float64 // L·x
	w       [][]float64 // residual block, preconditioned in place
	p, palt [][]float64 // conjugate-direction pools (pointer ping-pong)
	plen    int         // live columns in p
	s       [][]float64 // Rayleigh–Ritz basis headers (pointers into x/w/p)
	as      [][]float64 // L·s storage, 3b columns
	dropped [][]float64 // orthonormalizeKeepAll spill: up to 2b columns

	lam, res []float64

	// The projected problem, m×m row-major in t: T = Sᵀ (L S) on entry
	// to the solve, its eigenvectors as rows after it (Ritz vector j is
	// t[j*m : j*m+m], eigenvalue evals[j]). e is the solver's scratch.
	m        int // current basis size (len(s))
	t        []float64
	evals, e []float64
	order    []int // ascending-eigenvalue permutation of evals

	fRayleigh, fGram, fCompose, fConjugate func(lo, hi int)
}

func newLobpcgState(c *CSR, b int, pre *chebPrecond) *lobpcgState {
	n := c.N
	st := &lobpcgState{
		c: c, pre: pre, n: n, b: b,
		x:       newBlock(b, n),
		xalt:    newBlock(b, n),
		ax:      newBlock(b, n),
		w:       newBlock(b, n),
		p:       newBlock(b, n),
		palt:    newBlock(b, n),
		s:       make([][]float64, 0, 3*b),
		as:      newBlock(3*b, n),
		dropped: make([][]float64, 0, 2*b),
		lam:     make([]float64, b),
		res:     make([]float64, b),
		t:       make([]float64, 3*b*3*b),
		evals:   make([]float64, 3*b),
		e:       make([]float64, 3*b),
		order:   make([]int, 3*b),
	}
	st.fRayleigh = st.rayleighCols
	st.fGram = st.gramRows
	st.fCompose = st.composeCols
	st.fConjugate = st.conjugateCols
	return st
}

// fan runs a chunk body over [0, n): inline at one worker (the
// zero-alloc path), otherwise over internal/par's fixed-grain chunk
// layout. Both paths execute identical per-element arithmetic, so the
// results are bitwise independent of the worker count.
func fan(n int, body func(lo, hi int)) {
	if par.Workers() == 1 {
		body(0, n)
		return
	}
	par.Chunks(n, 1, body)
}

// run drives the LOBPCG iteration until the first k pairs converge at
// tol or maxIter is exhausted, starting from the orthonormal block in
// st.x. On return st.x/st.lam/st.res hold the best pairs in ascending
// eigenvalue order; the return value is the iteration count. A failed
// projected eigensolve stops the iteration with its error.
func (st *lobpcgState) run(k int, tol float64, maxIter int) (int, error) {
	b := st.b
	st.c.MulVecs(st.x, st.ax)
	for iter := 1; iter <= maxIter; iter++ {
		// Rayleigh quotients and raw residuals on the current orthonormal
		// X; convergence is judged on the unpreconditioned residual norms
		// (a NaN residual never counts as converged).
		fan(b, st.fRayleigh)
		done := true
		for j := 0; j < k; j++ {
			if !(st.res[j] <= tol*(math.Abs(st.lam[j])+1)) {
				done = false
				break
			}
		}
		if done {
			return iter, nil
		}
		if iter == maxIter {
			break
		}

		// W = M⁻¹ R: the preconditioned residual enters the trial basis
		// (Knyazev's formulation).
		if st.pre != nil {
			st.pre.apply(st.w)
		}

		// Rayleigh–Ritz basis S = [X | W | P], fully reorthogonalized by
		// modified Gram–Schmidt; collapsed directions past X are dropped
		// (the span is what matters, and dropping is deterministic). s
		// holds pointers into the x/w/p pools — their contents are
		// consumed here and rebuilt next iteration, so mutating them is
		// free.
		st.s = append(st.s[:0], st.x...)
		st.s = append(st.s, st.w...)
		st.s = append(st.s, st.p[:st.plen]...)
		m := orthonormalizeKeepAll(st.s, b, &st.dropped)
		st.s = st.s[:m]
		st.m = m

		st.c.MulVecs(st.s, st.as[:m])

		// T = Sᵀ (L S): row i writes (i, j>=i) and mirrors — disjoint
		// across i, serial within a row.
		fan(m, st.fGram)

		// Projected eigensolve, serial and in place; the permutation
		// orders Ritz values ascending.
		if err := symEigenQL(st.t[:m*m], m, st.evals[:m], st.e[:m]); err != nil {
			return iter, fmt.Errorf("linalg: EigenBottomK: projected eigensolve at iteration %d: %w", iter, err)
		}
		for i := 0; i < m; i++ {
			st.order[i] = i
		}
		sortOrderAscending(st.order[:m], st.evals[:m])

		// New block from the smallest-b Ritz rotations, then conjugate
		// directions P = X' - X (Xᵀ X') from the outgoing X.
		fan(b, st.fCompose)
		fan(b, st.fConjugate)
		st.plen = orthonormalizeKeepAll(st.palt, 0, &st.dropped)
		st.p, st.palt = st.palt, st.p
		st.x, st.xalt = st.xalt, st.x
		orthonormalize(st.x)
		st.c.MulVecs(st.x, st.ax)
	}

	// Budget exhausted: lam/res were refreshed for the final block at the
	// top of the last iteration; order the pairs so this exit reports
	// them like a converged one would.
	sortPairsAscending(st.x, st.lam, st.res, b)
	return maxIter, nil
}

// rayleighCols computes λ_j = x_jᵀ (L x_j), the residual column
// w_j = (L x_j) - λ_j x_j, and its 2-norm for block columns [lo, hi).
// Columns are independent and each one's arithmetic is serial.
func (st *lobpcgState) rayleighCols(lo, hi int) {
	for j := lo; j < hi; j++ {
		xj, axj, wj := st.x[j], st.ax[j], st.w[j]
		lam := dot(xj, axj)
		var rr float64
		for r := range xj {
			d := axj[r] - lam*xj[r]
			wj[r] = d
			rr += d * d
		}
		st.lam[j] = lam
		st.res[j] = math.Sqrt(rr)
	}
}

// gramRows fills rows [lo, hi) of the projected matrix T = Sᵀ (L S),
// writing (i, j>=i) and the mirror cell — each cell owned by exactly one
// row chunk. Four cells share one pass over s_i, each with its own
// index-order accumulator, so every cell is bitwise dot(s_i, as_j).
func (st *lobpcgState) gramRows(lo, hi int) {
	m, data := st.m, st.t
	for i := lo; i < hi; i++ {
		si := st.s[i]
		j := i
		for ; j+4 <= m; j += 4 {
			a0, a1, a2, a3 := st.as[j][:len(si)], st.as[j+1][:len(si)], st.as[j+2][:len(si)], st.as[j+3][:len(si)]
			var d0, d1, d2, d3 float64
			for r, v := range si {
				d0 += v * a0[r]
				d1 += v * a1[r]
				d2 += v * a2[r]
				d3 += v * a3[r]
			}
			for c, v := range [4]float64{d0, d1, d2, d3} {
				data[i*m+j+c] = v
				data[(j+c)*m+i] = v
			}
		}
		for ; j < m; j++ {
			v := dot(si, st.as[j])
			data[i*m+j] = v
			data[j*m+i] = v
		}
	}
}

// composeCols builds next-X columns [lo, hi) from the ascending-order
// Ritz vectors: xalt_j = Σ_i y_i · s_i with y the row order[j] of t.
func (st *lobpcgState) composeCols(lo, hi int) {
	m := st.m
	for j := lo; j < hi; j++ {
		y := st.t[st.order[j]*m : st.order[j]*m+m]
		dst := st.xalt[j]
		for r := range dst {
			dst[r] = 0
		}
		for i, f := range y {
			if f == 0 {
				continue
			}
			src := st.s[i]
			for r := range dst {
				dst[r] += f * src[r]
			}
		}
	}
}

// conjugateCols builds new conjugate directions for columns [lo, hi):
// the component of the new block orthogonal to the outgoing one,
// palt_j = xalt_j - Σ_i x_i (x_iᵀ xalt_j).
func (st *lobpcgState) conjugateCols(lo, hi int) {
	for j := lo; j < hi; j++ {
		dst := st.palt[j]
		copy(dst, st.xalt[j])
		for i := 0; i < st.b; i++ {
			src := st.x[i]
			f := dot(src, st.xalt[j])
			if f == 0 {
				continue
			}
			for r := range dst {
				dst[r] -= f * src[r]
			}
		}
	}
}

// denseBottomK is the small-size fallback: one dense EigenSym
// decomposition, returning the trailing (smallest) k pairs ascending.
func (c *CSR) denseBottomK(k int) (*BottomKResult, error) {
	n := c.N
	vals, vecs, err := EigenSym(c.Dense())
	if err != nil {
		return nil, err
	}
	out := &BottomKResult{
		Values:    make([]float64, k),
		Residuals: make([]float64, k),
		Vectors:   NewMatrix(n, k),
	}
	for j := 0; j < k; j++ {
		col := n - 1 - j
		out.Values[j] = vals[col]
		for r := 0; r < n; r++ {
			out.Vectors.Set(r, j, vecs.At(r, col))
		}
	}
	return out, nil
}

func newBlock(cols, n int) [][]float64 {
	b := make([][]float64, cols)
	for j := range b {
		b[j] = make([]float64, n)
	}
	return b
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// orthonormalize runs modified Gram–Schmidt over the block's columns,
// re-randomizing any column that collapses to (numerical) zero.
func orthonormalize(q [][]float64) {
	for c := 0; c < len(q); c++ {
		for prev := 0; prev < c; prev++ {
			f := dot(q[prev], q[c])
			for r := range q[c] {
				q[c][r] -= f * q[prev][r]
			}
		}
		norm := math.Sqrt(dot(q[c], q[c]))
		if norm < 1e-12 {
			// Deterministic re-seed: unit vector on coordinate c keeps the
			// block full rank without consuming external randomness.
			for r := range q[c] {
				q[c][r] = 0
			}
			q[c][c%len(q[c])] = 1
			for prev := 0; prev < c; prev++ {
				f := dot(q[prev], q[c])
				for r := range q[c] {
					q[c][r] -= f * q[prev][r]
				}
			}
			norm = math.Sqrt(dot(q[c], q[c]))
			if norm < 1e-12 {
				norm = 1
			}
		}
		inv := 1 / norm
		for r := range q[c] {
			q[c][r] *= inv
		}
	}
}

// mgsProject runs one modified Gram–Schmidt step: it subtracts from col
// its component along each orthonormal basis column in turn (skipping a
// zero coefficient) and returns col's squared norm afterwards. The pass
// that applies basis[i] also computes the next coefficient — the dot
// against basis[i+1], or the squared norm after the last — from the
// updated entries, and every sum accumulates in index order, so the
// result is bitwise that of separate dot, axpy and norm passes with one
// fewer sweep over col per basis column.
func mgsProject(basis [][]float64, col []float64) float64 {
	if len(basis) == 0 {
		return dot(col, col)
	}
	f := dot(basis[0], col)
	for i, prev := range basis {
		next := col
		if i+1 < len(basis) {
			next = basis[i+1][:len(col)]
		}
		if f == 0 {
			f = dot(next, col)
			continue
		}
		prev = prev[:len(col)]
		var s float64
		for r, p := range prev {
			v := col[r] - f*p
			col[r] = v
			s += next[r] * v
		}
		f = s
	}
	return f
}

// orthonormalizeKeepAll runs modified Gram–Schmidt over the columns,
// dropping any column whose remainder collapses below tolerance instead
// of re-seeding it (the basis is allowed to shrink). The first keep
// columns are never dropped (pass 0 to allow dropping everywhere); they
// are assumed linearly independent, as the orthonormal X block is. Kept
// columns compact to the front of q while the dropped columns' backing
// slices are parked after them (contents unspecified), so a reused
// workspace pool never strands storage. dropScratch is the caller's
// persistent spill buffer. Returns the kept count.
func orthonormalizeKeepAll(q [][]float64, keep int, dropScratch *[][]float64) int {
	dropped := (*dropScratch)[:0]
	kept := 0
	for c := 0; c < len(q); c++ {
		col := q[c]
		norm := math.Sqrt(mgsProject(q[:kept], col))
		if norm < 1e-10 && kept >= keep {
			dropped = append(dropped, col)
			continue
		}
		if norm == 0 {
			norm = 1
		}
		inv := 1 / norm
		for r := range col {
			col[r] *= inv
		}
		q[kept] = col
		kept++
	}
	copy(q[kept:], dropped)
	*dropScratch = dropped[:0]
	return kept
}

// sortOrderAscending insertion-sorts the index permutation by ascending
// eigenvalue (stable, serial, allocation-free — the projected problem is
// at most 3b wide, where insertion sort beats sort.Slice and its
// closure/interface allocations).
func sortOrderAscending(order []int, evals []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && evals[order[j]] < evals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// sortPairsAscending orders the first b (vector, value, residual)
// triples by ascending eigenvalue with a stable insertion sort, so the
// unconverged-exit path reports pairs in the same order a converged exit
// would.
func sortPairsAscending(x [][]float64, lam, res []float64, b int) {
	for i := 1; i < b; i++ {
		for j := i; j > 0 && lam[j] < lam[j-1]; j-- {
			lam[j], lam[j-1] = lam[j-1], lam[j]
			res[j], res[j-1] = res[j-1], res[j]
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
