package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// refreshWave is the per-node repair that the batched Refresh replaced,
// kept as the reference: it installs f at u and climbs u's root path,
// re-aggregating each node, until the root or the first ancestor whose
// radius did not change. It returns one message per edge climbed.
func refreshWave(idx *Index, u topology.NodeID, f metric.Feature) int64 {
	idx.Features[u] = f.Clone()
	var msgs int64
	for cur := u; ; {
		old := idx.Radius[cur]
		idx.Radius[cur] = idx.coverRadius(cur)
		if idx.parent[cur] == cur || (cur != u && idx.Radius[cur] == old) {
			return msgs
		}
		msgs++
		cur = idx.parent[cur]
	}
}

// randomIndex builds an index over a random geometric graph, a random
// clustering split into connected clusters with random roots, and random
// 2-D features.
func randomIndex(t *testing.T, rng *rand.Rand) (*topology.Graph, *cluster.Clustering, []metric.Feature, *Index) {
	t.Helper()
	g := topology.RandomGeometricForDegree(10+rng.Intn(70), 2+rng.Float64()*4, rng)
	labels := make([]int, g.N())
	k := 1 + rng.Intn(8)
	for u := range labels {
		labels[u] = rng.Intn(k)
	}
	c := cluster.FromAssignment(labels).SplitDisconnected(g)
	for ci, mem := range c.Members {
		c.Roots[ci] = mem[rng.Intn(len(mem))]
	}
	feats := make([]metric.Feature, g.N())
	for u := range feats {
		feats[u] = metric.Feature{rng.NormFloat64() * 3, rng.NormFloat64()}
	}
	idx, err := Build(g, c, feats, metric.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	return g, c, feats, idx
}

// drift returns a copy of feats in which a random set of 1 to N nodes
// has new features — mostly small moves, some jumps, some unchanged —
// and that set in random order.
func drift(rng *rand.Rand, feats []metric.Feature) ([]metric.Feature, []topology.NodeID) {
	out := append([]metric.Feature(nil), feats...)
	perm := rng.Perm(len(feats))
	nodes := make([]topology.NodeID, 1+rng.Intn(len(feats)))
	for i := range nodes {
		u := perm[i]
		nodes[i] = topology.NodeID(u)
		switch rng.Intn(4) {
		case 0:
			out[u] = metric.Feature{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		case 1:
			out[u] = feats[u].Clone()
		default:
			out[u] = metric.Feature{feats[u][0] + rng.NormFloat64()*0.05, feats[u][1] + rng.NormFloat64()*0.05}
		}
	}
	return out, nodes
}

func sameRadii(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for u := range want {
		if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
			t.Fatalf("%s: radius(%d) = %v, want %v", what, u, got[u], want[u])
		}
	}
}

// TestBatchedRefreshProperty drives random drift sets through the
// batched Refresh over several epochs. Radii must stay bitwise equal to
// a fresh Build, the convergecast may cost no more than the per-node
// waves it replaced nor more than one message per tree edge, and a batch
// of one must cost exactly its wave.
func TestBatchedRefreshProperty(t *testing.T) {
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		g, c, feats, idx := randomIndex(t, rng)
		seq := idx.Clone()
		edges := int64(g.N() - len(idx.Clusters))
		for epoch := 0; epoch < 3; epoch++ {
			next, nodes := drift(rng, feats)

			one := idx.Clone()
			ref := idx.Clone()
			u := nodes[rng.Intn(len(nodes))]
			m1, err := one.Refresh([]topology.NodeID{u}, next)
			if err != nil {
				t.Fatal(err)
			}
			if w := refreshWave(ref, u, next[u]); m1 != w {
				t.Fatalf("trial %d: batch of one node %d cost %d, its wave %d", trial, u, m1, w)
			}
			sameRadii(t, "batch of one", one.Radius, ref.Radius)

			msgs, err := idx.Refresh(nodes, next)
			if err != nil {
				t.Fatal(err)
			}
			var waves int64
			for _, u := range nodes {
				waves += refreshWave(seq, u, next[u])
			}
			fresh, err := Build(g, c, next, metric.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			sameRadii(t, "batched vs Build", idx.Radius, fresh.Radius)
			sameRadii(t, "per-node waves vs Build", seq.Radius, fresh.Radius)
			if msgs > waves {
				t.Fatalf("trial %d: batch of %d cost %d, per-node waves %d", trial, len(nodes), msgs, waves)
			}
			if msgs > edges {
				t.Fatalf("trial %d: batch cost %d exceeds %d tree edges", trial, msgs, edges)
			}
			for u := range next {
				if !slices.Equal(idx.Features[u], next[u]) {
					t.Fatalf("trial %d: feature of node %d not installed", trial, u)
				}
			}
			if err := idx.Validate(); err != nil {
				t.Fatal(err)
			}
			feats = next
		}
	}
}

// TestRefreshChargesChangedSummariesOnly pins the convergecast's cost
// where per-node waves overpay: two drifting siblings share their
// parent's single report to the root.
func TestRefreshChargesChangedSummariesOnly(t *testing.T) {
	g := topology.NewGrid(2, 3) // 0 1 2 / 3 4 5
	c := cluster.FromRoots(make([]topology.NodeID, g.N()))
	feats := []metric.Feature{{0}, {0}, {0}, {0}, {0}, {0}}
	idx, err := Build(g, c, feats, metric.Scalar{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.parent[2] != 1 || idx.parent[4] != 1 || idx.parent[1] != 0 {
		t.Fatalf("unexpected BFS tree: parents of 1, 2, 4 = %d, %d, %d",
			idx.parent[1], idx.parent[2], idx.parent[4])
	}
	next := append([]metric.Feature(nil), feats...)
	next[2], next[4] = metric.Feature{3}, metric.Feature{10}
	var waves int64
	ref := idx.Clone()
	for _, u := range []topology.NodeID{2, 4} {
		waves += refreshWave(ref, u, next[u])
	}
	msgs, err := idx.Refresh([]topology.NodeID{2, 4}, next)
	if err != nil {
		t.Fatal(err)
	}
	// 2→1, 4→1 and one 1→0; the waves sent 1→0 twice.
	if msgs != 3 || waves != 4 {
		t.Errorf("cost = %d (waves %d), want 3 (waves 4)", msgs, waves)
	}
	if _, err := idx.Refresh([]topology.NodeID{6}, next); err == nil {
		t.Error("accepted a node out of range")
	}
	if _, err := idx.Refresh(nil, next[:3]); err == nil {
		t.Error("accepted a short feature slice")
	}
}

// TestCloneCopyOnWrite checks that refreshing a clone leaves the
// original's features and radii bitwise unchanged while the tree
// topology stays shared.
func TestCloneCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, _, feats, idx := randomIndex(t, rng)
	wantFeat := make([][]uint64, len(idx.Features))
	for u, f := range idx.Features {
		for _, x := range f {
			wantFeat[u] = append(wantFeat[u], math.Float64bits(x))
		}
	}
	wantRad := append([]float64(nil), idx.Radius...)

	cl := idx.Clone()
	nodes := make([]topology.NodeID, len(feats))
	next := make([]metric.Feature, len(feats))
	for u := range feats {
		nodes[u] = topology.NodeID(u)
		next[u] = metric.Feature{feats[u][0] + 10, feats[u][1] - 3}
	}
	if _, err := cl.Refresh(nodes, next); err != nil {
		t.Fatal(err)
	}
	for u, f := range idx.Features {
		for i, x := range f {
			if math.Float64bits(x) != wantFeat[u][i] {
				t.Fatalf("original feature of node %d changed", u)
			}
		}
	}
	sameRadii(t, "original after clone refresh", idx.Radius, wantRad)
	if !slices.Equal(cl.Features[0], next[0]) {
		t.Error("clone did not take the refresh")
	}
	if cl.Clusters[0] != idx.Clusters[0] || &cl.ClusterOf[0] != &idx.ClusterOf[0] {
		t.Error("clone copied the tree topology instead of sharing it")
	}
}
