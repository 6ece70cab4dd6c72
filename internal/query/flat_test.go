package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/topology"
)

// looseGeometric places n nodes on a sparse square and links pairs
// within radius, without stitching the pieces together, so the network
// (and the backbone over it) usually falls into several components.
func looseGeometric(n int, radius float64, rng *rand.Rand) *topology.Graph {
	side := math.Sqrt(float64(n)) * 1.6
	pos := make([]topology.Point, n)
	for i := range pos {
		pos[i] = topology.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	g := topology.NewGraph(pos)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[i].Dist(pos[j]) <= radius {
				g.AddEdge(topology.NodeID(i), topology.NodeID(j))
			}
		}
	}
	return g
}

// randomFeature draws a feature of the given dimension around one of a
// few bands, so that whole clusters and subtrees prune both ways.
func randomFeature(rng *rand.Rand, dim int) metric.Feature {
	f := make(metric.Feature, dim)
	band := float64(rng.Intn(4)) * 3
	for i := range f {
		f[i] = band + rng.NormFloat64()*0.6
	}
	return f
}

// TestQueriesMatchReference checks the flat-array Range and Path against
// the map-based references over random geometric networks — connected
// and fragmented — with random clusterings and roots, on indexes from
// Build and from a rebuild over the index's own Clustering. Whole
// results must be deeply equal: matches, path, every per-kind charge and
// the pruning counters.
func TestQueriesMatchReference(t *testing.T) {
	multiComponent := 0
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(trial))
		n := 10 + rng.Intn(110)
		var g *topology.Graph
		if trial%2 == 0 {
			g = looseGeometric(n, 0.8+rng.Float64()*0.8, rng)
		} else {
			g = topology.RandomGeometricForDegree(n, 2+rng.Float64()*4, rng)
		}
		dim := 1 + rng.Intn(2)
		var m metric.Metric = metric.Euclidean{}
		if dim == 1 && rng.Intn(2) == 0 {
			m = metric.Scalar{}
		}
		feats := make([]metric.Feature, n)
		labels := make([]int, n)
		k := 1 + rng.Intn(12)
		for u := range feats {
			feats[u] = randomFeature(rng, dim)
			labels[u] = rng.Intn(k)
		}
		c := cluster.FromAssignment(labels).SplitDisconnected(g)
		for ci, mem := range c.Members {
			c.Roots[ci] = mem[rng.Intn(len(mem))]
		}
		built, err := index.Build(g, c, feats, m)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := index.Build(g, built.Clustering(), feats, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(built.Rooted.CompHops) > 1 {
			multiComponent++
		}
		for _, idx := range []*index.Index{built, restored} {
			ri := newRefIndex(idx)
			for q := 0; q < 40; q++ {
				feat := randomFeature(rng, dim)
				r := rng.Float64() * 4
				switch rng.Intn(8) {
				case 0:
					r = 0
				case 1:
					r = 1e6
				}
				init := topology.NodeID(rng.Intn(n))
				if got, want := Range(idx, feat, r, init, nil), rangeRef(ri, feat, r, init); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Range(%v, %v, %d)\n got %+v\nwant %+v", trial, feat, r, init, got, want)
				}
				gamma := rng.Float64() * 4
				src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
				if got, want := Path(idx, feat, gamma, src, dst, nil), pathRef(ri, feat, gamma, src, dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Path(%v, %v, %d, %d)\n got %+v\nwant %+v", trial, feat, gamma, src, dst, got, want)
				}
			}
		}
	}
	if multiComponent < 10 {
		t.Errorf("only %d of 60 networks had a multi-component backbone", multiComponent)
	}
}

// TestQueriesConcurrent runs range and path queries from several
// goroutines at once against one index, as the streaming engine's
// readers do, and checks each against its serial answer: the pooled
// scratch must never be shared between two queries in flight.
func TestQueriesConcurrent(t *testing.T) {
	idx := rangeFixture400(t)
	n := idx.Graph.N()
	type want struct {
		r *RangeResult
		p *PathResult
	}
	wants := make([]want, 64)
	for i := range wants {
		u := topology.NodeID(i * 7 % n)
		wants[i] = want{
			Range(idx, metric.Feature{float64(i % 20)}, 1.5, u, nil),
			Path(idx, metric.Feature{float64(i % 20)}, 2, u, topology.NodeID((i*131+5)%n), nil),
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for j := range wants {
					i := (j + w*16) % len(wants)
					u := topology.NodeID(i * 7 % n)
					r := Range(idx, metric.Feature{float64(i % 20)}, 1.5, u, nil)
					p := Path(idx, metric.Feature{float64(i % 20)}, 2, u, topology.NodeID((i*131+5)%n), nil)
					if !reflect.DeepEqual(r, wants[i].r) || !reflect.DeepEqual(p, wants[i].p) {
						errs <- fmt.Sprintf("worker %d: query %d differs from its serial answer", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
