package elink

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"elink/internal/cluster"
	"elink/internal/data"
	"elink/internal/metric"
	"elink/internal/sim"
	"elink/internal/topology"
)

// freshCopy returns a graph over g's positions and edges that has never
// built a quadtree.
func freshCopy(g *topology.Graph) *topology.Graph {
	adj := make([][]topology.NodeID, g.N())
	for u := range adj {
		adj[u] = slices.Clone(g.Adj[u])
	}
	return &topology.Graph{Pos: slices.Clone(g.Pos), Adj: adj}
}

// outcome is everything one configuration's Run and TxPerNode report.
type outcome struct {
	res    *cluster.Result
	runErr string
	tx     []int64
	txErr  string
}

func runBoth(g *topology.Graph, cfg Config) outcome {
	var o outcome
	res, err := Run(g, cfg)
	o.res = res
	if err != nil {
		o.runErr = err.Error()
	}
	tx, err := TxPerNode(g, cfg)
	o.tx = tx
	if err != nil {
		o.txErr = err.Error()
	}
	return o
}

// TestReusedGraphMatchesFreshGraph runs every configuration twice: on one
// graph whose quadtree, leader buckets and wave paths every earlier run
// already built, and on a freshly built copy of it. Result (clustering,
// Stats, Breakdown, Time) and TxPerNode must be identical, for δ 0, a
// random δ and +Inf, all three modes, unit and uniform random delay, and
// with and without loss, on random geometric graphs and on the Death
// Valley network.
func TestReusedGraphMatchesFreshGraph(t *testing.T) {
	type instance struct {
		name  string
		g     *topology.Graph
		feats []metric.Feature
		m     metric.Metric
		delta float64 // the random δ
	}
	rng := rand.New(rand.NewSource(37))
	var cases []instance
	for trial := 0; trial < 3; trial++ {
		g := topology.RandomGeometricForDegree(30+rng.Intn(120), 3+rng.Float64()*3, rng)
		feats := make([]metric.Feature, g.N())
		for i := range feats {
			feats[i] = metric.Feature{rng.NormFloat64() * 2}
		}
		cases = append(cases, instance{fmt.Sprintf("rgg%d", trial), g, feats, metric.Scalar{}, 0.5 + rng.Float64()*4})
	}
	ds, err := data.DeathValley(data.DeathValleyConfig{Nodes: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, instance{"deathvalley", ds.Graph, ds.Features, ds.Metric, 25 + rng.Float64()*300})

	for _, tc := range cases {
		for _, delta := range []float64{0, tc.delta, math.Inf(1)} {
			for _, mode := range []Mode{Explicit, Implicit, Unordered} {
				for _, delay := range []sim.DelayModel{nil, sim.UniformDelay{Min: 0.1, Max: 2.5}} {
					for _, loss := range []float64{0, 0.05} {
						cfg := Config{Delta: delta, Metric: tc.m, Features: tc.feats, Mode: mode,
							Delay: delay, Loss: loss, Seed: 7}
						reused := runBoth(tc.g, cfg)
						fresh := runBoth(freshCopy(tc.g), cfg)
						if !reflect.DeepEqual(reused, fresh) {
							t.Fatalf("%s δ %v %v delay %v loss %v: reused graph gives %+v, fresh graph %+v",
								tc.name, delta, mode, delay, loss, reused, fresh)
						}
					}
				}
			}
		}
	}
}

// TestAddEdgeDropsLayout adds a shortcut after an explicit run has laid
// the wave paths. The next run must match a run on a fresh graph that was
// built with the shortcut, and every laid path must be the shortest
// route over the new edge set.
func TestAddEdgeDropsLayout(t *testing.T) {
	g := topology.NewGrid(8, 8)
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{float64(i % 5)}
	}
	cfg := Config{Delta: 2, Metric: metric.Scalar{}, Features: feats, Mode: Explicit}
	before := runBoth(g, cfg)
	if before.runErr != "" {
		t.Fatal(before.runErr)
	}

	g.AddEdge(0, 63)
	want := freshCopy(g)
	if got, fresh := runBoth(g, cfg), runBoth(want, cfg); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("after AddEdge the run gives %+v, a fresh graph with the edge %+v", got, fresh)
	} else if reflect.DeepEqual(got, before) {
		t.Fatal("the shortcut changed no run; the test cannot tell a stale layout from a fresh one")
	}
	qt := g.Quadtree()
	for c := range qt.Cells {
		for _, path := range [][]topology.NodeID{qt.UpPath(c), qt.DownPath(c)} {
			if len(path) == 0 {
				continue
			}
			if sp := g.ShortestPath(path[0], path[len(path)-1]); !slices.Equal(path, sp) {
				t.Fatalf("cell %d laid path %v, ShortestPath %v", c, path, sp)
			}
		}
	}
}

// TestConcurrentFirstUse runs explicit ELink from eight goroutines on one
// graph that has not built its quadtree yet, so they race to build it and
// to lay its paths. Every result must equal a run on a separate graph.
func TestConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := topology.RandomGeometricForDegree(300, 5, rng)
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{rng.NormFloat64() * 2}
	}
	cfg := Config{Delta: 1.5, Metric: metric.Scalar{}, Features: feats, Mode: Explicit}
	want, err := Run(freshCopy(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*cluster.Result, 8)
	errs := make([]error, len(results))
	done := make(chan int)
	for i := range results {
		go func() {
			results[i], errs[i] = Run(g, cfg)
			done <- i
		}()
	}
	for range results {
		<-done
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("goroutine %d: %+v, want %+v", i, res, want)
		}
	}
}
