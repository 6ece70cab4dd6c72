package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"elink"
	"elink/internal/detrand"
)

// dvConfig sizes the dv-paper workload. The paper's network has 2500
// nodes; one cycle clusters it at the ends of the paper's δ range (a
// full six-δ sweep takes ~25 s on a 2-core host, longer than a run).
type dvConfig struct {
	nodes        int
	deltas       []float64
	rangeQueries int // per δ
	pathQueries  int // per δ
}

var dvPaperConfig = dvConfig{nodes: 2500, deltas: []float64{50, 400}, rangeQueries: 50, pathQueries: 10}

func dvPaper(r *run) error { return runDV(r, dvPaperConfig) }

// dvQuery is one pre-drawn query: a range query around a node's feature,
// or a path query between two nodes away from the valley floor.
type dvQuery struct {
	node, initiator int
	radiusFrac      float64
	src, dst        int
	gamma           float64
}

// valleyFloor is the danger feature of the path queries: the lowest
// terrain, as in the path-query figure.
var valleyFloor = elink.Feature{175}

func runDV(r *run, c dvConfig) error {
	var ds *elink.Dataset
	var setups []float64
	for i := 0; i < 15; i++ {
		d, err := r.untimed("data.generate", func() (err error) {
			ds, err = elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: c.nodes, Seed: r.opts.seed})
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		r.add("data.gen_s", d.Seconds())
	}
	r.set("setup_s", median(setups))

	rng := detrand.New(r.opts.seed)
	n := ds.Graph.N()
	ranges := make([]dvQuery, c.rangeQueries)
	for i := range ranges {
		ranges[i] = dvQuery{node: rng.Intn(n), initiator: rng.Intn(n), radiusFrac: 0.3 + 0.6*rng.Float64()}
	}
	gammas := []float64{50, 100, 200, 400}
	paths := make([]dvQuery, c.pathQueries)
	for i := range paths {
		paths[i] = dvQuery{src: rng.Intn(n), dst: rng.Intn(n), gamma: gammas[rng.Intn(len(gammas))]}
	}

	start := time.Now()
	cycles := 0
	for cycles < 1 || time.Since(start) < r.opts.seconds {
		for _, delta := range c.deltas {
			dvPoint(r, ds, delta, ranges, paths, cycles == 0)
		}
		cycles++
	}
	r.set("work_s", cycleWork(r.lat, cycles))
	return nil
}

// dvPoint runs every algorithm, the index build and the queries at one δ.
// count adds the exact message and round costs, once per run.
func dvPoint(r *run, ds *elink.Dataset, delta float64, ranges, paths []dvQuery, count bool) {
	g, feats, m := ds.Graph, ds.Features, ds.Metric
	at := "/" + strconv.FormatFloat(delta, 'g', -1, 64)
	results := make(map[string]*elink.Result)
	cluster := func(kind string, f func() (*elink.Result, error)) {
		var res *elink.Result
		r.op(kind+at, func() (err error) {
			res, err = f()
			return err
		})
		if res == nil {
			return
		}
		results[kind] = res
		r.check(func() error {
			if err := res.Clustering.Validate(g, feats, m, delta, 1e-9); err != nil {
				return fmt.Errorf("%s at δ=%v: %w", kind, delta, err)
			}
			return nil
		})
	}
	cfg := elink.Config{Delta: delta, Metric: m, Features: feats, Seed: r.opts.seed}
	implicit, explicit := cfg, cfg
	implicit.Mode, explicit.Mode = elink.Implicit, elink.Explicit
	cluster("elink.implicit", func() (*elink.Result, error) { return elink.Cluster(g, implicit) })
	var idx *elink.Index
	if impl := results["elink.implicit"]; impl != nil {
		r.op("index.build"+at, func() (err error) {
			idx, err = elink.BuildIndex(g, impl.Clustering, feats, m)
			return err
		})
		if idx != nil {
			r.check(idx.Validate)
		}
	}

	// The queries run in slices between the remaining clusterings, so
	// their latencies sample the whole δ point instead of one burst: on a
	// host whose speed changes every second or so, a single burst lands
	// wholly in a fast or a slow phase.
	rest := []struct {
		kind string
		run  func() (*elink.Result, error)
	}{
		{"elink.explicit", func() (*elink.Result, error) { return elink.Cluster(g, explicit) }},
		{"baseline.forest", func() (*elink.Result, error) {
			return elink.SpanningForestCluster(g, elink.ForestConfig{Delta: delta, Metric: m, Features: feats, Seed: r.opts.seed})
		}},
		{"baseline.hier", func() (*elink.Result, error) {
			return elink.HierarchicalCluster(g, elink.HierConfig{Delta: delta, Metric: m, Features: feats})
		}},
	}
	var rangeMsgs, pathMsgs int64
	for i := 0; i <= len(rest); i++ {
		if idx != nil {
			for _, q := range part(ranges, i, len(rest)+1) {
				target, radius := feats[q.node], q.radiusFrac*delta
				var res *elink.RangeResult
				r.op("query.range"+at, func() error {
					res = elink.RangeQuery(idx, target, radius, elink.NodeID(q.initiator))
					return nil
				})
				rangeMsgs += res.Stats.Messages
				r.check(func() error { return checkRange(feats, m, target, radius, res.Matches) })
			}
			for _, q := range part(paths, i, len(rest)+1) {
				src, dst := elink.NodeID(q.src), elink.NodeID(q.dst)
				var res *elink.PathResult
				r.op("query.path"+at, func() error {
					res = elink.PathQuery(idx, valleyFloor, q.gamma, src, dst)
					return nil
				})
				pathMsgs += res.Stats.Messages
				r.check(func() error { return checkPath(g, feats, m, valleyFloor, q.gamma, src, dst, res) })
			}
		}
		if i < len(rest) {
			cluster(rest[i].kind, rest[i].run)
		}
	}

	if !count || idx == nil {
		return
	}
	for _, kind := range []string{"elink.implicit", "elink.explicit", "baseline.forest", "baseline.hier"} {
		res := results[kind]
		if res == nil {
			continue
		}
		r.detail(kind+"_clusters"+at, float64(res.Clustering.NumClusters()), "clusters", 1)
		r.detail(kind+"_msgs"+at, float64(res.Stats.Messages), "msgs", 1)
		if strings.HasPrefix(kind, "elink.") {
			r.add("elink.msgs", float64(res.Stats.Messages))
			r.add("elink.rounds", res.Stats.Time)
			r.detail(kind+"_rounds"+at, res.Stats.Time, "rounds", 1)
		} else {
			r.add("baseline.msgs", float64(res.Stats.Messages))
		}
	}
	r.add("index.msgs", float64(idx.BuildStats.Messages))
	r.add("query.msgs", float64(rangeMsgs+pathMsgs))
	r.detail("index.build_msgs"+at, float64(idx.BuildStats.Messages), "msgs", 1)
	r.detail("query.range_msgs"+at, float64(rangeMsgs), "msgs", len(ranges))
	r.detail("query.path_msgs"+at, float64(pathMsgs), "msgs", len(paths))
}

// part returns the i-th of n nearly equal slices of xs.
func part[T any](xs []T, i, n int) []T { return xs[i*len(xs)/n : (i+1)*len(xs)/n] }

// checkRange compares a range answer with a scan over every feature.
func checkRange(feats []elink.Feature, m elink.Metric, q elink.Feature, radius float64, got []elink.NodeID) error {
	var want []elink.NodeID
	for u, f := range feats {
		if m.Distance(q, f) <= radius {
			want = append(want, elink.NodeID(u))
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("range query: %d matches, brute force finds %d", len(got), len(want))
	}
	return nil
}

// checkPath checks a path answer hop by hop — adjacent nodes, every node
// at least gamma from the danger feature, from src to dst — and that
// whether a path exists agrees with flooding the safe region.
func checkPath(g *elink.Graph, feats []elink.Feature, m elink.Metric, danger elink.Feature, gamma float64, src, dst elink.NodeID, res *elink.PathResult) error {
	flood := elink.BFSFloodPath(g, feats, m, danger, gamma, src, dst)
	if res.Found != flood.Found {
		return fmt.Errorf("path query %d→%d: found=%v, flooding says %v", src, dst, res.Found, flood.Found)
	}
	if !res.Found {
		return nil
	}
	p := res.Path
	if len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("path query %d→%d: path %v has the wrong ends", src, dst, p)
	}
	for i, u := range p {
		if m.Distance(feats[u], danger) < gamma {
			return fmt.Errorf("path query %d→%d: node %d is within %v of the danger", src, dst, u, gamma)
		}
		if i > 0 && !g.HasEdge(p[i-1], u) {
			return fmt.Errorf("path query %d→%d: hop %d→%d is not an edge", src, dst, p[i-1], u)
		}
	}
	return nil
}
