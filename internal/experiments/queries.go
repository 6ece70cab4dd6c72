package experiments

import (
	"fmt"
	"math/rand"

	"elink/internal/baseline"
	"elink/internal/cluster"
	"elink/internal/data"
	"elink/internal/detrand"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/par"
	"elink/internal/query"
	"elink/internal/topology"
)

// rangeQueryCost builds an index over the clustering and averages the
// per-query cost over sc.Queries random queries: the query point is a
// uniformly sampled node's feature and the initiator a uniform node,
// matching §8.6.
//
// The query plan is drawn serially (preserving the historical rng
// order), then the queries themselves fan out over the shared execution
// layer: the index is immutable during reads (the streaming engine
// already serves it concurrently) and per-query costs land in
// index-ordered slots, so the figure is bit-identical for any -j.
func rangeQueryCost(g *topology.Graph, c *cluster.Clustering, feats []metric.Feature, m metric.Metric, r float64, queries int, rng *rand.Rand) (float64, error) {
	idx, err := index.Build(g, c, feats, m)
	if err != nil {
		return 0, err
	}
	type plan struct {
		target    metric.Feature
		initiator topology.NodeID
	}
	plans := make([]plan, queries)
	for q := range plans {
		plans[q].target = feats[rng.Intn(len(feats))]
		plans[q].initiator = topology.NodeID(rng.Intn(g.N()))
	}
	costs := make([]int64, queries)
	par.For(queries, func(q int) {
		res := query.Range(idx, plans[q].target, r, plans[q].initiator, nil)
		costs[q] = res.Stats.Messages
	})
	var total int64
	for _, c := range costs {
		total += c
	}
	return float64(total) / float64(queries), nil
}

// rangeFigure produces a Fig 14/15-style table on the given dataset.
func rangeFigure(ds *data.Dataset, delta float64, fractions []float64, sc Scale, title string) (*Table, error) {
	g, m := ds.Graph, ds.Metric
	clusterings := make(map[string]*cluster.Clustering)

	el, err := elink.Run(g, elink.Config{Delta: delta, Metric: m, Features: ds.Features, Mode: elink.Implicit, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	clusterings[SeriesELinkImplicit] = el.Clustering
	hier, err := baseline.Hierarchical(g, baseline.HierConfig{Delta: delta, Metric: m, Features: ds.Features})
	if err != nil {
		return nil, err
	}
	clusterings[SeriesHierarchical] = hier.Clustering
	forest, err := baseline.SpanningForest(g, baseline.ForestConfig{Delta: delta, Metric: m, Features: ds.Features, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	clusterings[SeriesForest] = forest.Clustering

	cols := []string{SeriesELinkImplicit, SeriesHierarchical, SeriesForest, "tag"}
	t := &Table{
		Title:   title,
		XLabel:  "radius/delta",
		Columns: cols,
		Notes:   []string{sc.note(), fmt.Sprintf("delta=%v, query point sampled from node features", delta)},
	}
	tag := float64(query.TAG(g).Messages)
	for _, frac := range fractions {
		r := frac * delta
		row := make([]float64, 0, len(cols))
		for _, name := range cols[:3] {
			rng := detrand.New(sc.Seed + 1000) // same queries per series
			avg, err := rangeQueryCost(g, clusterings[name], ds.Features, m, r, sc.Queries, rng)
			if err != nil {
				return nil, err
			}
			row = append(row, avg)
		}
		row = append(row, tag)
		t.AddRow(frac, row...)
	}
	return t, nil
}

// fig14Delta is the representative Tao δ for the query experiments.
const fig14Delta = 0.12

// Fig14 reproduces Fig. 14: average range-query cost on the Tao data for
// radii between 0.7δ and 0.9δ.
func Fig14(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	return rangeFigure(ds, fig14Delta, []float64{0.7, 0.75, 0.8, 0.85, 0.9}, sc,
		"Fig 14: range query cost on Tao data (avg messages per query)")
}

// Fig15 reproduces Fig. 15: average range-query cost on the synthetic
// data for radii between 0.3δ and 0.7δ.
func Fig15(sc Scale) (*Table, error) {
	n := sc.SynSizes[len(sc.SynSizes)-1]
	ds, err := data.Synthetic(data.SyntheticConfig{Nodes: n, Readings: sc.SynReadings, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	return rangeFigure(ds, fig13Delta, []float64{0.3, 0.4, 0.5, 0.6, 0.7}, sc,
		"Fig 15: range query cost on synthetic data (avg messages per query)")
}

// PathQueries reproduces the path-query experiment (§8 defers the plots
// to the tech report): average cost of the safe-path search over the
// clustered index versus BFS flooding, as the safety margin γ varies on
// the Death Valley terrain with the danger at the valley floor.
func PathQueries(sc Scale) (*Table, error) {
	ds, err := data.DeathValley(data.DeathValleyConfig{Nodes: sc.DVNodes, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	g, m := ds.Graph, ds.Metric
	delta := 150.0
	res, err := elink.Run(g, elink.Config{Delta: delta, Metric: m, Features: ds.Features, Mode: elink.Implicit, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	idx, err := index.Build(g, res.Clustering, ds.Features, m)
	if err != nil {
		return nil, err
	}
	danger := metric.Feature{175} // the valley floor elevation

	t := &Table{
		Title:   "Path queries: safe-path cost on Death Valley (avg messages per query)",
		XLabel:  "gamma",
		Columns: []string{"elink-path", "bfs-flood", "found-fraction"},
		Notes:   []string{sc.note(), fmt.Sprintf("delta=%v, danger feature = valley floor (175)", delta)},
	}
	for _, gamma := range []float64{50, 100, 200, 400} {
		// Endpoints are drawn serially (historical rng order); the path
		// and flood searches per query pair fan out, with per-index
		// result slots summed in order.
		rng := detrand.New(sc.Seed + 2000)
		type endpoints struct{ src, dst topology.NodeID }
		pairs := make([]endpoints, sc.Queries)
		for q := range pairs {
			pairs[q].src = topology.NodeID(rng.Intn(g.N()))
			pairs[q].dst = topology.NodeID(rng.Intn(g.N()))
		}
		type outcome struct {
			cluster, flood int64
			found          bool
		}
		outs := make([]outcome, sc.Queries)
		par.For(sc.Queries, func(q int) {
			a := query.Path(idx, danger, gamma, pairs[q].src, pairs[q].dst, nil)
			b := query.BFSFlood(g, ds.Features, m, danger, gamma, pairs[q].src, pairs[q].dst)
			outs[q] = outcome{cluster: a.Stats.Messages, flood: b.Stats.Messages, found: a.Found}
		})
		var clusterCost, floodCost int64
		found := 0
		for _, o := range outs {
			clusterCost += o.cluster
			floodCost += o.flood
			if o.found {
				found++
			}
		}
		t.AddRow(gamma,
			float64(clusterCost)/float64(sc.Queries),
			float64(floodCost)/float64(sc.Queries),
			float64(found)/float64(sc.Queries))
	}
	return t, nil
}
