// Command elink-query clusters one of the built-in datasets, builds the
// distributed index, and answers range or path queries, reporting message
// costs against the TAG / BFS-flood baselines.
//
// Usage:
//
//	elink-query -dataset tao -kind range -r 0.08
//	elink-query -dataset deathvalley -nodes 600 -kind path -gamma 300
package main

import (
	"elink/internal/detrand"
	"flag"
	"fmt"
	"os"

	"elink"
)

func main() {
	var (
		dataset = flag.String("dataset", "tao", "dataset: tao | deathvalley | synthetic")
		kind    = flag.String("kind", "range", "query kind: range | path")
		nodes   = flag.Int("nodes", 0, "node count for deathvalley/synthetic (0 = default)")
		days    = flag.Int("days", 10, "days of Tao data")
		delta   = flag.Float64("delta", 0, "clustering threshold (0 = dataset default)")
		radius  = flag.Float64("r", 0, "range query radius (0 = 0.8*delta)")
		gamma   = flag.Float64("gamma", 0, "path query safety margin (0 = dataset-scaled default)")
		count   = flag.Int("n", 20, "number of random queries to average")
		seed    = flag.Int64("seed", 1, "random seed")
		svgPath = flag.String("svg", "", "for -kind path: draw the last found path as an SVG to this file")
	)
	flag.Parse()
	if err := checkFlags(*kind, *count); err != nil {
		fmt.Fprintln(os.Stderr, "elink-query:", err)
		os.Exit(2)
	}

	ds, err := loadDataset(*dataset, *nodes, *days, *seed)
	if err != nil {
		fail(err)
	}
	d := *delta
	if d == 0 {
		d = ds.Deltas[len(ds.Deltas)/2]
	}
	res, err := elink.Cluster(ds.Graph, elink.Config{
		Delta: d, Metric: ds.Metric, Features: ds.Features, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	idx, err := elink.BuildIndex(ds.Graph, res.Clustering, ds.Features, ds.Metric)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset=%s nodes=%d delta=%g clusters=%d (clustering cost %d msgs, index+backbone %d msgs)\n",
		ds.Name, ds.Graph.N(), d, res.Clustering.NumClusters(),
		res.Stats.Messages, idx.BuildStats.Messages)

	rng := detrand.New(*seed + 77)
	switch *kind {
	case "range":
		r := *radius
		if r == 0 {
			r = 0.8 * d
		}
		var cost, matches int64
		for i := 0; i < *count; i++ {
			q := ds.Features[rng.Intn(ds.Graph.N())]
			init := elink.NodeID(rng.Intn(ds.Graph.N()))
			rr := elink.RangeQuery(idx, q, r, init)
			cost += rr.Stats.Messages
			matches += int64(len(rr.Matches))
		}
		tag := elink.TAGCost(ds.Graph).Messages
		avg := float64(cost) / float64(*count)
		fmt.Printf("range r=%g: avg %.1f msgs/query, avg %.1f matches; TAG costs %d (gain %.1fx)\n",
			r, avg, float64(matches)/float64(*count), tag, float64(tag)/avg)
	case "path":
		gm := *gamma
		if gm == 0 {
			gm = 2 * d
		}
		danger := lowestFeature(ds)
		var cost, floodCost int64
		found := 0
		var lastPath []elink.NodeID
		for i := 0; i < *count; i++ {
			src := elink.NodeID(rng.Intn(ds.Graph.N()))
			dst := elink.NodeID(rng.Intn(ds.Graph.N()))
			p := elink.PathQuery(idx, danger, gm, src, dst)
			f := elink.BFSFloodPath(ds.Graph, ds.Features, ds.Metric, danger, gm, src, dst)
			cost += p.Stats.Messages
			floodCost += f.Stats.Messages
			if p.Found {
				found++
				lastPath = p.Path
			}
		}
		if *svgPath != "" && lastPath != nil {
			f, err := os.Create(*svgPath)
			if err != nil {
				fail(err)
			}
			opts := elink.SVGOptions{
				ShowEdges: true, Highlight: lastPath, PathEdges: lastPath,
				Title: fmt.Sprintf("%s: safe path, gamma=%g", ds.Name, gm),
			}
			if err := elink.WriteNetworkSVG(f, ds.Graph, res.Clustering, opts); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *svgPath)
		}
		fmt.Printf("path gamma=%g danger=%v: %d/%d found; avg %.1f msgs/query vs BFS flood %.1f (gain %.1fx)\n",
			gm, danger, found, *count,
			float64(cost)/float64(*count), float64(floodCost)/float64(*count),
			float64(floodCost)/float64(cost))
	}
}

// checkFlags rejects, before any dataset is generated, a query kind
// main cannot answer and a query count that leaves no average.
func checkFlags(kind string, count int) error {
	if kind != "range" && kind != "path" {
		return fmt.Errorf("unknown query kind %q (want range or path)", kind)
	}
	if count < 1 {
		return fmt.Errorf("-n %d: need at least one query", count)
	}
	return nil
}

func loadDataset(name string, nodes, days int, seed int64) (*elink.Dataset, error) {
	switch name {
	case "tao":
		return elink.GenerateTao(elink.TaoGenConfig{Days: days, Seed: seed})
	case "deathvalley":
		if nodes == 0 {
			nodes = 500
		}
		return elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: nodes, Seed: seed})
	case "synthetic":
		if nodes == 0 {
			nodes = 300
		}
		return elink.GenerateSynthetic(elink.SyntheticGenConfig{Nodes: nodes, Readings: 5000, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

// lowestFeature returns the minimum feature value as the danger point
// (for elevation data, the valley floor).
func lowestFeature(ds *elink.Dataset) elink.Feature {
	low := ds.Features[0]
	for _, f := range ds.Features {
		if f[0] < low[0] {
			low = f
		}
	}
	return low.Clone()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "elink-query:", err)
	os.Exit(1)
}
