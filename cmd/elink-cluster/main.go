// Command elink-cluster runs one clustering algorithm on one of the
// built-in datasets and prints the resulting clusters and communication
// cost.
//
// Usage:
//
//	elink-cluster -dataset tao -algo elink -mode implicit -delta 0.2
//	elink-cluster -dataset deathvalley -nodes 500 -algo hierarchical -delta 150
//	elink-cluster -dataset synthetic -nodes 300 -algo forest -delta 0.1 -v
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"elink"
)

func main() {
	var (
		dataset = flag.String("dataset", "tao", "dataset: tao | deathvalley | synthetic")
		algo    = flag.String("algo", "elink", "algorithm: elink | spectral | hierarchical | forest")
		mode    = flag.String("mode", "implicit", "elink signalling: implicit | explicit | unordered")
		delta   = flag.Float64("delta", 0, "dissimilarity threshold (0 = dataset default)")
		nodes   = flag.Int("nodes", 0, "node count for deathvalley/synthetic (0 = default)")
		days    = flag.Int("days", 10, "days of Tao data")
		seed    = flag.Int64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print every cluster's members")
		asJSON  = flag.Bool("json", false, "emit the clustering as JSON")
		svgPath = flag.String("svg", "", "write the clustered network as an SVG to this file")
	)
	flag.Parse()

	ds, err := loadDataset(*dataset, *nodes, *days, *seed)
	if err != nil {
		fail(err)
	}
	d := *delta
	if d == 0 {
		d = ds.Deltas[len(ds.Deltas)/2]
	}

	res, err := runAlgo(ds, *algo, *mode, d, *seed)
	if err != nil {
		fail(err)
	}

	if *asJSON {
		data, err := json.MarshalIndent(res.Clustering, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return
	}

	q := res.Clustering.Measure(ds.Features, ds.Metric)
	fmt.Printf("dataset=%s nodes=%d algo=%s delta=%g\n", ds.Name, ds.Graph.N(), *algo, d)
	fmt.Printf("clusters=%d largest=%d mean-size=%.1f max-diameter=%.4g\n",
		q.NumClusters, q.LargestSize, q.MeanSize, q.MaxDiameter)
	fmt.Printf("cost: %s\n", res.Stats)
	if err := res.Clustering.Validate(ds.Graph, ds.Features, ds.Metric, d, 1e-9); err != nil {
		fmt.Printf("VALIDATION FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("validation: every cluster connected and delta-compact")

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fail(err)
		}
		opts := elink.SVGOptions{
			ShowEdges: true, ShowRoots: true,
			Title: fmt.Sprintf("%s: %d clusters at delta=%g (%s)", ds.Name, q.NumClusters, d, *algo),
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

	if *verbose {
		type row struct {
			root elink.NodeID
			size int
			idx  int
		}
		rows := make([]row, 0, res.Clustering.NumClusters())
		for ci, members := range res.Clustering.Members {
			rows = append(rows, row{root: res.Clustering.Roots[ci], size: len(members), idx: ci})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].size > rows[j].size })
		for _, r := range rows {
			fmt.Printf("  cluster root=%d size=%d members=%v\n", r.root, r.size, res.Clustering.Members[r.idx])
		}
	}
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

func runAlgo(ds *elink.Dataset, algo, mode string, delta float64, seed int64) (*elink.Result, error) {
	switch algo {
	case "elink":
		var m elink.Mode
		switch mode {
		case "implicit":
			m = elink.Implicit
		case "explicit":
			m = elink.Explicit
		case "unordered":
			m = elink.Unordered
		default:
			return nil, fmt.Errorf("unknown mode %q", mode)
		}
		return elink.Cluster(ds.Graph, elink.Config{
			Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: m, Seed: seed,
		})
	case "spectral":
		return elink.SpectralCluster(ds.Graph, elink.SpectralConfig{
			Delta: delta, Metric: ds.Metric, Features: ds.Features, Seed: seed,
		})
	case "hierarchical":
		return elink.HierarchicalCluster(ds.Graph, elink.HierConfig{
			Delta: delta, Metric: ds.Metric, Features: ds.Features,
		})
	case "forest":
		return elink.SpanningForestCluster(ds.Graph, elink.ForestConfig{
			Delta: delta, Metric: ds.Metric, Features: ds.Features, Seed: seed,
		})
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "elink-cluster:", err)
	os.Exit(1)
}
