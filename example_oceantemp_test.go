package elink_test

import (
	"fmt"

	"elink"
)

// Example_oceanTemp is the paper's motivating scenario (§1): ocean
// temperature monitoring.
//
// A 6x9 buoy grid observes sea surface temperatures over 20 days. Each
// buoy models its series with the mixed AR model of §8.1; ELink clusters
// the fleet into zones with similar dynamics (warm pool / transition /
// cold tongue), and range queries find "regions behaving like buoy X"
// at a fraction of the TAG flooding cost.
func Example_oceanTemp() {
	ds, err := elink.GenerateTao(elink.TaoGenConfig{Days: 20, Seed: 42}) // 20 days of 10-minute samples
	if err != nil {
		panic(err)
	}
	fmt.Printf("generated %d buoys, %d samples each; features are the 4 AR coefficients\n",
		ds.Graph.N(), len(ds.Series[0]))

	delta := 0.2
	res, err := elink.Cluster(ds.Graph, elink.Config{
		Delta:    delta,
		Metric:   ds.Metric, // weighted euclidean (0.5, 0.3, 0.2, 0.1)
		Features: ds.Features,
		Mode:     elink.Explicit, // asynchronous-network signalling
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ELink (explicit) found %d temperature zones in %d messages\n",
		res.Clustering.NumClusters(), res.Stats.Messages)

	// Render the zone map: rows are latitudes, columns longitudes.
	fmt.Println("zone map (one letter per cluster):")
	fmt.Println(elink.RenderGridClusters(ds.Graph, res.Clustering, 9))

	// Compare against the centralized spectral algorithm.
	central, err := elink.SpectralCluster(ds.Graph, elink.SpectralConfig{
		Delta: delta, Metric: ds.Metric, Features: ds.Features, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("centralized spectral clustering finds %d zones (quality reference)\n",
		central.Clustering.NumClusters())

	// "Which regions behave like buoy 13?"
	idx, err := elink.BuildIndex(ds.Graph, res.Clustering, ds.Features, ds.Metric)
	if err != nil {
		panic(err)
	}
	probe := elink.NodeID(13)
	q := elink.RangeQuery(idx, ds.Features[probe], 0.7*delta, probe)
	fmt.Printf("buoys behaving like buoy %d (r = 0.7δ): %d matches, %d messages (TAG: %d)\n",
		probe, len(q.Matches), q.Stats.Messages, elink.TAGCost(ds.Graph).Messages)
	fmt.Printf("  cluster pruning: %d excluded, %d fully included, %d searched\n",
		q.ClustersExcluded, q.ClustersIncluded, q.ClustersSearched)
	// Output:
	// generated 54 buoys, 2880 samples each; features are the 4 AR coefficients
	// ELink (explicit) found 4 temperature zones in 740 messages
	// zone map (one letter per cluster):
	// AAABBBBBB
	// AAABBBBBB
	// AAABBBBBB
	// AAABBBBBB
	// CADBBBBBB
	// CADBBBBBB
	// centralized spectral clustering finds 2 zones (quality reference)
	// buoys behaving like buoy 13 (r = 0.7δ): 36 matches, 16 messages (TAG: 106)
	//   cluster pruning: 3 excluded, 1 fully included, 0 searched
}
