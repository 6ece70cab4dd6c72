package elink_test

import (
	"fmt"
	"math"

	"elink"
)

// Example_hazardPath is the paper's path-query scenario (§7.3): hazard
// navigation.
//
// Sensors scattered over fractal terrain report elevation; low ground is
// flooded and dangerous. A rescue mission asks for a path from one corner
// of the deployment to the other that stays at least γ above the flood
// line. The clustered index answers without flooding the network.
func Example_hazardPath() {
	ds, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 600, Seed: 7})
	if err != nil {
		panic(err)
	}
	g := ds.Graph
	fmt.Printf("deployed %d sensors over terrain; elevation range (175, 1996)\n", g.N())

	res, err := elink.Cluster(g, elink.Config{
		Delta:    150, // cluster terrain into ~150m elevation bands
		Metric:   ds.Metric,
		Features: ds.Features,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ELink found %d elevation regions in %d messages\n",
		res.Clustering.NumClusters(), res.Stats.Messages)

	idx, err := elink.BuildIndex(g, res.Clustering, ds.Features, ds.Metric)
	if err != nil {
		panic(err)
	}

	// Pick endpoints: the highest sensors near opposite corners.
	src := cornerSensor(ds, 0, 0)
	dst := cornerSensor(ds, 1, 1)
	danger := elink.Feature{175} // the flood line at the valley floor

	for _, gamma := range []float64{100, 300, 600} {
		p := elink.PathQuery(idx, danger, gamma, src, dst)
		f := elink.BFSFloodPath(g, ds.Features, ds.Metric, danger, gamma, src, dst)
		if p.Found {
			fmt.Printf("γ=%4.0f: safe path of %d hops for %d messages (flooding: %d messages)\n",
				gamma, len(p.Path)-1, p.Stats.Messages, f.Stats.Messages)
			fmt.Printf("        clusters: %d safe, %d unsafe, %d drilled\n",
				p.ClustersSafe, p.ClustersUnsafe, p.ClustersMixed)
		} else {
			fmt.Printf("γ=%4.0f: no safe path (%d messages to find out; flooding: %d)\n",
				gamma, p.Stats.Messages, f.Stats.Messages)
		}
	}
	// Output:
	// deployed 600 sensors over terrain; elevation range (175, 1996)
	// ELink found 205 elevation regions in 2649 messages
	// γ= 100: safe path of 37 hops for 390 messages (flooding: 2888 messages)
	//         clusters: 199 safe, 3 unsafe, 3 drilled
	// γ= 300: no safe path (319 messages to find out; flooding: 166)
	// γ= 600: no safe path (258 messages to find out; flooding: 157)
}

// cornerSensor returns the sensor closest to the given corner (fractions
// of the bounding box) with a safely high elevation.
func cornerSensor(ds *elink.Dataset, fx, fy float64) elink.NodeID {
	min, max := ds.Graph.BoundingBox()
	target := elink.Point{
		X: min.X + fx*(max.X-min.X),
		Y: min.Y + fy*(max.Y-min.Y),
	}
	best, bestScore := elink.NodeID(0), math.Inf(1)
	for u := 0; u < ds.Graph.N(); u++ {
		if ds.Features[u][0] < 800 {
			continue // stay on high ground
		}
		if d := ds.Graph.Pos[u].Dist(target); d < bestScore {
			best, bestScore = elink.NodeID(u), d
		}
	}
	return best
}
