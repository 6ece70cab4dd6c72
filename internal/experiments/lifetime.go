package experiments

import (
	"elink/internal/data"
	"elink/internal/elink"
	"elink/internal/topology"
)

// RepresentativeSampling quantifies the paper's §1 motivation for
// clustering: "instead of gathering data from every node in the cluster,
// only a set of cluster representatives need to be sampled". The network
// lifetime is bottlenecked by the busiest node (the base station's
// neighbours carry everyone else's traffic), so the experiment compares
// the per-epoch maximum per-node transmission load of:
//
//   - full collection: every node's raw value travels to the base
//     station over the BFS collection tree (an inner node forwards one
//     message per descendant plus its own);
//   - representative sampling: only each cluster's root reports, routed
//     over shortest hop paths.
//
// The lifetime gain is the ratio of the two maxima — with a fixed radio
// energy budget, the hottest node survives that many times more epochs.
func RepresentativeSampling(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	base := topology.NodeID(0)

	// Full raw collection load: each node transmits its own value plus
	// one forward per descendant in the base station's BFS tree.
	parent := g.BFSTree(base)
	fullTx := make([]int64, g.N())
	for u := 0; u < g.N(); u++ {
		if topology.NodeID(u) == base {
			continue
		}
		for cur := topology.NodeID(u); cur != base; cur = parent[cur] {
			fullTx[cur]++
		}
	}
	fullMax := maxOf(fullTx)

	t := &Table{
		Title:   "Representative sampling (§1): per-epoch hotspot load and lifetime gain",
		XLabel:  "delta",
		Columns: []string{"clusters", "full-max-tx", "repr-max-tx", "lifetime-gain"},
		Notes:   []string{sc.note(), "base station at node 0; full collection = raw values over the BFS tree"},
	}
	for _, delta := range ds.Deltas {
		res, err := elink.Run(g, elink.Config{
			Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Implicit, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		reprTx := make([]int64, g.N())
		for _, root := range res.Clustering.Roots {
			path := g.ShortestPath(root, base)
			for i := 0; i+1 < len(path); i++ {
				reprTx[path[i]]++
			}
		}
		reprMax := maxOf(reprTx)
		if reprMax == 0 {
			reprMax = 1 // the base itself is the only root: nothing transmits
		}
		t.AddRow(delta,
			float64(res.Clustering.NumClusters()),
			float64(fullMax), float64(reprMax),
			float64(fullMax)/float64(reprMax))
	}
	return t, nil
}

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// HotspotSpread reports how evenly the clustering protocol itself spreads
// its transmission load, compared with centralized model shipping at the
// same epoch: max and mean per-node transmissions for ELink's clustering
// run versus shipping every model to the base station.
func HotspotSpread(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	base := topology.NodeID(0)

	t := &Table{
		Title:   "Hotspot analysis: per-node transmission load, clustering vs centralized shipping",
		XLabel:  "delta",
		Columns: []string{"elink-max-tx", "elink-mean-tx", "central-max-tx", "central-mean-tx"},
		Notes:   []string{sc.note(), "central = 4 coefficients per node to the base over shortest paths"},
	}
	// Centralized: each node ships 4 coefficients to base; charge every
	// hop to its transmitting node.
	centralTx := make([]int64, g.N())
	for u := 0; u < g.N(); u++ {
		if topology.NodeID(u) == base {
			continue
		}
		path := g.ShortestPath(topology.NodeID(u), base)
		for i := 0; i+1 < len(path); i++ {
			centralTx[path[i]] += 4
		}
	}
	cMax, cMean := maxOf(centralTx), meanOf(centralTx)

	for _, delta := range ds.Deltas {
		tx, err := elink.TxPerNode(g, elink.Config{
			Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Implicit, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(delta, float64(maxOf(tx)), meanOf(tx), float64(cMax), cMean)
	}
	return t, nil
}

func meanOf(v []int64) float64 {
	var s int64
	for _, x := range v {
		s += x
	}
	if len(v) == 0 {
		return 0
	}
	return float64(s) / float64(len(v))
}
