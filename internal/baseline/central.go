package baseline

import (
	"elink/internal/cluster"
	"elink/internal/topology"
)

// CentralizedCost models the communication the two centralized schemes of
// §8.3 pay: every update is shipped over the multi-hop path to the base
// station. It is the cost side of the Spectral baseline (the clustering
// itself happens for free at the base station).
type CentralizedCost struct {
	g    *topology.Graph
	hops []int // shortest-hop distance from each node to the base station
}

// NewCentralizedCost creates the cost model with the base station at the
// given node (the paper places it at the network edge; experiments use
// the corner node 0).
func NewCentralizedCost(g *topology.Graph, base topology.NodeID) *CentralizedCost {
	return &CentralizedCost{g: g, hops: g.HopDistances(base)}
}

// ShipAll charges one full raw-data round: every node sends `values`
// measurements to the base station ("centralized raw" in Fig 12).
func (c *CentralizedCost) ShipAll(values int64) cluster.Stats {
	var total int64
	for u := 0; u < c.g.N(); u++ {
		total += int64(c.hops[u]) * values
	}
	return cluster.Stats{
		Messages:  total,
		Breakdown: map[string]int64{"raw": total},
	}
}

// ShipModels charges model-coefficient shipping for the given nodes
// (those whose coefficients changed by more than the slack threshold;
// "centralized model" in Fig 12). coeffs is the number of coefficients
// per update; the paper's message unit carries one coefficient.
func (c *CentralizedCost) ShipModels(changed []topology.NodeID, coeffs int64) cluster.Stats {
	var total int64
	for _, u := range changed {
		total += int64(c.hops[u]) * coeffs
	}
	return cluster.Stats{
		Messages:  total,
		Breakdown: map[string]int64{"model": total},
	}
}
