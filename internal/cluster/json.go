package cluster

import (
	"encoding/json"

	"elink/internal/topology"
)

// clusteringJSON is the wire form: one record per cluster. The dense
// Assign index is reconstructed on load.
type clusteringJSON struct {
	Clusters []clusterRecord `json:"clusters"`
}

type clusterRecord struct {
	Root    topology.NodeID   `json:"root"`
	Members []topology.NodeID `json:"members"`
}

// MarshalJSON implements json.Marshaler.
func (c *Clustering) MarshalJSON() ([]byte, error) {
	out := clusteringJSON{Clusters: make([]clusterRecord, len(c.Members))}
	for ci, members := range c.Members {
		out.Clusters[ci] = clusterRecord{Root: c.Roots[ci], Members: members}
	}
	return json.Marshal(out)
}
