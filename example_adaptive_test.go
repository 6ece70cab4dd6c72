package elink_test

import (
	"fmt"

	"elink"
	"elink/internal/detrand"
)

// Example_adaptive is the paper's slack-parameterized update protocol
// (§6): adaptive maintenance. A clustered network absorbs a drifting
// data distribution; the slack Δ trades clustering quality for
// communication silence.
func Example_adaptive() {
	g := elink.NewRandomNetwork(150, 4, 3)
	rng := detrand.New(3)

	// Initial field: two spatial regimes with mild noise.
	cur := make([]float64, g.N())
	feats := make([]elink.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		if g.Pos[u].X > 6 {
			cur[u] = 4
		}
		cur[u] += rng.Float64() * 0.2
		feats[u] = elink.Feature{cur[u]}
	}

	delta := 2.0
	for _, slack := range []float64{0.1, 0.4, 0.8} {
		// Cluster with the tightened threshold δ − 2Δ so the slack has
		// room to absorb drift (§6).
		res, err := elink.Cluster(g, elink.Config{
			Delta: delta - 2*slack, Metric: elink.Scalar(), Features: feats,
		})
		if err != nil {
			panic(err)
		}
		m, err := elink.NewMaintainer(g, res.Clustering, feats, elink.MaintainerConfig{
			Delta: delta, Slack: slack, Metric: elink.Scalar(),
		})
		if err != nil {
			panic(err)
		}
		central := elink.NewCentralizedUpdater(g, 0, feats, elink.MaintainerConfig{
			Delta: delta, Slack: slack, Metric: elink.Scalar(),
		}, 1)

		// Stream 2000 feature drifts through both schemes.
		drift := detrand.New(99)
		vals := append([]float64(nil), cur...)
		for step := 0; step < 2000; step++ {
			u := elink.NodeID(drift.Intn(g.N()))
			vals[u] += drift.NormFloat64() * 0.2
			f := elink.Feature{vals[u]}
			m.Update(u, f)
			central.Update(u, f)
		}

		c := m.CountersSnapshot()
		fmt.Printf("slack Δ=%.1f: initial clusters=%d final=%d\n",
			slack, res.Clustering.NumClusters(), m.NumClusters())
		fmt.Printf("  in-network: %d messages (A1/A2/A3 screens silenced %d/%d/%d of %d updates)\n",
			m.Stats().Messages, c.ScreenedA1, c.ScreenedA2, c.ScreenedA3, c.Updates)
		fmt.Printf("  centralized would ship %d messages for the same stream\n\n",
			central.Stats().Messages)
	}
	// Output:
	// slack Δ=0.1: initial clusters=9 final=24
	//   in-network: 1338 messages (A1/A2/A3 screens silenced 755/509/617 of 2000 updates)
	//   centralized would ship 12662 messages for the same stream
	//
	// slack Δ=0.4: initial clusters=9 final=18
	//   in-network: 344 messages (A1/A2/A3 screens silenced 1887/48/42 of 2000 updates)
	//   centralized would ship 2956 messages for the same stream
	//
	// slack Δ=0.8: initial clusters=9 final=9
	//   in-network: 40 messages (A1/A2/A3 screens silenced 1996/0/0 of 2000 updates)
	//   centralized would ship 759 messages for the same stream
}
