package elink_test

import (
	"bytes"
	"fmt"

	"elink"
)

// Example clusters an 8×8 grid whose west half observes one phenomenon
// and east half another, then asks a range query against the clusters.
// README.md's quick start quotes this function verbatim.
func Example() {
	// An 8x8 sensor grid; west half sees one phenomenon, east half another.
	g := elink.NewGrid(8, 8)
	feats := make([]elink.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		if g.Pos[u].X >= 4 {
			feats[u] = elink.Feature{5}
		} else {
			feats[u] = elink.Feature{0}
		}
	}

	res, err := elink.Cluster(g, elink.Config{
		Delta:    1.0,
		Metric:   elink.Scalar(),
		Features: feats,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d clusters for %d messages\n",
		res.Clustering.NumClusters(), res.Stats.Messages)

	// Index the clusters, then query: which sensors behave like 5?
	idx, err := elink.BuildIndex(g, res.Clustering, feats, elink.Scalar())
	if err != nil {
		panic(err)
	}
	q := elink.RangeQuery(idx, elink.Feature{5}, 0.4, 0)
	fmt.Printf("%d matches for %d messages (TAG flooding: %d)\n",
		len(q.Matches), q.Stats.Messages, elink.TAGCost(g).Messages)
	// Output:
	// 2 clusters for 203 messages
	// 32 matches for 16 messages (TAG flooding: 126)
}

// ExampleEngine_snapshot round-trips a live streaming engine through
// the durability layer: snapshot its full state, restore into a fresh
// engine over the same network, and observe identical externally
// visible state.
func ExampleEngine_snapshot() {
	g := elink.NewGrid(3, 4)
	cfg := elink.EngineConfig{Order: 0, Delta: 1.0, Slack: 0.1, Metric: elink.Euclidean(), Seed: 7}
	eng, err := elink.NewEngine(g, cfg)
	if err != nil {
		panic(err)
	}
	batch := make([]elink.FeatureUpdate, g.N())
	for u := 0; u < g.N(); u++ {
		v := 0.0
		if g.Pos[u].X >= 2 {
			v = 5
		}
		batch[u] = elink.FeatureUpdate{Node: elink.NodeID(u), Feature: elink.Feature{v}}
	}
	if _, err := eng.IngestFeatures(batch); err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	if _, err := eng.SaveSnapshot(&buf); err != nil {
		panic(err)
	}

	// A fresh engine with the same topology and config resumes exactly
	// where the snapshot was taken.
	restored, err := elink.NewEngine(g, cfg)
	if err != nil {
		panic(err)
	}
	if err := restored.Restore(&buf); err != nil {
		panic(err)
	}
	a, b := eng.Snapshot(), restored.Snapshot()
	fmt.Println("batches:", restored.Seq())
	fmt.Println("epoch match:", a.Epoch == b.Epoch)
	fmt.Println("clusters:", b.Clustering.NumClusters())
	// Output:
	// batches: 1
	// epoch match: true
	// clusters: 2
}

// ExampleNewMaintainer shows the slack-Δ update protocol silencing a
// small feature drift.
func ExampleNewMaintainer() {
	g := elink.NewGrid(3, 3)
	feats := make([]elink.Feature, g.N())
	for i := range feats {
		feats[i] = elink.Feature{1}
	}
	res, err := elink.Cluster(g, elink.Config{Delta: 1.0, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		panic(err)
	}
	m, err := elink.NewMaintainer(g, res.Clustering, feats, elink.MaintainerConfig{
		Delta: 2.0, Slack: 0.5, Metric: elink.Scalar(),
	})
	if err != nil {
		panic(err)
	}
	m.Update(4, elink.Feature{1.3}) // drift of 0.3 <= slack: silent
	fmt.Println("messages:", m.Stats().Messages)
	// Output:
	// messages: 0
}
