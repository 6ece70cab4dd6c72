package elink_test

import (
	"fmt"

	"elink"
)

// Example_streaming replays the Tao-like buoy data day by day through
// the live engine and watches the clustering track the ocean.
//
// Each morning every buoy refits its model on the data so far and ships
// the new coefficients into the engine. The slack-Δ screens silence the
// small overnight drifts, the M-tree repairs itself incrementally, and
// the adaptive policy re-runs full ELink only when fragmentation says
// the maintained clustering has degraded — so the daily update cost is
// a fraction of re-clustering from scratch every day, which is the
// entire argument of the paper's §6.
func Example_streaming() {
	const (
		days       = 14
		firstFit   = 5   // days of history before the first stable fit
		perDay     = 144 // 10-minute samples
		delta      = 0.12
		slackRatio = 0.1
	)
	ds, err := elink.GenerateTao(elink.TaoGenConfig{Days: days, Seed: 42})
	if err != nil {
		panic(err)
	}
	n := ds.Graph.N()
	fmt.Printf("replaying %d days over %d buoys (delta %g, slack %g)\n\n",
		days, n, delta, slackRatio*delta)

	// fitDay refits every buoy on its series up to the end of day d.
	fitDay := func(d int) []elink.Feature {
		feats := make([]elink.Feature, n)
		for u := 0; u < n; u++ {
			f, err := elink.FitTaoFeature(ds.Series[u][:(d+1)*perDay])
			if err != nil {
				panic(err)
			}
			feats[u] = f
		}
		return feats
	}
	batchOf := func(feats []elink.Feature) []elink.FeatureUpdate {
		batch := make([]elink.FeatureUpdate, n)
		for u := range batch {
			batch[u] = elink.FeatureUpdate{Node: elink.NodeID(u), Feature: feats[u]}
		}
		return batch
	}

	engine, err := elink.NewEngine(ds.Graph, elink.EngineConfig{
		Delta:  delta,
		Slack:  slackRatio * delta,
		Metric: ds.Metric,
		Policy: elink.PolicyAdaptive,
		Seed:   42,
	})
	if err != nil {
		panic(err)
	}

	// Day firstFit bootstraps the first clustering; every later day is
	// one maintenance epoch. For comparison, also price re-running full
	// ELink (plus index build) on that day's features.
	fmt.Printf("%-5s %9s %9s %12s %12s\n",
		"day", "clusters", "detaches", "stream msgs", "full msgs")
	var prevSteady, fullTotal int64
	for d := firstFit; d < days; d++ {
		feats := fitDay(d)
		res, err := engine.IngestFeatures(batchOf(feats))
		if err != nil {
			panic(err)
		}
		if d == firstFit {
			fmt.Printf("%-5d %9d %9s %12s %12s bootstrap: %d msgs\n",
				d, res.NumClusters, "-", "-", "-", engine.Stats().BootstrapMsgs)
			continue
		}
		full, err := elink.Cluster(ds.Graph, elink.Config{
			Delta: delta - 2*slackRatio*delta, Metric: ds.Metric, Features: feats, Seed: 42,
		})
		if err != nil {
			panic(err)
		}
		idx, err := elink.BuildIndex(ds.Graph, full.Clustering, feats, ds.Metric)
		if err != nil {
			panic(err)
		}
		dayFull := full.Stats.Messages + idx.BuildStats.Messages
		fullTotal += dayFull

		steady := engine.Stats().SteadyStateMsgs()
		fmt.Printf("%-5d %9d %9d %12d %12d\n",
			d, res.NumClusters, res.Detaches, steady-prevSteady, dayFull)
		prevSteady = steady
	}

	st := engine.Stats()
	fmt.Printf("\nafter %d maintained days:\n", days-firstFit-1)
	fmt.Printf("  screening: %d updates, %d silenced (A1 %d, A2 %d, A3 %d), %d detaches\n",
		st.Screening.Updates,
		st.Screening.ScreenedA1+st.Screening.ScreenedA2+st.Screening.ScreenedA3,
		st.Screening.ScreenedA1, st.Screening.ScreenedA2, st.Screening.ScreenedA3,
		st.Screening.Detaches)
	fmt.Printf("  streaming cost: %d msgs (maintenance %d, index repair %d, rebuilds %d, re-clusters %d)\n",
		st.SteadyStateMsgs(), st.MaintenanceMsgs, st.IndexRepairMsgs, st.IndexRebuildMsgs, st.ReclusterMsgs)
	fmt.Printf("  re-clustering every day instead: %d msgs (%.1fx more)\n",
		fullTotal, float64(fullTotal)/float64(st.SteadyStateMsgs()))

	// The maintained snapshot keeps serving queries throughout; ask it
	// which buoys behave like buoy 0 today.
	snap := engine.Snapshot()
	r, err := engine.RangeQuery(snap.Features[0], 0.8*delta, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  buoys behaving like buoy 0: %v (%d msgs vs %d for TAG flooding)\n",
		r.Matches, r.Stats.Messages, elink.TAGCost(ds.Graph).Messages)
	// Output:
	// replaying 14 days over 54 buoys (delta 0.12, slack 0.012)
	//
	// day    clusters  detaches  stream msgs    full msgs
	// 5            36         -            -            - bootstrap: 222 msgs
	// 6            37         2           66          238
	// 7            37         0           23          228
	// 8            39         5           87          214
	// 9            39         0           16          224
	// 10           39         0           19          216
	// 11           39         0           28          216
	// 12           39         0           19          221
	// 13           39         0           19          217
	//
	// after 8 maintained days:
	//   screening: 432 updates, 217 silenced (A1 167, A2 39, A3 11), 7 detaches
	//   streaming cost: 277 msgs (maintenance 77, index repair 92, rebuilds 108, re-clusters 0)
	//   re-clustering every day instead: 1774 msgs (6.4x more)
	//   buoys behaving like buoy 0: [0 1 2 9 10 11 18 19 20 27 28 29 36 37 38 45 46 47] (64 msgs vs 106 for TAG flooding)
}
