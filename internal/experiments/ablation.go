package experiments

import (
	"elink/internal/baseline"
	"elink/internal/data"
	"elink/internal/elink"
)

// AblationUnordered quantifies the §5 remark that an unordered sentinel
// expansion finishes in O(√N) time but clusters worse: implicit (ordered)
// vs the compressed schedule on the Tao dataset across δ.
func AblationUnordered(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: ordered (implicit) vs unordered sentinel expansion on Tao data",
		XLabel:  "delta",
		Columns: []string{"clusters-ordered", "clusters-unordered", "time-ordered", "time-unordered"},
		Notes:   []string{sc.note()},
	}
	for _, delta := range ds.Deltas {
		ord, err := elink.Run(ds.Graph, elink.Config{Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Implicit, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		un, err := elink.Run(ds.Graph, elink.Config{Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Unordered, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(delta,
			float64(ord.Clustering.NumClusters()), float64(un.Clustering.NumClusters()),
			ord.Stats.Time, un.Stats.Time)
	}
	return t, nil
}

// AblationSwitches sweeps the switch budget c (with the paper's
// φ = 0.1δ): quality bought per extra switch and the message overhead it
// costs.
func AblationSwitches(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	delta := fig10Delta
	t := &Table{
		Title:   "Ablation: switch budget c on Tao data",
		XLabel:  "c",
		Columns: []string{"clusters", "messages"},
		Notes:   []string{sc.note(), "delta=0.2, phi=0.1*delta"},
	}
	for _, c := range []int{1, 2, 4, 6, 8} {
		res, err := elink.Run(ds.Graph, elink.Config{
			Delta: delta, MaxSwitches: c, Metric: ds.Metric, Features: ds.Features,
			Mode: elink.Implicit, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(float64(c), float64(res.Clustering.NumClusters()), float64(res.Stats.Messages))
	}
	return t, nil
}

// AblationPhi sweeps the switch-gain threshold φ.
func AblationPhi(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	delta := fig10Delta
	t := &Table{
		Title:   "Ablation: switch-gain threshold phi on Tao data",
		XLabel:  "phi/delta",
		Columns: []string{"clusters", "messages"},
		Notes:   []string{sc.note(), "delta=0.2, c=4"},
	}
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		res, err := elink.Run(ds.Graph, elink.Config{
			Delta: delta, Phi: frac * delta, Metric: ds.Metric, Features: ds.Features,
			Mode: elink.Implicit, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(frac, float64(res.Clustering.NumClusters()), float64(res.Stats.Messages))
	}
	return t, nil
}

// KMedoidsComparison quantifies §9's related-work argument: distributed
// k-medoids needs network-wide medoid broadcasts every round, so its
// clustering cost dwarfs ELink's even when its quality is comparable.
func KMedoidsComparison(sc Scale) (*Table, error) {
	ds, err := data.Tao(data.TaoConfig{Days: sc.TaoDays, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Related work (§9): distributed k-medoids vs ELink on Tao data",
		XLabel:  "delta",
		Columns: []string{"elink-clusters", "kmedoids-clusters", "elink-messages", "kmedoids-messages"},
		Notes:   []string{sc.note()},
	}
	for _, delta := range ds.Deltas {
		el, err := elink.Run(ds.Graph, elink.Config{Delta: delta, Metric: ds.Metric, Features: ds.Features, Mode: elink.Implicit, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		km, err := baseline.KMedoids(ds.Graph, baseline.KMedoidsConfig{Delta: delta, Metric: ds.Metric, Features: ds.Features, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(delta,
			float64(el.Clustering.NumClusters()), float64(km.Clustering.NumClusters()),
			float64(el.Stats.Messages), float64(km.Stats.Messages))
	}
	return t, nil
}
