package main

import (
	"fmt"
	"runtime"
	"time"

	"elink"
	"elink/internal/experiments"
)

// quickFigures are the paper and analysis figures at QuickScale, in the
// order elink-experiments prints them. The bench figures (obs, spans,
// routes, parbench, persistbench, eigensparse) are left out: they time
// themselves.
var quickFigures = []struct {
	name string
	run  func(experiments.Scale) (*experiments.Table, error)
}{
	{"fig08", experiments.Fig08},
	{"fig09", experiments.Fig09},
	{"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11},
	{"fig12", experiments.Fig12},
	{"fig13", experiments.Fig13},
	{"fig14", experiments.Fig14},
	{"fig15", experiments.Fig15},
	{"path", experiments.PathQueries},
	{"complexity", experiments.Complexity},
	{"ablation-unordered", experiments.AblationUnordered},
	{"ablation-switches", experiments.AblationSwitches},
	{"ablation-phi", experiments.AblationPhi},
	{"kmedoids", experiments.KMedoidsComparison},
	{"recluster", experiments.ReclusterPolicy},
	{"sampling", experiments.RepresentativeSampling},
	{"hotspot", experiments.HotspotSpread},
	{"optimality", experiments.OptimalityGap},
}

// figuresQuick is the researcher's regression loop: every quick figure,
// serially, pass after pass until the run's time is up (at least two
// passes, so the tables can be compared).
func figuresQuick(r *run) error { return runFigures(r, experiments.QuickScale()) }

func runFigures(r *run, sc experiments.Scale) error {
	const minPasses = 2
	sc.Seed = r.opts.seed
	var setups []float64
	for i := 0; i < 15; i++ {
		d, err := r.untimed("data.generate", func() error { return quickInputs(sc) })
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		r.add("data.gen_s", d.Seconds())
	}
	r.set("setup_s", median(setups))

	tables := make(map[string]string)
	var passMs []float64
	start := time.Now()
	for len(passMs) < minPasses || time.Since(start) < r.opts.seconds {
		var ms float64
		for _, f := range quickFigures {
			// Each figure starts from a collected heap, so the process's
			// peak RSS is the largest figure's own and not an accident of
			// when the collector last ran (it spread 25–38 MB without).
			r.untimed("bench.gc", func() error {
				runtime.GC()
				return nil
			})
			var tbl *experiments.Table
			ms += r.op("experiments."+f.name, func() (err error) {
				tbl, err = f.run(sc)
				return err
			})
			if tbl == nil {
				continue
			}
			r.check(func() error {
				text := tbl.String()
				if prev, ok := tables[f.name]; ok && prev != text {
					return fmt.Errorf("%s: table differs between passes", f.name)
				}
				tables[f.name] = text
				return nil
			})
		}
		passMs = append(passMs, ms)
	}
	r.set("work_s", cycleWork(r.lat, len(passMs)))
	// The researcher's request is the whole pass, not one figure.
	r.set("op_ms", quantile(passMs, lowQuantile))
	return nil
}

// quickInputs generates, through the data layer, the datasets the quick
// figures read: Tao, every Death Valley topology and the largest
// synthetic network.
func quickInputs(sc experiments.Scale) error {
	if _, err := elink.GenerateTao(elink.TaoGenConfig{Days: sc.TaoDays, Seed: sc.Seed}); err != nil {
		return err
	}
	for topo := 0; topo < sc.DVTopologies; topo++ {
		if _, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: sc.DVNodes, Seed: sc.Seed + int64(topo)}); err != nil {
			return err
		}
	}
	n := sc.SynSizes[len(sc.SynSizes)-1]
	_, err := elink.GenerateSynthetic(elink.SyntheticGenConfig{Nodes: n, Readings: sc.SynReadings, Seed: sc.Seed})
	return err
}
