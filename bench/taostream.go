package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"elink"
	"elink/internal/detrand"
)

// taoConfig sizes the Tao stream: a rows×cols buoy grid streamed one raw
// reading per node per 10-minute epoch into an engine that re-clusters
// every period epochs. At δ=0.2 the stream takes all three epoch paths
// (index refresh, index rebuild after detaches, periodic re-cluster);
// at δ=0.4 no node ever detaches.
type taoConfig struct {
	rows, cols, days int
	delta            float64
	period           int
	warmup           int
	rebuilds         int // index rebuilds in a typical period, for work_s
	countEpochs      int // exact counters are read after this many timed epochs
	validateEvery    int // epochs between Snapshot.Validate checks
}

// Over seeds 1–10 the stream rebuilt the index 18–39 times in its first
// 1000 timed epochs: about 6 per 200-epoch period.
var taoStreamConfig = taoConfig{rows: 40, cols: 50, days: 30, delta: 0.2, period: 200, warmup: 144,
	rebuilds: 6, countEpochs: 1000, validateEvery: 500}

func (c taoConfig) engine() elink.EngineConfig {
	return elink.EngineConfig{
		Order:     2,
		Delta:     c.delta,
		Slack:     c.delta / 10,
		Metric:    elink.Euclidean(),
		Seed:      1,
		Policy:    elink.PolicyPeriodic,
		Period:    c.period,
		WarmupObs: c.warmup,
	}
}

// taoQuery is one pre-drawn query against the live snapshot: a range
// query around a node's current feature, or a path query avoiding one.
type taoQuery struct {
	node, initiator, src, dst int
	frac                      float64 // radius or gamma as a share of δ
}

const (
	rangesPerEpoch = 4
	pathsPerEpoch  = 1
)

func taoStream(r *run) error { return runTao(r, taoStreamConfig) }

func runTao(r *run, c taoConfig) error {
	var ds *elink.Dataset
	d, err := r.untimed("data.generate", func() (err error) {
		ds, err = elink.GenerateTao(elink.TaoGenConfig{Rows: c.rows, Cols: c.cols, Days: c.days, Seed: r.opts.seed})
		return err
	})
	if err != nil {
		return err
	}
	r.add("data.gen_s", d.Seconds())
	g, series := ds.Graph, ds.Series
	n, steps := g.N(), len(ds.Series[0])
	cfg := c.engine()
	m := cfg.Metric

	rng := detrand.New(r.opts.seed)
	plan := make([]taoQuery, (steps-c.warmup)*(rangesPerEpoch+pathsPerEpoch))
	for i := range plan {
		plan[i] = taoQuery{node: rng.Intn(n), initiator: rng.Intn(n), src: rng.Intn(n), dst: rng.Intn(n), frac: 0.3 + 0.6*rng.Float64()}
	}
	buf := make([]elink.Reading, n)
	batch := func(epoch int) []elink.Reading {
		for u := range buf {
			buf[u] = elink.Reading{Node: elink.NodeID(u), Value: series[u][epoch]}
		}
		return buf
	}

	// Set-up: a fresh engine through the warm-up epochs and the bootstrap
	// clustering, seven times; the last engine streams the rest.
	var e *elink.Engine
	var setups []float64
	for i := 0; i < 7; i++ {
		d, err := r.untimed("stream.bootstrap", func() error {
			var err error
			if e, err = elink.NewEngine(g, cfg); err != nil {
				return err
			}
			for epoch := 0; epoch < c.warmup; epoch++ {
				if _, err := e.Ingest(batch(epoch)); err != nil {
					return err
				}
			}
			if !e.Ready() {
				return fmt.Errorf("engine not ready after %d warm-up epochs", c.warmup)
			}
			return nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups))

	paths := map[string][]float64{} // ingest latencies by epoch path
	start := time.Now()
	timed := 0
	for epoch := c.warmup; epoch < steps && (timed < c.countEpochs || time.Since(start) < r.opts.seconds); epoch++ {
		b := batch(epoch)
		var res *elink.IngestResult
		ms := r.op("stream.ingest", func() (err error) {
			res, err = e.Ingest(b)
			return err
		})
		if res == nil {
			continue
		}
		paths[epochPath(res)] = append(paths[epochPath(res)], ms)

		snap := e.Snapshot()
		for i, q := range plan[timed*(rangesPerEpoch+pathsPerEpoch):][:rangesPerEpoch+pathsPerEpoch] {
			if i < rangesPerEpoch {
				taoRange(r, e, snap, m, q.frac*c.delta, q)
			} else {
				taoPath(r, e, snap, m, q.frac*c.delta, q)
			}
		}
		timed++
		if timed%c.validateEvery == 0 {
			r.check(func() error { return snap.Validate(g, m, 2*c.delta) })
		}
		if timed == c.countEpochs {
			st := e.Stats()
			r.set("elink.msgs", float64(st.BootstrapMsgs+st.ReclusterMsgs))
			r.set("index.msgs", float64(st.IndexRepairMsgs+st.IndexRebuildMsgs))
			r.set("update.msgs", float64(st.MaintenanceMsgs))
			r.set("query.msgs", float64(st.QueryMsgs))
			sc := st.Screening
			r.set("update.silenced_ratio", float64(sc.ScreenedA1+sc.ScreenedA2+sc.ScreenedA3)/float64(sc.Updates))
			r.set("stream.refresh_epochs", float64(len(paths["refresh"])))
			r.set("stream.rebuild_epochs", float64(len(paths["rebuild"])))
			r.set("stream.recluster_epochs", float64(len(paths["recluster"])))
			r.detail("index.repair_msgs", float64(st.IndexRepairMsgs), "msgs", timed)
			r.detail("index.rebuild_msgs", float64(st.IndexRebuildMsgs), "msgs", timed)
			r.detail("elink.recluster_msgs", float64(st.ReclusterMsgs), "msgs", timed)
			taoRoundTrip(r, e, g, m)
		}
	}
	if timed < c.countEpochs {
		return fmt.Errorf("the stream has %d timed epochs, fewer than %d", timed, c.countEpochs)
	}

	work, err := c.periodWork(paths)
	if err != nil {
		return err
	}
	r.set("work_s", work)
	ingest := r.lat["stream.ingest"]
	var ingestMs float64
	for _, ms := range ingest {
		ingestMs += ms
	}
	r.detail("epochs_per_s", float64(len(ingest))/(ingestMs/1000), "1/s", len(ingest))
	r.detail("epoch_p95_ms", quantile(ingest, 0.95), "ms", len(ingest))
	for _, kind := range []string{"refresh", "rebuild", "recluster"} {
		r.detail("stream."+kind+"_epoch_ms", median(paths[kind]), "ms", len(paths[kind]))
	}
	queries := append(append([]float64(nil), r.lat["query.range"]...), r.lat["query.path"]...)
	r.detail("query_p50_ms", median(queries), "ms", len(queries))
	r.detail("query_p99_ms", quantile(queries, 0.99), "ms", len(queries))
	return nil
}

// periodWork is the cost in seconds of one re-cluster period at a fixed
// epoch mix — one re-cluster, c.rebuilds index rebuilds, the rest index
// refreshes — each at its path's lower-quartile latency in ms. The mix
// is fixed so that how often the seed's data makes nodes detach stays
// out of work_s; the stream.*_epochs counts report it exactly.
func (c taoConfig) periodWork(paths map[string][]float64) (float64, error) {
	weights := map[string]int{"recluster": 1, "rebuild": c.rebuilds, "refresh": c.period - 1 - c.rebuilds}
	var ms float64
	for path, w := range weights {
		if w == 0 {
			continue
		}
		if len(paths[path]) == 0 {
			return 0, fmt.Errorf("no %s epoch was measured", path)
		}
		ms += float64(w) * quantile(paths[path], lowQuantile)
	}
	return ms / 1000, nil
}

// epochPath names the path an ingested epoch took through the engine: a
// policy re-cluster, an index rebuild after nodes detached, or an
// in-place index refresh.
func epochPath(res *elink.IngestResult) string {
	switch {
	case res.Reclustered:
		return "recluster"
	case res.Detaches > 0:
		return "rebuild"
	}
	return "refresh"
}

func taoRange(r *run, e *elink.Engine, snap *elink.EngineSnapshot, m elink.Metric, radius float64, q taoQuery) {
	target := snap.Features[q.node]
	var res *elink.RangeResult
	r.op("query.range", func() (err error) {
		res, err = e.RangeQuery(target, radius, elink.NodeID(q.initiator))
		return err
	})
	if res != nil {
		r.check(func() error { return checkRange(snap.Features, m, target, radius, res.Matches) })
	}
}

func taoPath(r *run, e *elink.Engine, snap *elink.EngineSnapshot, m elink.Metric, gamma float64, q taoQuery) {
	danger := snap.Features[q.node]
	src, dst := elink.NodeID(q.src), elink.NodeID(q.dst)
	var res *elink.PathResult
	r.op("query.path", func() (err error) {
		res, err = e.PathQuery(danger, gamma, src, dst)
		return err
	})
	if res != nil {
		r.check(func() error { return checkPath(e.Graph(), snap.Features, m, danger, gamma, src, dst, res) })
	}
}

// taoRoundTrip saves the engine's snapshot, restores it into a fresh
// engine and checks that the copy has the same epoch and answers a query
// the same way.
func taoRoundTrip(r *run, e *elink.Engine, g *elink.Graph, m elink.Metric) {
	var buf bytes.Buffer
	r.op("persist.snapshot", func() error {
		_, err := e.SaveSnapshot(&buf)
		return err
	})
	r.set("persist.snapshot_bytes", float64(buf.Len()))
	restored, err := elink.NewEngine(g, e.Config())
	if err != nil {
		r.fail(err)
		return
	}
	r.op("persist.restore", func() error { return restored.Restore(bytes.NewReader(buf.Bytes())) })
	r.check(func() error {
		a, b := e.Snapshot(), restored.Snapshot()
		if b == nil || a.Epoch != b.Epoch {
			return fmt.Errorf("restored engine is not at epoch %d", a.Epoch)
		}
		q, radius := a.Features[0], 0.5*e.Config().Delta
		x, err1 := e.RangeQuery(q, radius, 0)
		y, err2 := restored.RangeQuery(q, radius, 0)
		if err1 != nil || err2 != nil || !slices.Equal(x.Matches, y.Matches) {
			return fmt.Errorf("restored engine answers a range query differently (%v, %v)", err1, err2)
		}
		return nil
	})
}
