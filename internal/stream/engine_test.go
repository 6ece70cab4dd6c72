package stream

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"elink/internal/ar"
	"elink/internal/data"
	"elink/internal/elink"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/query"
	"elink/internal/topology"
)

// featEngine builds an Order-0 engine and bootstraps it from the given
// features in one IngestFeatures batch.
func featEngine(t *testing.T, g *topology.Graph, feats []metric.Feature, cfg Config) *Engine {
	t.Helper()
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]FeatureUpdate, len(feats))
	for u := range feats {
		batch[u] = FeatureUpdate{Node: topology.NodeID(u), Feature: feats[u]}
	}
	res, err := e.IngestFeatures(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ready || res.Epoch != 1 {
		t.Fatalf("bootstrap batch: %+v, want ready at epoch 1", res)
	}
	return e
}

// twoClusterEngine is the stream-path analogue of update's
// twoClusterSetup: path graph 0-1-2-3-4-5, two tight feature groups.
func twoClusterEngine(t *testing.T, policy ReclusterPolicy) *Engine {
	t.Helper()
	g := topology.NewGrid(1, 6)
	feats := []metric.Feature{{0}, {0.1}, {0.2}, {10}, {10.1}, {10.2}}
	e := featEngine(t, g, feats, Config{
		Delta: 2, Slack: 0.1, Metric: metric.Scalar{}, Policy: policy, Seed: 1,
	})
	if n := e.Snapshot().NumClusters(); n != 2 {
		t.Fatalf("bootstrap produced %d clusters, want 2", n)
	}
	return e
}

// mustValidate checks the snapshot with the shared cluster validators.
// Fresh clusterings are pairwise δ−2Δ-compact; maintained epochs only
// guarantee member-to-root ≤ δ, so pairwise 2δ.
func mustValidate(t *testing.T, e *Engine, bound float64) {
	t.Helper()
	s := e.Snapshot()
	if s == nil {
		t.Fatal("no snapshot")
	}
	if err := s.Validate(e.Graph(), e.Config().Metric, bound); err != nil {
		t.Fatalf("epoch %d: %v", s.Epoch, err)
	}
}

func TestBootstrapFromReadings(t *testing.T) {
	g := topology.NewGrid(4, 4)
	rng := rand.New(rand.NewSource(3))
	// Two dynamics regimes: left half AR(1) alpha=0.2, right alpha=0.8.
	alpha := make([]float64, g.N())
	series := make([][]float64, g.N())
	for u := 0; u < g.N(); u++ {
		alpha[u] = 0.2
		if g.Pos[u].X >= 2 {
			alpha[u] = 0.8
		}
		series[u] = ar.Simulate([]float64{alpha[u]}, 120, []float64{1}, func() float64 { return rng.NormFloat64() * 0.2 })
	}
	delta := 0.3
	e, err := New(g, Config{
		Order: 1, Delta: delta, Slack: 0.03, Metric: metric.Scalar{},
		WarmupObs: 60, Policy: PolicyAdaptive, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RangeQuery(metric.Feature{0.5}, 0.1, 0); !errors.Is(err, ErrNotReady) {
		t.Fatalf("query before warmup: err=%v, want ErrNotReady", err)
	}

	// Stream 12 batches of 10 readings per node; warmup crosses at 60.
	var ready bool
	for b := 0; b < 12; b++ {
		var batch []Reading
		for u := 0; u < g.N(); u++ {
			for k := 0; k < 10; k++ {
				batch = append(batch, Reading{Node: topology.NodeID(u), Value: series[u][b*10+k]})
			}
		}
		res, err := e.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if b < 5 && (res.Ready || e.Snapshot() != nil) {
			t.Fatalf("batch %d: engine ready before warmup", b)
		}
		if res.Ready && !ready {
			ready = true
			// Right after a full run the clustering is δ−2Δ-compact.
			mustValidate(t, e, delta-2*0.03)
		} else if ready {
			mustValidate(t, e, 2*delta)
		}
	}
	if !ready || !e.Ready() {
		t.Fatal("engine never bootstrapped")
	}

	// The two dynamics regimes must have separated: alpha estimates
	// differ by ~0.6 > δ, so 0 and 15 cannot share a cluster.
	s := e.Snapshot()
	if s.Clustering.ClusterOf(0) == s.Clustering.ClusterOf(15) {
		t.Errorf("nodes with alpha 0.2 and 0.8 ended in the same cluster (feats %v vs %v)",
			s.Features[0], s.Features[15])
	}

	// Queries agree with central brute force on the same snapshot.
	got, err := e.RangeQuery(s.Features[0], 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := query.BruteForce(s.Features, metric.Scalar{}, s.Features[0], 0.1)
	if !reflect.DeepEqual(got.Matches, want) {
		t.Errorf("range matches %v, want %v", got.Matches, want)
	}

	st := e.Stats()
	if st.Readings != int64(12*10*g.N()) {
		t.Errorf("Readings = %d, want %d", st.Readings, 12*10*g.N())
	}
	// The pre-warmup query was rejected and must not be counted.
	if st.BootstrapMsgs == 0 || st.Epochs == 0 || st.RangeQueries != 1 {
		t.Errorf("stats = %+v, want bootstrap cost, epochs and 1 recorded range query", st)
	}
}

// TestAdjacentSimultaneousDrift pushes drift on the two boundary nodes of
// adjacent clusters in one epoch: one detaches and is adopted by the
// neighbouring cluster (detach-then-merge within a single epoch), the
// other absorbs a root update.
func TestAdjacentSimultaneousDrift(t *testing.T) {
	e := twoClusterEngine(t, PolicyNever)
	res, err := e.IngestFeatures([]FeatureUpdate{
		{Node: 2, Feature: metric.Feature{10.05}}, // jumps to the right regime
		{Node: 3, Feature: metric.Feature{10.3}},  // drifts inside its own
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detaches != 1 {
		t.Errorf("detaches = %d, want 1", res.Detaches)
	}
	if res.NumClusters != 2 {
		t.Errorf("clusters = %d, want 2 (detached node re-homed)", res.NumClusters)
	}
	s := e.Snapshot()
	if s.Clustering.ClusterOf(2) != s.Clustering.ClusterOf(3) {
		t.Error("node 2 was not adopted by the adjacent cluster")
	}
	if c := e.Stats().Screening; c.Rejoins != 1 {
		t.Errorf("screening = %+v, want one rejoin", c)
	}
	mustValidate(t, e, 2*2)
}

// TestClusterShrinksToSingleton empties a 3-node cluster down to a
// singleton in one epoch: the mid node detaches (stranding the far node),
// and every surviving fragment must stay a connected, compact cluster.
func TestClusterShrinksToSingleton(t *testing.T) {
	e := twoClusterEngine(t, PolicyNever)
	res, err := e.IngestFeatures([]FeatureUpdate{
		{Node: 1, Feature: metric.Feature{10.1}},
		{Node: 2, Feature: metric.Feature{10.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 cannot rejoin through old-cluster neighbours => singleton;
	// node 2 is stranded from its root and splits off.
	if res.NumClusters != 4 {
		t.Errorf("clusters = %d, want 4 ({0} {1} {2} {3,4,5})", res.NumClusters)
	}
	s := e.Snapshot()
	for _, members := range s.Clustering.Members {
		if len(members) == 3 && members[0] == 0 {
			t.Error("left cluster did not shrink")
		}
	}
	if c := e.Stats().Screening; c.Singletons < 1 {
		t.Errorf("screening = %+v, want at least one singleton", c)
	}
	mustValidate(t, e, 2*2)
}

// TestAdaptiveReclusterHealsFragmentation runs the same shrink scenario
// under PolicyAdaptive: fragmentation (4 clusters from 2) crosses the 1.5
// factor and a full ELink run heals the clustering in the same epoch.
func TestAdaptiveReclusterHealsFragmentation(t *testing.T) {
	e := twoClusterEngine(t, PolicyAdaptive)
	res, err := e.IngestFeatures([]FeatureUpdate{
		{Node: 1, Feature: metric.Feature{10.1}},
		{Node: 2, Feature: metric.Feature{10.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reclustered {
		t.Fatal("adaptive policy did not trigger a recluster")
	}
	if res.NumClusters != 2 {
		t.Errorf("clusters after recluster = %d, want 2 ({0} {1..5})", res.NumClusters)
	}
	st := e.Stats()
	if st.Reclusters != 1 || st.ReclusterMsgs == 0 {
		t.Errorf("stats = %+v, want one charged recluster", st)
	}
	// Fresh run: the tightened threshold holds pairwise.
	mustValidate(t, e, 2-2*0.1)
}

// TestPeriodicPolicy re-clusters on the configured epoch period.
func TestPeriodicPolicy(t *testing.T) {
	g := topology.NewGrid(1, 6)
	feats := []metric.Feature{{0}, {0.1}, {0.2}, {10}, {10.1}, {10.2}}
	e := featEngine(t, g, feats, Config{
		Delta: 2, Slack: 0.1, Metric: metric.Scalar{}, Policy: PolicyPeriodic, Period: 3, Seed: 1,
	})
	reclusters := 0
	for i := 0; i < 9; i++ {
		res, err := e.IngestFeatures([]FeatureUpdate{{Node: 0, Feature: metric.Feature{float64(i) * 0.01}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reclustered {
			reclusters++
		}
	}
	if reclusters != 3 {
		t.Errorf("periodic policy reclustered %d times over 9 epochs with period 3, want 3", reclusters)
	}
}

// TestSnapshotImmutableUnderIngest pins a snapshot, keeps ingesting, and
// checks the pinned epoch still answers identically and validates.
func TestSnapshotImmutableUnderIngest(t *testing.T) {
	e := twoClusterEngine(t, PolicyNever)
	pinned := e.Snapshot()
	q := metric.Feature{10.1}
	before := query.Range(pinned.Index, q, 0.15, 0, nil)

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		var batch []FeatureUpdate
		for u := 0; u < 6; u++ {
			f := pinned.Features[u].Clone()
			f[0] += rng.NormFloat64() * 0.5 * float64(i)
			batch = append(batch, FeatureUpdate{Node: topology.NodeID(u), Feature: f})
		}
		if _, err := e.IngestFeatures(batch); err != nil {
			t.Fatal(err)
		}
	}
	after := query.Range(pinned.Index, q, 0.15, 0, nil)
	if !reflect.DeepEqual(before.Matches, after.Matches) || before.Stats.Messages != after.Stats.Messages {
		t.Errorf("pinned snapshot changed answers: %v/%d msgs vs %v/%d msgs",
			before.Matches, before.Stats.Messages, after.Matches, after.Stats.Messages)
	}
	if err := pinned.Validate(e.Graph(), metric.Scalar{}, 2*2); err != nil {
		t.Errorf("pinned snapshot no longer validates: %v", err)
	}
	if cur := e.Snapshot(); cur.Epoch != pinned.Epoch+20 {
		t.Errorf("current epoch %d, want %d", cur.Epoch, pinned.Epoch+20)
	}
}

// TestConcurrentIngestAndQueries is the engine's race acceptance test:
// concurrent query goroutines run against live snapshots while ingest
// applies >= 100 batches, and every post-epoch clustering validates.
func TestConcurrentIngestAndQueries(t *testing.T) {
	g := topology.NewGrid(6, 6)
	n := g.N()
	feats := make([]metric.Feature, n)
	for u := 0; u < n; u++ {
		v := 0.0
		if g.Pos[u].X >= 3 {
			v = 4
		}
		feats[u] = metric.Feature{v + float64(u%3)*0.1}
	}
	delta := 2.0
	e := featEngine(t, g, feats, Config{
		Delta: delta, Slack: 0.2, Metric: metric.Scalar{}, Policy: PolicyAdaptive, Seed: 2,
	})

	const batches = 120
	const readers = 6
	const queriesPerReader = 25
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			for i := 0; i < queriesPerReader; i++ {
				s := e.Snapshot()
				qf := metric.Feature{rng.Float64() * 5}
				radius := 0.3 + rng.Float64()
				// Engine query for the serving path and its telemetry.
				if _, err := e.RangeQuery(qf, radius, topology.NodeID(rng.Intn(n))); err != nil {
					t.Error(err)
					return
				}
				// Snapshot-pinned query must agree with brute force over
				// the same frozen features.
				got := query.Range(s.Index, qf, radius, topology.NodeID(rng.Intn(n)), nil)
				want := query.BruteForce(s.Features, metric.Scalar{}, qf, radius)
				if !reflect.DeepEqual(got.Matches, want) {
					t.Errorf("snapshot range mismatch: got %v want %v", got.Matches, want)
					return
				}
				danger := metric.Feature{rng.Float64() * 5}
				pr, err := e.PathQuery(danger, 0.3, topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n)))
				if err != nil {
					t.Error(err)
					return
				}
				_ = pr
			}
		}(r)
	}

	// Keep ingesting until the readers have drained their query budgets,
	// with at least `batches` applied — so ingest and queries genuinely
	// overlap rather than the writer finishing before readers schedule.
	readersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(readersDone)
	}()
	rng := rand.New(rand.NewSource(77))
	cur := make([]float64, n)
	for u := range cur {
		cur[u] = feats[u][0]
	}
	applied := 0
	for {
		var batch []FeatureUpdate
		for u := 0; u < n; u++ {
			cur[u] += rng.NormFloat64() * 0.02
			batch = append(batch, FeatureUpdate{Node: topology.NodeID(u), Feature: metric.Feature{cur[u]}})
		}
		if _, err := e.IngestFeatures(batch); err != nil {
			t.Fatal(err)
		}
		mustValidate(t, e, 2*delta)
		applied++
		if applied >= batches {
			select {
			case <-readersDone:
			default:
				continue
			}
			break
		}
	}

	st := e.Stats()
	if st.Epochs != int64(applied)+1 {
		t.Errorf("epochs = %d, want %d", st.Epochs, applied+1)
	}
	if applied < batches {
		t.Errorf("applied %d batches, want >= %d", applied, batches)
	}
	if st.RangeQueries != readers*queriesPerReader || st.PathQueries != readers*queriesPerReader {
		t.Errorf("recorded %d range / %d path queries, want %d each",
			st.RangeQueries, st.PathQueries, readers*queriesPerReader)
	}
	if st.QueryMsgs == 0 || st.MaxQueryTime == 0 || st.QueryTime < st.MaxQueryTime {
		t.Errorf("query telemetry inconsistent: %+v", st)
	}
	if st.Updates != int64(applied*n) {
		t.Errorf("updates = %d, want %d", st.Updates, applied*n)
	}
	if st.Screening.Updates != applied*n {
		t.Errorf("screening.Updates = %d, want %d", st.Screening.Updates, applied*n)
	}
}

// TestAmortizationOnTaoReplay replays Tao-like days through the engine
// and checks the streaming update cost undercuts re-running full ELink
// clustering (plus index build) on every batch — the reason the engine
// exists.
func TestAmortizationOnTaoReplay(t *testing.T) {
	const days = 10
	const firstFit = 5
	const perDay = 144
	ds, err := data.Tao(data.TaoConfig{Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	featAt := make(map[int][]metric.Feature)
	for d := firstFit; d < days; d++ {
		feats := make([]metric.Feature, ds.Graph.N())
		for u := range feats {
			f, err := data.FitTaoModel(ds.Series[u][:(d+1)*perDay])
			if err != nil {
				t.Fatal(err)
			}
			feats[u] = f
		}
		featAt[d] = feats
	}

	delta := 0.12
	slack := 0.1 * delta
	e := featEngine(t, ds.Graph, featAt[firstFit], Config{
		Delta: delta, Slack: slack, Metric: ds.Metric, Policy: PolicyAdaptive, Seed: 7,
	})
	for d := firstFit + 1; d < days; d++ {
		batch := make([]FeatureUpdate, ds.Graph.N())
		for u := range batch {
			batch[u] = FeatureUpdate{Node: topology.NodeID(u), Feature: featAt[d][u]}
		}
		if _, err := e.IngestFeatures(batch); err != nil {
			t.Fatal(err)
		}
		mustValidate(t, e, 2*delta)
	}

	// The per-batch alternative: a fresh ELink run + index build per day.
	var full int64
	for d := firstFit + 1; d < days; d++ {
		res, err := elink.Run(ds.Graph, elink.Config{
			Delta: delta - 2*slack, Metric: ds.Metric, Features: featAt[d], Mode: elink.Implicit, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := index.Build(ds.Graph, res.Clustering, featAt[d], ds.Metric)
		if err != nil {
			t.Fatal(err)
		}
		full += res.Stats.Messages + idx.BuildStats.Messages
	}

	st := e.Stats()
	streaming := st.SteadyStateMsgs()
	if streaming >= full {
		t.Errorf("streaming cost %d >= per-batch recluster cost %d: amortization does not pay (stats %+v)",
			streaming, full, st)
	}
	t.Logf("streaming=%d msgs vs per-batch full recluster=%d msgs over %d days (%.1fx saving)",
		streaming, full, days-firstFit-1, float64(full)/float64(streaming))
}

func TestConfigAndInputValidation(t *testing.T) {
	g := topology.NewGrid(2, 2)
	sc := metric.Scalar{}
	bad := []Config{
		{Order: -1, Delta: 1, Metric: sc},
		{Order: 1, Delta: 0, Metric: sc},
		{Order: 1, Delta: 1},
		{Order: 1, Delta: 1, Slack: 0.5, Metric: sc},  // 2Δ == δ
		{Order: 1, Delta: 1, Slack: -0.1, Metric: sc}, // negative slack
	}
	for i, cfg := range bad {
		if _, err := New(g, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	if _, err := New(nil, Config{Order: 1, Delta: 1, Metric: sc}); err == nil {
		t.Error("nil graph accepted")
	}

	e, err := New(g, Config{Order: 0, Delta: 1, Metric: sc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]Reading{{Node: 0, Value: 1}}); err == nil {
		t.Error("Order-0 engine accepted raw readings")
	}
	if _, err := e.IngestFeatures([]FeatureUpdate{{Node: 99, Feature: metric.Feature{1}}}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := e.IngestFeatures([]FeatureUpdate{{Node: 0}}); err == nil {
		t.Error("empty feature accepted")
	}

	e2, err := New(g, Config{Order: 2, Delta: 1, Metric: sc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Ingest([]Reading{{Node: -1, Value: 1}}); err == nil {
		t.Error("negative node accepted")
	}
	if e2.Snapshot() != nil {
		t.Error("snapshot exists before bootstrap")
	}
}
