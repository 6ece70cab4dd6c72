package elink_test

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"elink"
)

// These tests exercise the public facade end to end, the way a
// downstream user would.

func TestPublicQuickstartFlow(t *testing.T) {
	g := elink.NewGrid(6, 6)
	feats := make([]elink.Feature, g.N())
	for u := 0; u < g.N(); u++ {
		feats[u] = elink.Feature{float64(int(g.Pos[u].X) / 3)} // two halves
	}
	res, err := elink.Cluster(g, elink.Config{
		Delta:    0.5,
		Metric:   elink.Scalar(),
		Features: feats,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two feature plateaus: optimal is 2 clusters; ELink may split one
	// plateau between same-level sentinels (it approximates the optimum).
	if n := res.Clustering.NumClusters(); n < 2 || n > 4 {
		t.Fatalf("NumClusters = %d, want 2-4 for two plateaus", n)
	}
	if err := res.Clustering.Validate(g, feats, elink.Scalar(), 0.5, 1e-9); err != nil {
		t.Fatal(err)
	}

	idx, err := elink.BuildIndex(g, res.Clustering, feats, elink.Scalar())
	if err != nil {
		t.Fatal(err)
	}
	r := elink.RangeQuery(idx, elink.Feature{0}, 0.1, 0)
	if len(r.Matches) != 18 {
		t.Errorf("range query matched %d nodes, want the 18 in the left half", len(r.Matches))
	}
	tag := elink.TAGCost(g)
	if r.Stats.Messages >= tag.Messages {
		t.Errorf("pruned query (%d msgs) should beat TAG (%d)", r.Stats.Messages, tag.Messages)
	}
}

func TestPublicAsyncAndBaselines(t *testing.T) {
	ds, err := elink.GenerateSynthetic(elink.SyntheticGenConfig{Nodes: 50, Readings: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// An asynchronous network: explicit signalling under seeded random
	// hop delays.
	res, err := elink.Cluster(ds.Graph, elink.Config{
		Delta: 0.2, Metric: ds.Metric, Features: ds.Features,
		Mode: elink.Explicit, Delay: elink.AsynchronousDelay(0.1, 2.5), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering.Validate(ds.Graph, ds.Features, ds.Metric, 0.2, 1e-9); err != nil {
		t.Fatalf("asynchronous run: %v", err)
	}
	if _, err := elink.SpanningForestCluster(ds.Graph, elink.ForestConfig{
		Delta: 0.2, Metric: ds.Metric, Features: ds.Features,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := elink.HierarchicalCluster(ds.Graph, elink.HierConfig{
		Delta: 0.2, Metric: ds.Metric, Features: ds.Features,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := elink.SpectralCluster(ds.Graph, elink.SpectralConfig{
		Delta: 0.2, Metric: ds.Metric, Features: ds.Features, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicMaintainerFlow(t *testing.T) {
	g := elink.NewGrid(4, 4)
	feats := make([]elink.Feature, g.N())
	for i := range feats {
		feats[i] = elink.Feature{0}
	}
	delta, slack := 2.0, 0.3
	res, err := elink.Cluster(g, elink.Config{
		Delta: delta - 2*slack, Metric: elink.Scalar(), Features: feats,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := elink.NewMaintainer(g, res.Clustering, feats, elink.MaintainerConfig{
		Delta: delta, Slack: slack, Metric: elink.Scalar(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Update(5, elink.Feature{0.2})
	if m.Stats().Messages != 0 {
		t.Error("small update should be screened locally")
	}
	c := elink.NewCentralizedUpdater(g, 0, feats, elink.MaintainerConfig{
		Delta: delta, Slack: slack, Metric: elink.Scalar(),
	}, 1)
	c.Update(5, elink.Feature{5})
	if c.Stats().Messages == 0 {
		t.Error("centralized updater should ship the violation")
	}
}

func TestPublicDatasets(t *testing.T) {
	tao, err := elink.GenerateTao(elink.TaoGenConfig{Days: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tao.Graph.N() != 54 || len(tao.Features[0]) != 4 {
		t.Error("Tao dataset shape wrong")
	}
	dv, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dv.Graph.N() != 120 {
		t.Error("DeathValley dataset shape wrong")
	}
}

func TestPublicPathQuery(t *testing.T) {
	ds, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := elink.Cluster(ds.Graph, elink.Config{
		Delta: 200, Metric: ds.Metric, Features: ds.Features,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := elink.BuildIndex(ds.Graph, res.Clustering, ds.Features, ds.Metric)
	if err != nil {
		t.Fatal(err)
	}
	danger := elink.Feature{175} // the valley floor
	p := elink.PathQuery(idx, danger, 50, 0, elink.NodeID(ds.Graph.N()-1))
	f := elink.BFSFloodPath(ds.Graph, ds.Features, ds.Metric, danger, 50, 0, elink.NodeID(ds.Graph.N()-1))
	if p.Found != f.Found {
		t.Errorf("cluster path found=%v, flood found=%v", p.Found, f.Found)
	}
}

func TestRenderGridClusters(t *testing.T) {
	g := elink.NewGrid(2, 3)
	feats := []elink.Feature{{0}, {0}, {0}, {9}, {9}, {9}}
	res, err := elink.Cluster(g, elink.Config{Delta: 1, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	out := elink.RenderGridClusters(g, res.Clustering, 3)
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || len(lines[0]) != 3 {
		t.Fatalf("render shape wrong: %q", out)
	}
	// Top row one letter, bottom row another.
	if lines[0] != strings.Repeat(string(lines[0][0]), 3) || lines[1] != strings.Repeat(string(lines[1][0]), 3) {
		t.Errorf("rows should be uniform: %q", out)
	}
	if lines[0][0] == lines[1][0] {
		t.Errorf("the two plateaus should get different letters: %q", out)
	}
}

// End-to-end: generate terrain, cluster it, index it, and verify 40
// random range queries against brute force plus a path query against the
// flood baseline — the full pipeline a downstream user runs.
func TestEndToEndPipeline(t *testing.T) {
	ds, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 250, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := elink.Cluster(ds.Graph, elink.Config{
		Delta: 180, Metric: ds.Metric, Features: ds.Features, Mode: elink.Explicit, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering.Validate(ds.Graph, ds.Features, ds.Metric, 180, 1e-9); err != nil {
		t.Fatal(err)
	}
	idx, err := elink.BuildIndex(ds.Graph, res.Clustering, ds.Features, ds.Metric)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 40; i++ {
		q := elink.Feature{175 + rng.Float64()*1800}
		r := rng.Float64() * 400
		got := elink.RangeQuery(idx, q, r, elink.NodeID(rng.Intn(ds.Graph.N())))
		want := 0
		for _, f := range ds.Features {
			if ds.Metric.Distance(q, f) <= r {
				want++
			}
		}
		if len(got.Matches) != want {
			t.Fatalf("query %d: %d matches, want %d", i, len(got.Matches), want)
		}
	}
	p := elink.PathQuery(idx, elink.Feature{175}, 120, 0, elink.NodeID(ds.Graph.N()-1))
	f := elink.BFSFloodPath(ds.Graph, ds.Features, ds.Metric, elink.Feature{175}, 120, 0, elink.NodeID(ds.Graph.N()-1))
	if p.Found != f.Found {
		t.Errorf("path existence disagrees: cluster %v vs flood %v", p.Found, f.Found)
	}
	if p.Found && p.Stats.Messages >= f.Stats.Messages {
		t.Errorf("clustered path (%d msgs) should beat flooding (%d)", p.Stats.Messages, f.Stats.Messages)
	}
}

func TestFacadeHelpers(t *testing.T) {
	// Metrics.
	if d := elink.Euclidean().Distance(elink.Feature{0, 0}, elink.Feature{3, 4}); d != 5 {
		t.Errorf("Euclidean = %v", d)
	}
	if d := elink.Manhattan().Distance(elink.Feature{0}, elink.Feature{2}); d != 2 {
		t.Errorf("Manhattan = %v", d)
	}
	if d := elink.WeightedEuclidean(4).Distance(elink.Feature{0}, elink.Feature{1}); d != 2 {
		t.Errorf("WeightedEuclidean = %v", d)
	}
	// Delay models.
	if elink.AsynchronousDelay(0.5, 1.5) == nil {
		t.Error("AsynchronousDelay returned nil")
	}
	// Topology constructors.
	g := elink.NewRandomGeometric(30, 10, 2, 5)
	if g.N() != 30 || !g.Connected() {
		t.Error("NewRandomGeometric malformed")
	}
}

func TestFacadeKMedoidsAndTx(t *testing.T) {
	g := elink.NewGrid(4, 4)
	feats := make([]elink.Feature, g.N())
	for i := range feats {
		feats[i] = elink.Feature{float64(i % 2 * 10)}
	}
	res, err := elink.KMedoidsCluster(g, elink.KMedoidsConfig{Delta: 1, Metric: elink.Scalar(), Features: feats, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages == 0 {
		t.Error("k-medoids should charge broadcast traffic")
	}
	tx, err := elink.ClusterTxPerNode(g, elink.Config{Delta: 1, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range tx {
		total += v
	}
	cl, err := elink.Cluster(g, elink.Config{Delta: 1, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	if total != cl.Stats.Messages {
		t.Errorf("per-node tx sum %d != total messages %d", total, cl.Stats.Messages)
	}
}

func TestFacadeSVG(t *testing.T) {
	g := elink.NewGrid(2, 2)
	feats := []elink.Feature{{0}, {0}, {0}, {0}}
	res, err := elink.Cluster(g, elink.Config{Delta: 1, Metric: elink.Scalar(), Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := elink.WriteNetworkSVG(&b, g, res.Clustering, elink.SVGOptions{ShowEdges: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") {
		t.Error("no SVG produced")
	}
}

// Integration of §6 and §7: stream feature drift through the maintenance
// protocol while refreshing the index incrementally; range queries must
// stay exact against the live features the whole time.
func TestMaintenanceAndIndexStayConsistent(t *testing.T) {
	g := elink.NewRandomNetwork(60, 4, 13)
	rng := rand.New(rand.NewSource(13))
	feats := make([]elink.Feature, g.N())
	for i := range feats {
		feats[i] = elink.Feature{rng.Float64()}
	}
	delta, slack := 3.0, 0.3
	res, err := elink.Cluster(g, elink.Config{
		Delta: delta - 2*slack, Metric: elink.Scalar(), Features: feats,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := elink.NewMaintainer(g, res.Clustering, feats, elink.MaintainerConfig{
		Delta: delta, Slack: slack, Metric: elink.Scalar(),
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := elink.BuildIndex(g, res.Clustering, feats, elink.Scalar())
	if err != nil {
		t.Fatal(err)
	}

	cur := make([]float64, g.N())
	for i := range cur {
		cur[i] = feats[i][0]
	}
	for step := 0; step < 400; step++ {
		u := elink.NodeID(rng.Intn(g.N()))
		cur[u] += rng.NormFloat64() * 0.1
		f := elink.Feature{cur[u]}
		before := m.NumClusters()
		m.Update(u, f)
		if m.NumClusters() != before {
			// Membership changed: the incremental refresh no longer
			// applies; rebuild the index from the maintained clustering
			// (what a deployment would schedule).
			idx, err = elink.BuildIndex(g, m.Clustering(), currentFeatures(cur), elink.Scalar())
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := idx.Refresh([]elink.NodeID{u}, currentFeatures(cur)); err != nil {
			t.Fatal(err)
		}
		if step%50 == 0 {
			q := elink.Feature{rng.Float64()}
			r := rng.Float64() * 2
			got := elink.RangeQuery(idx, q, r, elink.NodeID(rng.Intn(g.N())))
			want := 0
			for _, v := range cur {
				if (elink.Scalar()).Distance(q, elink.Feature{v}) <= r {
					want++
				}
			}
			if len(got.Matches) != want {
				t.Fatalf("step %d: query returned %d matches, want %d", step, len(got.Matches), want)
			}
		}
	}
}

func currentFeatures(vals []float64) []elink.Feature {
	out := make([]elink.Feature, len(vals))
	for i, v := range vals {
		out[i] = elink.Feature{v}
	}
	return out
}

func TestPublicStreamingEngine(t *testing.T) {
	g := elink.NewGrid(4, 4)
	e, err := elink.NewEngine(g, elink.EngineConfig{
		Order:  1,
		Delta:  0.4,
		Slack:  0.04,
		Metric: elink.Scalar(),
		Policy: elink.PolicyAdaptive,
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RangeQuery(elink.Feature{0.5}, 0.1, 0); err != elink.ErrNotReady {
		t.Fatalf("query before warmup: err = %v, want ErrNotReady", err)
	}

	// Two AR(1) regimes: left half x_t = 0.3 x_{t-1} + eps, right 0.7.
	rng := rand.New(rand.NewSource(11))
	prev := make([]float64, g.N())
	for i := range prev {
		prev[i] = 1
	}
	var res *elink.IngestResult
	for step := 0; step < 30; step++ {
		batch := make([]elink.Reading, g.N())
		for u := 0; u < g.N(); u++ {
			alpha := 0.3
			if g.Pos[u].X >= 2 {
				alpha = 0.7
			}
			prev[u] = alpha*prev[u] + rng.NormFloat64()*0.1
			batch[u] = elink.Reading{Node: elink.NodeID(u), Value: prev[u]}
		}
		if res, err = e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !res.Ready || e.Snapshot() == nil {
		t.Fatal("engine did not bootstrap after 30 observations per node")
	}

	s := e.Snapshot()
	r, err := e.RangeQuery(s.Features[0], 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Matches) == 0 {
		t.Error("range query around node 0's own feature matched nothing")
	}
	if _, err := e.PathQuery(elink.Feature{99}, 0.5, 0, elink.NodeID(g.N()-1)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.RangeQueries != 1 || st.PathQueries != 1 || st.Epochs == 0 {
		t.Errorf("stats = %+v, want recorded queries and epochs", st)
	}
	if err := s.Validate(g, elink.Scalar(), 2*0.4); err != nil {
		t.Errorf("snapshot validation: %v", err)
	}
}

func TestPublicGenerateConfigs(t *testing.T) {
	ds, err := elink.GenerateTao(elink.TaoGenConfig{Days: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := elink.GenerateTao(elink.TaoGenConfig{Days: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Series) == 0 || len(ds.Series[0]) != len(ds2.Series[0]) {
		t.Fatal("generator returned inconsistent series")
	}
	for u := range ds.Series {
		for i := range ds.Series[u] {
			if ds.Series[u][i] != ds2.Series[u][i] {
				t.Fatalf("same seed produced different series at node %d step %d", u, i)
			}
		}
	}
	if _, err := elink.GenerateSynthetic(elink.SyntheticGenConfig{Nodes: 16, Readings: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := elink.GenerateDeathValley(elink.DeathValleyGenConfig{Nodes: 25, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestReadmeQuotesExample keeps README.md's quick start the exact source
// of Example, so the numbers it shows are the ones Example's Output
// block pins.
func TestReadmeQuotesExample(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(src), "\nfunc Example() {")
	body, _, ok2 := strings.Cut(body, "\n}\n")
	if !ok || !ok2 {
		t.Fatal("example_test.go: func Example() not found")
	}
	if body = "func Example() {" + body + "\n}\n"; !strings.Contains(string(readme), body) {
		t.Errorf("README.md's quick start is not a verbatim copy of Example:\n%s", body)
	}
}
