package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"elink/internal/data"
	"elink/internal/detrand"
	"elink/internal/metric"
	"elink/internal/par"
	"elink/internal/query"
	"elink/internal/stream"
	"elink/internal/topology"
)

// updateGolden (-update) rewrites the committed goldens from the current code. A change
// that moves a golden names the changed rows and the reason in
// CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current output")

// checkGoldenFile compares got with testdata/name, or rewrites the file
// under -update.
func checkGoldenFile(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
		t.Fatalf("%s differs (go test ./internal/experiments -update rewrites it)", path)
	}
}

// TestQuickFiguresGolden renders every figure at quick scale, seed 1, on
// one worker, exactly as elink-experiments -csv prints them, and
// compares the bytes with the committed output. CSV carries no wall
// times, so every figure value — message counts included — is pinned.
func TestQuickFiguresGolden(t *testing.T) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	var buf bytes.Buffer
	for _, f := range Figures {
		tbl, err := f.Run(QuickScale())
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if err := tbl.WriteCSVBlock(&buf); err != nil {
			t.Fatal(err)
		}
	}
	checkGoldenFile(t, "quick.csv", buf.Bytes())
}

// TestStreamCostsGolden replays a short Tao stream through stream.Engine
// on the 6×9 Tao buoy grid of Example_streaming, with range and path queries
// against every epoch's snapshot, and pins its exact costs: messages by
// layer, the query charges by kind, the epoch paths taken and the
// snapshot size. The configuration takes all three epoch paths (index
// refresh, rebuild after detaches, periodic re-cluster).
func TestStreamCostsGolden(t *testing.T) {
	const (
		days, warmup, period = 6, 144, 120
		delta                = 0.2
		ranges               = 4 // range queries per epoch, then one path query
	)
	ds, err := data.Tao(data.TaoConfig{Days: days, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, n := ds.Graph, ds.Graph.N()
	e, err := stream.New(g, stream.Config{
		Order: 2, Delta: delta, Slack: delta / 10, Metric: metric.Euclidean{},
		Seed: 1, Policy: stream.PolicyPeriodic, Period: period, WarmupObs: warmup,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := detrand.New(1)
	batch := make([]stream.Reading, n)
	epochs := map[string]int64{}
	kinds := []string{query.KindQueryRoute, query.KindBackbone, query.KindDescend}
	rangeCost, pathCost := map[string]int64{}, map[string]int64{}
	var matches, found int64
	for step := range ds.Series[0] {
		for u := range batch {
			batch[u] = stream.Reading{Node: topology.NodeID(u), Value: ds.Series[u][step]}
		}
		res, err := e.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if step < warmup {
			continue
		}
		switch {
		case res.Reclustered:
			epochs["recluster"]++
		case res.Detaches > 0:
			epochs["rebuild"]++
		default:
			epochs["refresh"]++
		}
		snap := e.Snapshot()
		for i := 0; i <= ranges; i++ {
			target := snap.Features[rng.Intn(n)]
			frac := 0.3 + 0.6*rng.Float64()
			if i < ranges {
				rr, err := e.RangeQuery(target, frac*delta, topology.NodeID(rng.Intn(n)))
				if err != nil {
					t.Fatal(err)
				}
				matches += int64(len(rr.Matches))
				for _, k := range kinds {
					rangeCost[k] += rr.Stats.Breakdown[k]
				}
				continue
			}
			pr, err := e.PathQuery(target, frac*delta, topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n)))
			if err != nil {
				t.Fatal(err)
			}
			if pr.Found {
				found++
			}
			for _, k := range kinds {
				pathCost[k] += pr.Stats.Breakdown[k]
			}
		}
	}
	st := e.Stats()
	var snapBuf bytes.Buffer
	info, err := e.SaveSnapshot(&snapBuf)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "# Tao replay, 6x9 grid, %d days, seed 1: order 2, delta %g, periodic re-cluster every %d epochs, %d range + 1 path queries per epoch\n",
		days, delta, period, ranges)
	row := func(name string, v int64) { fmt.Fprintf(&out, "%-24s %d\n", name, v) }
	row("elink.msgs", st.BootstrapMsgs+st.ReclusterMsgs)
	row("index.msgs", st.IndexRepairMsgs+st.IndexRebuildMsgs)
	row("update.msgs", st.MaintenanceMsgs)
	row("query.msgs", st.QueryMsgs)
	for _, k := range kinds {
		row("query.range."+k, rangeCost[k])
	}
	for _, k := range kinds {
		row("query.path."+k, pathCost[k])
	}
	row("query.range.matches", matches)
	row("query.path.found", found)
	for _, p := range []string{"refresh", "rebuild", "recluster"} {
		row("stream."+p+"_epochs", epochs[p])
	}
	row("persist.snapshot_bytes", info.Bytes)
	checkGoldenFile(t, "stream.golden", out.Bytes())
	for _, p := range []string{"refresh", "rebuild", "recluster"} {
		if epochs[p] == 0 {
			t.Errorf("the replay took no %s epoch", p)
		}
	}
}
