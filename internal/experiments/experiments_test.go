package experiments

import (
	"slices"
	"strings"
	"testing"
)

// The experiment harness is validated at QuickScale: every figure must
// produce a well-formed table, and the paper's qualitative shapes must
// hold even at the reduced scale.

func quick() Scale { return QuickScale() }

// column returns the series values of the named column of tbl, failing
// the test when tbl has no such column.
func column(t *testing.T, tbl *Table, name string) []float64 {
	t.Helper()
	idx := slices.Index(tbl.Columns, name)
	if idx < 0 {
		t.Fatalf("%s: no column %q in %v", tbl.Title, name, tbl.Columns)
	}
	out := make([]float64, len(tbl.Rows))
	for i, r := range tbl.Rows {
		out[i] = r.Values[idx]
	}
	return out
}

func TestTableBasics(t *testing.T) {
	tbl := &Table{Title: "t", XLabel: "x", Columns: []string{"a", "b"}}
	tbl.AddRow(1, 2, 3)
	tbl.AddRow(2, 4, 5)
	if got := column(t, tbl, "b"); len(got) != 2 || got[1] != 5 {
		t.Errorf("column(b) = %v", got)
	}
	s := tbl.String()
	if !strings.Contains(s, "== t ==") || !strings.Contains(s, "a") {
		t.Errorf("render = %q", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity should panic")
		}
	}()
	tbl.AddRow(3, 1)
}

func TestFig08Shapes(t *testing.T) {
	tbl, err := Fig08(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	elink := column(t, tbl, SeriesELinkImplicit)
	central := column(t, tbl, SeriesCentralized)
	forest := column(t, tbl, SeriesForest)
	// Cluster count must not increase with delta for every algorithm,
	// modulo small non-monotonic wiggles; check endpoints.
	if elink[0] < elink[len(elink)-1] {
		t.Errorf("elink clusters should shrink as delta grows: %v", elink)
	}
	// ELink should be comparable to centralized (within 2.5x) and no
	// worse than the forest overall.
	var eSum, cSum, fSum float64
	for i := range elink {
		eSum += elink[i]
		cSum += central[i]
		fSum += forest[i]
	}
	if eSum > 2.5*cSum+float64(len(elink)) {
		t.Errorf("elink total clusters %v vs centralized %v: too far from centralized quality", eSum, cSum)
	}
	if eSum > fSum {
		t.Errorf("elink total clusters %v should beat spanning forest %v", eSum, fSum)
	}
}

func TestFig09Runs(t *testing.T) {
	tbl, err := Fig09(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range tbl.Rows {
		for i, v := range r.Values {
			if v < 1 {
				t.Errorf("delta=%v series %s: %v clusters", r.X, tbl.Columns[i], v)
			}
		}
	}
}

func TestFig10ELinkBeatsCentralized(t *testing.T) {
	tbl, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	el := column(t, tbl, "elink-update")
	ce := column(t, tbl, "centralized-update")
	for i := range el {
		if el[i] > ce[i] {
			t.Errorf("slack row %d: elink update cost %v exceeds centralized %v", i, el[i], ce[i])
		}
	}
	// Both costs should fall (or stay flat) as slack loosens.
	if ce[0] < ce[len(ce)-1] {
		t.Errorf("centralized cost should shrink with slack: %v", ce)
	}
}

func TestFig11QualityDegradesWithSlack(t *testing.T) {
	tbl, err := Fig11(quick())
	if err != nil {
		t.Fatal(err)
	}
	el := column(t, tbl, SeriesELinkImplicit)
	// Larger slack tightens the initial delta, so the final count should
	// not decrease from the smallest to the largest slack.
	if el[len(el)-1] < el[0] {
		t.Errorf("elink cluster count should not improve with slack: %v", el)
	}
}

func TestFig12Ordering(t *testing.T) {
	tbl, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	lastRow := tbl.Rows[len(tbl.Rows)-1]
	raw := lastRow.Values[0]
	model := lastRow.Values[1]
	impl := lastRow.Values[2]
	// Fig 12's two orders of magnitude: raw >> model >> in-network.
	if !(raw > 5*model) {
		t.Errorf("raw shipping %v should dwarf model shipping %v", raw, model)
	}
	if !(model > 2*impl) {
		t.Errorf("model shipping %v should exceed elink in-network %v", model, impl)
	}
	// Cumulative series must be non-decreasing.
	for col := 0; col < len(tbl.Columns); col++ {
		series := column(t, tbl, tbl.Columns[col])
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Errorf("series %s decreases at row %d", tbl.Columns[col], i)
			}
		}
	}
}

func TestFig13ELinkScalesBest(t *testing.T) {
	tbl, err := Fig13(quick())
	if err != nil {
		t.Fatal(err)
	}
	el := column(t, tbl, SeriesELinkImplicit)
	ce := column(t, tbl, SeriesCentralized)
	hi := column(t, tbl, SeriesHierarchical)
	lastIdx := len(tbl.Rows) - 1
	if el[lastIdx] > ce[lastIdx] {
		t.Errorf("at the largest N, elink (%v) should beat centralized (%v)", el[lastIdx], ce[lastIdx])
	}
	if el[lastIdx] > hi[lastIdx] {
		t.Errorf("at the largest N, elink (%v) should beat hierarchical (%v)", el[lastIdx], hi[lastIdx])
	}
}

func TestFig14PruningBeatsTAG(t *testing.T) {
	tbl, err := Fig14(quick())
	if err != nil {
		t.Fatal(err)
	}
	el := column(t, tbl, SeriesELinkImplicit)
	tag := column(t, tbl, "tag")
	for i := range el {
		// The clustered search must beat TAG at every radius in the
		// sweep (the paper's gains reach 5x at the small end).
		if el[i] >= tag[i] {
			t.Errorf("radius row %d: elink query cost %v should beat TAG %v", i, el[i], tag[i])
		}
	}
	// With wholesale cluster inclusion the cost stays in a narrow band
	// across the radius sweep (see EXPERIMENTS.md); guard against wild
	// swings rather than monotonicity.
	if el[len(el)-1] > 1.5*el[0] || el[0] > 1.5*el[len(el)-1] {
		t.Errorf("query cost swings too much across radii: %v", el)
	}
}

func TestFig15Runs(t *testing.T) {
	tbl, err := Fig15(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 radius fractions", len(tbl.Rows))
	}
}

func TestPathQueriesClusterSearchWins(t *testing.T) {
	tbl, err := PathQueries(quick())
	if err != nil {
		t.Fatal(err)
	}
	el := column(t, tbl, "elink-path")
	fl := column(t, tbl, "bfs-flood")
	var eSum, fSum float64
	for i := range el {
		eSum += el[i]
		fSum += fl[i]
	}
	if eSum >= fSum {
		t.Errorf("clustered path search total %v should beat flooding %v", eSum, fSum)
	}
}

func TestComplexityWithinBounds(t *testing.T) {
	tbl, err := Complexity(quick())
	if err != nil {
		t.Fatal(err)
	}
	timeImp := column(t, tbl, "time-implicit")
	bound := column(t, tbl, "bound-2*kappa*alpha")
	msgs := column(t, tbl, "msgs-implicit-per-node")
	for i := range timeImp {
		// The schedule sums to < 2*kappa*alpha; expansion adds a bounded
		// tail. Allow 2x.
		if timeImp[i] > 2*bound[i] {
			t.Errorf("row %d: time %v far above bound %v", i, timeImp[i], bound[i])
		}
	}
	// O(N) messages: per-node cost must not grow with N by more than a
	// small factor across a 16x size range.
	if msgs[len(msgs)-1] > 3*msgs[0] {
		t.Errorf("messages per node grew %v -> %v; not O(N)", msgs[0], msgs[len(msgs)-1])
	}
}

func TestAblationUnordered(t *testing.T) {
	tbl, err := AblationUnordered(quick())
	if err != nil {
		t.Fatal(err)
	}
	ordered := column(t, tbl, "clusters-ordered")
	unordered := column(t, tbl, "clusters-unordered")
	tOrd := column(t, tbl, "time-ordered")
	tUn := column(t, tbl, "time-unordered")
	var oSum, uSum float64
	for i := range ordered {
		oSum += ordered[i]
		uSum += unordered[i]
		if tUn[i] >= tOrd[i] {
			t.Errorf("row %d: unordered time %v should beat ordered %v", i, tUn[i], tOrd[i])
		}
	}
	if uSum < oSum {
		t.Errorf("unordered quality (total %v) should not beat ordered (%v)", uSum, oSum)
	}
}

func TestAblationSwitchesAndPhi(t *testing.T) {
	sw, err := AblationSwitches(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Rows) != 5 {
		t.Fatalf("switch rows = %d", len(sw.Rows))
	}
	phi, err := AblationPhi(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(phi.Rows) != 5 {
		t.Fatalf("phi rows = %d", len(phi.Rows))
	}
}

func TestKMedoidsComparison(t *testing.T) {
	tbl, err := KMedoidsComparison(quick())
	if err != nil {
		t.Fatal(err)
	}
	elMsgs := column(t, tbl, "elink-messages")
	kmMsgs := column(t, tbl, "kmedoids-messages")
	for i := range elMsgs {
		if kmMsgs[i] <= elMsgs[i] {
			t.Errorf("row %d: k-medoids %v msgs should exceed elink %v", i, kmMsgs[i], elMsgs[i])
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &Table{Title: "t", XLabel: "x", Columns: []string{"a"}}
	tbl.AddRow(1.5, 2)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "x,a\n1.5,2\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestReclusterPolicy(t *testing.T) {
	tbl, err := ReclusterPolicy(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(tbl.Rows))
	}
	never := tbl.Rows[0]
	adaptive := tbl.Rows[1]
	daily := tbl.Rows[2]
	// Daily re-clustering must cost the most and re-cluster every day.
	if daily.Values[0] < never.Values[0] {
		t.Errorf("daily policy (%v msgs) should cost at least never (%v)", daily.Values[0], never.Values[0])
	}
	if daily.Values[2] == 0 {
		t.Error("daily policy performed no reclusterings")
	}
	// Adaptive sits between: no more reclusterings than daily.
	if adaptive.Values[2] > daily.Values[2] {
		t.Errorf("adaptive reclustered %v times, more than daily %v", adaptive.Values[2], daily.Values[2])
	}
	// Quality: daily should end with no more clusters than never.
	if daily.Values[1] > never.Values[1] {
		t.Errorf("daily final clusters %v should not exceed never %v", daily.Values[1], never.Values[1])
	}
}

func TestRepresentativeSampling(t *testing.T) {
	tbl, err := RepresentativeSampling(quick())
	if err != nil {
		t.Fatal(err)
	}
	gains := column(t, tbl, "lifetime-gain")
	clusters := column(t, tbl, "clusters")
	for i, gain := range gains {
		if gain < 1 {
			t.Errorf("row %d: lifetime gain %v < 1; representative sampling cannot be worse", i, gain)
		}
	}
	// Fewer clusters (larger delta) should not reduce the gain.
	if gains[len(gains)-1] < gains[0] && clusters[len(clusters)-1] < clusters[0] {
		t.Errorf("gain should grow as clusters shrink: clusters %v gains %v", clusters, gains)
	}
}

func TestHotspotSpread(t *testing.T) {
	tbl, err := HotspotSpread(quick())
	if err != nil {
		t.Fatal(err)
	}
	elMax := column(t, tbl, "elink-max-tx")
	ceMax := column(t, tbl, "central-max-tx")
	for i := range elMax {
		if elMax[i] >= ceMax[i] {
			t.Errorf("row %d: elink hotspot %v should be cooler than centralized %v", i, elMax[i], ceMax[i])
		}
	}
}

func TestOptimalityGap(t *testing.T) {
	tbl, err := OptimalityGap(quick())
	if err != nil {
		t.Fatal(err)
	}
	opt := column(t, tbl, "optimal")
	for _, name := range []string{SeriesELinkImplicit, SeriesCentralized, SeriesHierarchical, SeriesForest} {
		algo := column(t, tbl, name)
		for i := range opt {
			if algo[i] < opt[i]-1e-9 {
				t.Fatalf("%s mean %v beat the optimum %v at row %d — the exact solver or the algorithm is broken",
					name, algo[i], opt[i], i)
			}
		}
	}
	// ELink should stay within a small factor of optimal on instances
	// where the optimum is non-trivial. (When δ covers the whole feature
	// range the δ/2 admission rule is maximally conservative and the gap
	// widens — see EXPERIMENTS.md.)
	el := column(t, tbl, SeriesELinkImplicit)
	for i := range opt {
		if opt[i] > 2 && el[i] > 2.5*opt[i] {
			t.Errorf("row %d: elink mean %v vs optimal %v — gap too wide", i, el[i], opt[i])
		}
	}
}
