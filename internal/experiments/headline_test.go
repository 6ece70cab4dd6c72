package experiments

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestHeadlineRatios rebuilds EXPERIMENTS.md's "Headline ratios" block
// from the quick-scale golden (testdata/quick.csv, which
// TestQuickFiguresGolden pins) and fails unless the document quotes it
// verbatim, so a figure change cannot leave a stale ratio behind.
func TestHeadlineRatios(t *testing.T) {
	tables := readCSVTables(t, filepath.Join("testdata", "quick.csv"))
	var b strings.Builder
	line := func(name, desc string, num, den float64) {
		fmt.Fprintf(&b, "%-20s%-46s≈ %s\n", name, desc, twoSignificant(num/den))
	}

	f10 := tableTitled(t, tables, "Fig 10:")
	line("fig10", "centralized/elink update cost, slack 0.05δ",
		cellAt(t, f10, 0.05, "centralized-update"), cellAt(t, f10, 0.05, "elink-update"))
	f12 := tableTitled(t, tables, "Fig 12:")
	day := f12.Rows[len(f12.Rows)-1].X
	line("fig12", fmt.Sprintf("raw/elink cumulative cost, day %g (last)", day),
		cellAt(t, f12, day, "centralized-raw"), cellAt(t, f12, day, "elink-implicit"))
	f13 := tableTitled(t, tables, "Fig 13:")
	n := f13.Rows[len(f13.Rows)-1].X
	line("fig13", fmt.Sprintf("centralized/elink messages, N=%g (largest)", n),
		cellAt(t, f13, n, "centralized"), cellAt(t, f13, n, "elink-implicit"))
	f14 := tableTitled(t, tables, "Fig 14:")
	line("fig14", "tag/elink query cost, r=0.7δ",
		cellAt(t, f14, 0.7, "tag"), cellAt(t, f14, 0.7, "elink-implicit"))
	f15 := tableTitled(t, tables, "Fig 15:")
	line("fig15", "tag/elink query cost, r=0.3δ",
		cellAt(t, f15, 0.3, "tag"), cellAt(t, f15, 0.3, "elink-implicit"))
	path := tableTitled(t, tables, "Path queries:")
	gamma := path.Rows[len(path.Rows)/2].X
	line("path", fmt.Sprintf("flood/elink query cost, γ=%g (middle row)", gamma),
		cellAt(t, path, gamma, "bfs-flood"), cellAt(t, path, gamma, "elink-path"))
	cx := tableTitled(t, tables, "Theorems 2-3:")
	n = cx.Rows[len(cx.Rows)-1].X
	line("complexity", fmt.Sprintf("implicit time/bound, N=%g (largest)", n),
		cellAt(t, cx, n, "time-implicit"), cellAt(t, cx, n, "bound-2*kappa*alpha"))
	ab := tableTitled(t, tables, "Ablation: ordered")
	line("ablation-unordered", "unordered/ordered clusters, summed over δ",
		sum(ab.Column("clusters-unordered")), sum(ab.Column("clusters-ordered")))

	block := "```\n" + b.String() + "```\n"
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), block) {
		t.Errorf("EXPERIMENTS.md does not quote the headline ratios of testdata/quick.csv; replace its block with:\n%s", block)
	}
}

// readCSVTables parses elink-experiments -csv output: blocks of a
// "# title" line, a header row and numeric rows, separated by blank
// lines.
func readCSVTables(t *testing.T, path string) []*Table {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*Table
	for _, block := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		title, body, _ := strings.Cut(block, "\n")
		recs, err := csv.NewReader(strings.NewReader(body)).ReadAll()
		if err != nil || !strings.HasPrefix(title, "# ") || len(recs) == 0 {
			t.Fatalf("%s: malformed block %q: %v", path, title, err)
		}
		tbl := &Table{Title: strings.TrimPrefix(title, "# "), XLabel: recs[0][0], Columns: recs[0][1:]}
		for _, rec := range recs[1:] {
			vals := make([]float64, len(rec))
			for i, c := range rec {
				if vals[i], err = strconv.ParseFloat(c, 64); err != nil {
					t.Fatalf("%s: %q: %v", path, tbl.Title, err)
				}
			}
			tbl.AddRow(vals[0], vals[1:]...)
		}
		tables = append(tables, tbl)
	}
	return tables
}

func tableTitled(t *testing.T, tables []*Table, prefix string) *Table {
	t.Helper()
	for _, tbl := range tables {
		if strings.HasPrefix(tbl.Title, prefix) {
			return tbl
		}
	}
	t.Fatalf("no table titled %q...", prefix)
	return nil
}

// cellAt returns the column value in the row whose x value is x.
func cellAt(t *testing.T, tbl *Table, x float64, column string) float64 {
	t.Helper()
	if col := tbl.Column(column); col != nil {
		for i, r := range tbl.Rows {
			if r.X == x {
				return col[i]
			}
		}
	}
	t.Fatalf("%s: no %s at %s=%g", tbl.Title, column, tbl.XLabel, x)
	return 0
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// twoSignificant formats v rounded to two significant figures, keeping
// a trailing zero ("2.0") and writing no exponent ("640").
func twoSignificant(v float64) string {
	if v == 0 {
		return "0"
	}
	p := math.Pow(10, math.Floor(math.Log10(math.Abs(v)))-1)
	r := math.Round(v/p) * p
	decimals := max(0, 1-int(math.Floor(math.Log10(math.Abs(r)))))
	return strconv.FormatFloat(r, 'f', decimals, 64)
}
