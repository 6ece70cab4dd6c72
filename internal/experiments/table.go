// Package experiments regenerates every table and figure of the paper's
// evaluation section (§8), plus the complexity checks for Theorems 2–3
// and two ablations. Each experiment returns a Table whose series mirror
// the curves the paper plots; EXPERIMENTS.md records the measured shapes
// against the paper's.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's output: an x-axis and one column per series.
type Table struct {
	// Title names the experiment (e.g. "Fig 8: clustering quality, Tao").
	Title string
	// XLabel names the x-axis (e.g. "delta").
	XLabel string
	// Columns names the series.
	Columns []string
	// Rows holds one entry per x value.
	Rows []Row
	// Notes carries free-form caveats (scale used, substitutions).
	Notes []string
}

// Row is one x value and its series values.
type Row struct {
	X      float64
	Values []float64
}

// AddRow appends a row, enforcing the column arity.
func (t *Table) AddRow(x float64, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d values for %d columns", len(values), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{X: x, Values: values})
}

// Column returns the series values of the named column.
func (t *Table) Column(name string) []float64 {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Values[idx]
	}
	return out
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s", trimFloat(r.X))
		for _, v := range r.Values {
			fmt.Fprintf(tw, "\t%s", trimFloat(v))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Scale controls how large each experiment runs. DefaultScale matches the
// paper's setup; QuickScale shrinks everything so the whole suite runs in
// seconds (used by tests and the default bench harness).
type Scale struct {
	// TaoDays is the length of the Tao stream (paper: 30).
	TaoDays int
	// DVNodes and DVTopologies size the Death Valley runs (paper: 2500
	// nodes, 5 topologies). At 2500 nodes the centralized spectral and
	// hierarchical baselines and explicit ELink take most of the running
	// time.
	DVNodes      int
	DVTopologies int
	// SynSizes are the synthetic network sizes (paper: 100–800).
	SynSizes []int
	// SynReadings is the synthetic stream length (paper: 100,000).
	SynReadings int
	// Queries per data point (paper: averaged per-query cost).
	Queries int
	// Seed fixes all randomness.
	Seed int64
}

// DefaultScale reproduces the paper's experimental scale.
func DefaultScale() Scale {
	return Scale{
		TaoDays:      30,
		DVNodes:      2500,
		DVTopologies: 5,
		SynSizes:     []int{100, 200, 400, 800},
		SynReadings:  100000,
		Queries:      100,
		Seed:         1,
	}
}

// QuickScale shrinks every experiment for fast regression runs.
func QuickScale() Scale {
	return Scale{
		TaoDays:      10,
		DVNodes:      250,
		DVTopologies: 2,
		SynSizes:     []int{60, 120, 240},
		SynReadings:  2000,
		Queries:      20,
		Seed:         1,
	}
}

func (s Scale) note() string {
	return fmt.Sprintf("scale: taoDays=%d dvNodes=%dx%d synSizes=%v synReadings=%d queries=%d seed=%d",
		s.TaoDays, s.DVNodes, s.DVTopologies, s.SynSizes, s.SynReadings, s.Queries, s.Seed)
}

// WriteCSVBlock writes the table as one block of elink-experiments -csv
// output: a "# title" line, the CSV and a blank line.
func (t *Table) WriteCSVBlock(w io.Writer) error {
	fmt.Fprintf(w, "# %s\n", t.Title)
	if err := t.WriteCSV(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes the table as comma-separated values (header row first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{t.XLabel}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, strconv.FormatFloat(r.X, 'g', -1, 64))
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
