package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files from current analyzer output")

// fixtureConfig maps the contract package sets onto the fixture module
// layout shared by every testdata tree: bad/ and good/ are the checked
// packages, allowed/ and construct/ are the sanctioned ones.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPkgs:    []string{"fixture/bad", "fixture/good"},
		GoroutinePkgs:        []string{"fixture/allowed"},
		RandConstructionPkgs: []string{"fixture/construct"},
		NoPanicPkgs:          []string{"fixture/bad", "fixture/good"},
	}
}

// TestFixtures runs each rule against its testdata tree and compares
// the rendered diagnostics with the committed golden file. Every bad
// package must produce findings (the non-zero-exit contract) and every
// good package must stay silent — the goldens pin both.
func TestFixtures(t *testing.T) {
	cases := []struct {
		name       string
		analyzers  []*Analyzer
		suppressed int // findings of rule name its fixture excuses
	}{
		{"seededrand", []*Analyzer{SeededRand}, 0},
		{"walltime", []*Analyzer{WallTime}, 0},
		{"godiscipline", []*Analyzer{GoDiscipline}, 0},
		{"maporder", []*Analyzer{MapOrder}, 0},
		{"metrichelp", []*Analyzer{MetricHelp}, 0},
		{"nodecodepanic", []*Analyzer{NoDecodePanic}, 0},
		{"deadexport", []*Analyzer{DeadExport}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFixture(t, tc.name, tc.analyzers)
			if len(got.Diags) == 0 {
				t.Fatalf("bad fixture produced no findings; the multichecker would exit 0 on it")
			}
			for _, d := range got.Diags {
				if strings.Contains(d.Pos.Filename, string(filepath.Separator)+"good"+string(filepath.Separator)) {
					t.Errorf("finding in a good fixture package: %s", Render(d, fixtureRoot(t, tc.name)))
				}
			}
			if n := got.Suppressed[tc.name]; n != tc.suppressed {
				t.Errorf("%d %s findings suppressed, want %d", n, tc.name, tc.suppressed)
			}
			compareGolden(t, tc.name, got)
		})
	}
}

// TestSuppressions pins the //elink:allow life cycle: a used annotation
// (same line and line-above placements) moves the finding to the
// ledger, while unused, malformed and typo'd annotations are findings.
func TestSuppressions(t *testing.T) {
	got := runFixture(t, "suppress", []*Analyzer{WallTime, GoDiscipline})
	if got.Suppressed["walltime"] != 2 {
		t.Errorf("walltime suppressions = %d, want 2 (trailing and line-above)", got.Suppressed["walltime"])
	}
	if got.SuppressionTotal() != 2 {
		t.Errorf("SuppressionTotal = %d, want 2", got.SuppressionTotal())
	}
	compareGolden(t, "suppress", got)
}

// TestSelfHost is the gate the whole PR rides on: the full multichecker
// over the real module must come back clean, so a contract violation
// anywhere in the tree fails `go test ./internal/lint` as well as
// `make lint`.
func TestSelfHost(t *testing.T) {
	root := filepath.Join("..", "..")
	res, err := Run(root, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	absRoot, _ := filepath.Abs(root)
	for _, d := range res.Diags {
		t.Errorf("%s", Render(d, absRoot))
	}
	if len(res.Diags) > 0 {
		t.Fatalf("%d findings on the real module; the tree must self-host clean", len(res.Diags))
	}
	t.Logf("self-host: %d packages clean, %d suppressions", res.Packages, res.SuppressionTotal())
}

func fixtureRoot(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func runFixture(t *testing.T, name string, analyzers []*Analyzer) *Result {
	t.Helper()
	res, err := Run(filepath.Join("testdata", name), fixtureConfig(), analyzers)
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return res
}

func compareGolden(t *testing.T, name string, res *Result) {
	t.Helper()
	var b strings.Builder
	for _, d := range res.Diags {
		b.WriteString(Render(d, fixtureRoot(t, name)))
		b.WriteByte('\n')
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}
