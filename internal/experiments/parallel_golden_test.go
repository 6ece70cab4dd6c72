package experiments

import (
	"testing"

	"elink/internal/par"
)

// goldenFigs are the figures the determinism test renders. They cover
// every rewired hot path — AR fitting and query fan-out (Fig14,
// PathQueries), the chunked trajectory refits and elink runs
// (Complexity), and the clustering-quality pipeline (Fig08).
var goldenFigs = []struct {
	name string
	run  func(Scale) (*Table, error)
}{
	{"fig08", Fig08},
	{"fig14", Fig14},
	{"path", PathQueries},
	{"complexity", Complexity},
}

// renderGolden renders goldenFigs at quick scale with the parallel layer
// pinned to the given worker count.
func renderGolden(t *testing.T, workers int) map[string]string {
	t.Helper()
	par.SetWorkers(workers)
	defer par.SetWorkers(0)
	sc := QuickScale()
	out := make(map[string]string, len(goldenFigs))
	for _, f := range goldenFigs {
		tbl, err := f.run(sc)
		if err != nil {
			t.Fatalf("workers=%d %s: %v", workers, f.name, err)
		}
		out[f.name] = tbl.String()
	}
	return out
}

// TestFiguresWorkerCountInvariant is the golden determinism test for the
// parallel execution layer: figure tables must be byte-identical with
// the layer pinned to one worker and fanned out to several, at the same
// seed.
func TestFiguresWorkerCountInvariant(t *testing.T) {
	base, got := renderGolden(t, 1), renderGolden(t, 4)
	for _, f := range goldenFigs {
		if got[f.name] != base[f.name] {
			t.Errorf("%s: table differs with -j 4\n--- j=1 ---\n%s\n--- j=4 ---\n%s",
				f.name, base[f.name], got[f.name])
		}
	}
}
