package experiments

import (
	"testing"

	"elink/internal/obs"
	"elink/internal/par"
)

// goldenFigs are the figures the determinism tests render. They cover
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

// goldenConfig is one execution setting of the parallel layer: its
// worker count and whether a par-layer span tracer is installed.
type goldenConfig struct {
	workers int
	spans   bool
}

// renderGolden renders goldenFigs at quick scale under cfg.
func renderGolden(t *testing.T, cfg goldenConfig) map[string]string {
	t.Helper()
	par.SetWorkers(cfg.workers)
	defer par.SetWorkers(0)
	if cfg.spans {
		par.InstrumentSpans(obs.NewSpanTracer(0, 0))
		defer par.InstrumentSpans(nil)
	}
	sc := QuickScale()
	out := make(map[string]string, len(goldenFigs))
	for _, f := range goldenFigs {
		tbl, err := f.run(sc)
		if err != nil {
			t.Fatalf("workers=%d spans=%v %s: %v", cfg.workers, cfg.spans, f.name, err)
		}
		out[f.name] = tbl.String()
	}
	return out
}

// checkGolden asserts every figure table rendered under each of cfgs is
// byte-identical to the bare serial (-j 1, no spans) render.
func checkGolden(t *testing.T, cfgs ...goldenConfig) {
	t.Helper()
	base := renderGolden(t, goldenConfig{workers: 1})
	for _, cfg := range cfgs {
		got := renderGolden(t, cfg)
		for _, f := range goldenFigs {
			if got[f.name] != base[f.name] {
				t.Errorf("%s: table differs with spans=%v -j %d\n--- j=1 bare ---\n%s\n--- got ---\n%s",
					f.name, cfg.spans, cfg.workers, base[f.name], got[f.name])
			}
		}
	}
}

// TestFiguresWorkerCountInvariant is the golden determinism test for the
// parallel execution layer: figure tables must be byte-identical with
// the layer pinned to one worker and fanned out to several, at the same
// seed.
func TestFiguresWorkerCountInvariant(t *testing.T) {
	checkGolden(t, goldenConfig{workers: 4})
}

// TestFiguresSpanTracingInvariant is the golden determinism test for
// span tracing: figure tables must be byte-identical with the par-layer
// span tracer detached and installed, serial and fanned out — spans
// observe timing, never scheduling or results.
func TestFiguresSpanTracingInvariant(t *testing.T) {
	checkGolden(t, goldenConfig{workers: 1, spans: true}, goldenConfig{workers: 4, spans: true})
}
