package elink_test

import (
	"go/build"
	"slices"
	"testing"
)

// TestAlgorithmLayersImportNoMetrics keeps the paper's cost ledgers in
// one place: the simulator, ELink and the slack-Δ maintainer count
// messages, rounds and screens in their own Stats and Counters, and
// only a server renders those into a metrics registry. If one of these
// packages imported internal/obs, a second copy of a count could grow
// back and drift from the first.
func TestAlgorithmLayersImportNoMetrics(t *testing.T) {
	for _, dir := range []string{"internal/sim", "internal/elink", "internal/update"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if slices.Contains(pkg.Imports, "elink/internal/obs") {
			t.Errorf("%s imports elink/internal/obs; report counts through its Stats instead", dir)
		}
	}
}
