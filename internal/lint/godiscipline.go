package lint

import "go/ast"

// GoDiscipline confines bare go statements to the sanctioned concurrency
// layers. Everything else runs its parallelism through internal/par,
// whose fixed-grain chunk layouts and index-ordered joins are what make
// "bitwise identical at any worker count" (PR 4) a provable property —
// an ad-hoc goroutine in a figure path reintroduces scheduling
// nondeterminism that no golden test can pin down. Deliberate goroutines
// outside the allowlist (the experiment runner's output pipeline) carry
// //elink:allow annotations.
var GoDiscipline = &Analyzer{
	Name: "godiscipline",
	Doc:  "bare go statements only in internal/par, internal/obs and cmd/elink-serve",
	Run:  runGoDiscipline,
}

func runGoDiscipline(p *Pass) {
	if contains(p.Cfg.GoroutinePkgs, p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "bare go statement outside the concurrency layers; use par.For/par.Chunks or move the code under internal/par")
			}
			return true
		})
	}
}
