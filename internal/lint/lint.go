// Package lint is a small analyzer framework over the standard library's
// go/ast, go/parser and go/types — no module dependencies — that
// enforces the repository's cross-cutting contracts at lint time instead
// of leaving them to golden tests after the fact:
//
//   - seededrand: randomness flows from explicit seeds through
//     internal/detrand; math/rand's global source is never touched.
//   - walltime: the deterministic packages (linalg, cluster, update,
//     sim, query, stream) never read the wall clock.
//   - godiscipline: goroutines are launched only inside the sanctioned
//     concurrency layers (internal/par, internal/obs, cmd/elink-serve).
//   - maporder: map iteration order never leaks into deterministic
//     state, so figures stay bitwise identical at any worker count.
//   - metrichelp: every obs metric registration has a non-empty HELP
//     description in the same package.
//   - nodecodepanic: internal/persist never panics — decode and I/O
//     paths return errors, even on hostile bytes.
//   - deadexport: every exported package-level identifier under
//     internal/ has a non-test use in the module or a test naming it.
//
// Deliberate violations are annotated in place with
//
//	//elink:allow <rule> — <reason>
//
// on the offending line or the line above it. Suppressions are counted
// and reported in the driver's summary so they stay visible, and an
// annotation that stops matching any finding is itself a finding — dead
// suppressions cannot accumulate.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
)

// Analyzer is one named rule. Run inspects a single type-checked package
// and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string // one-line contract statement, shown by -help
	Run  func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Cfg  *Config

	rule string
	out  *[]Diagnostic
	use  *usage // module-wide references; nil unless deadexport runs
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:  p.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, position-accurate to the offending token.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// Config scopes the rules to package sets by import path, so the same
// analyzers run against the real module and against fixture modules in
// tests. DefaultConfig pins the production contracts.
type Config struct {
	// DeterministicPkgs must produce bitwise-identical outputs for
	// identical inputs and seeds; walltime and maporder apply here.
	DeterministicPkgs []string
	// GoroutinePkgs may launch goroutines with bare go statements;
	// godiscipline flags everything else.
	GoroutinePkgs []string
	// RandConstructionPkgs may call rand.New/rand.NewSource; seededrand
	// flags construction anywhere else.
	RandConstructionPkgs []string
	// NoPanicPkgs must return errors instead of panicking (decode and
	// I/O paths); nodecodepanic applies here.
	NoPanicPkgs []string
}

// DefaultConfig is the contract map for module elink.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"elink/internal/linalg",
			"elink/internal/cluster",
			"elink/internal/update",
			"elink/internal/sim",
			"elink/internal/query",
			"elink/internal/stream",
		},
		GoroutinePkgs: []string{
			"elink/internal/par",
			"elink/internal/obs",
			"elink/cmd/elink-serve",
		},
		RandConstructionPkgs: []string{
			"elink/internal/detrand",
		},
		NoPanicPkgs: []string{
			"elink/internal/persist",
		},
	}
}

func contains(set []string, path string) bool {
	for _, s := range set {
		if s == path {
			return true
		}
	}
	return false
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SeededRand,
		WallTime,
		GoDiscipline,
		MapOrder,
		MetricHelp,
		NoDecodePanic,
		DeadExport,
	}
}

// Result is one multichecker run: the surviving findings plus the
// suppression ledger.
type Result struct {
	Diags       []Diagnostic   // unsuppressed findings, sorted by position
	Suppressed  map[string]int // rule -> suppressed finding count
	Packages    int
	suppression []*suppression
}

// SuppressionTotal sums the suppression ledger.
func (r *Result) SuppressionTotal() int {
	n := 0
	for _, c := range r.Suppressed {
		n += c
	}
	return n
}

// Run loads the module rooted at root and applies the analyzers under
// cfg. Findings carrying a matching //elink:allow annotation are moved
// to the suppression ledger; unused and malformed annotations become
// findings themselves.
func Run(root string, cfg *Config, analyzers []*Analyzer) (*Result, error) {
	fset := token.NewFileSet()
	pkgs, _, err := LoadModule(fset, root)
	if err != nil {
		return nil, err
	}
	var use *usage
	if slices.Contains(analyzers, DeadExport) {
		if use, err = buildUsage(fset, root, pkgs); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	var diags []Diagnostic
	var sups []*suppression
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Fset: fset, Pkg: pkg, Cfg: cfg, rule: a.Name, out: &diags, use: use})
		}
		s, bad := collectSuppressions(fset, pkg)
		sups = append(sups, s...)
		diags = append(diags, bad...)
	}
	res := &Result{
		Suppressed:  make(map[string]int),
		Packages:    len(pkgs),
		suppression: sups,
	}
	res.Diags = applySuppressions(diags, sups, res.Suppressed)
	res.Diags = append(res.Diags, unusedSuppressions(sups, analyzers)...)
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return res, nil
}

// Render formats d with its filename relative to root (falling back to
// the absolute path outside it).
func Render(d Diagnostic, root string) string {
	name := d.Pos.Filename
	if rel, err := filepath.Rel(root, name); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", name, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}
