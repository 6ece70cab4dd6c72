// Command elink-lint runs the repository's invariant analyzers
// (internal/lint) over the module and fails on any finding.
//
// The rules protect contracts that golden tests can only catch after the
// fact: explicit-seed randomness, wall-clock-free deterministic
// packages, goroutine discipline, order-insensitive map iteration,
// HELP-described metrics, panic-free decode paths and no dead exports
// under internal/. Diagnostics are
// position-accurate `file:line:col: [rule] message` lines; deliberate
// violations are annotated in place with
//
//	//elink:allow <rule> — <reason>
//
// and show up in the summary so they stay visible.
//
// Usage:
//
//	elink-lint [-C dir] [-rules rule1,rule2] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"elink/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module root to lint (the directory containing go.mod)")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list the rules and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *rules != "" {
		analyzers = filterRules(analyzers, *rules)
	}

	res, err := lint.Run(*dir, lint.DefaultConfig(), analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "elink-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range res.Diags {
		fmt.Println(lint.Render(d, mustAbs(*dir)))
	}
	fmt.Printf("elink-lint: %d packages, %d findings, %s\n",
		res.Packages, len(res.Diags), suppressionSummary(res))
	if len(res.Diags) > 0 {
		fmt.Println("elink-lint: a deliberate violation can be annotated on its line (or the line above) with: //elink:allow <rule> — <reason>")
		os.Exit(1)
	}
}

func filterRules(all []*lint.Analyzer, spec string) []*lint.Analyzer {
	want := make(map[string]bool)
	for _, r := range strings.Split(spec, ",") {
		want[strings.TrimSpace(r)] = true
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for r := range want {
		fmt.Fprintf(os.Stderr, "elink-lint: unknown rule %q (use -list)\n", r)
		os.Exit(2)
	}
	return out
}

func suppressionSummary(res *lint.Result) string {
	total := res.SuppressionTotal()
	if total == 0 {
		return "0 suppressions"
	}
	parts := make([]string, 0, len(res.Suppressed))
	for _, a := range lint.Analyzers() {
		if n := res.Suppressed[a.Name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", a.Name, n))
		}
	}
	return fmt.Sprintf("%d suppressions (%s)", total, strings.Join(parts, ", "))
}

func mustAbs(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}
