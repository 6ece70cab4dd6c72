// Package lib declares one export of each kind deadexport tells apart.
package lib

// Used is called from app: not a finding.
func Used() int { return limit }

// Dead is referenced nowhere: a finding.
func Dead() int { return 0 }

// TestOnly is named only in lib_test.go: a finding, because a test that
// names an export does not count as a use.
const TestOnly = 1

// Kept has no caller either, but its annotation excuses it: suppressed
// and counted.
//
//elink:allow deadexport — an oracle that other packages' tests share
func Kept() int { return 2 }

// limit is unexported: out of scope.
const limit = 3

// Counter is used by app.
type Counter struct{ n int }

// Inc is called from app: not a finding.
func (c *Counter) Inc() { c.n++ }

// Reset has no caller: a finding, because methods are in scope.
func (c *Counter) Reset() { c.n = 0 }

// String satisfies fmt.Stringer, through which app prints a Counter: not
// a finding, although no file calls it by name.
func (c Counter) String() string { return "counter" }
