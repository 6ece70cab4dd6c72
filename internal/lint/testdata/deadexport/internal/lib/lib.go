// Package lib declares one export of each kind deadexport tells apart.
package lib

// Used is called from app: not a finding.
func Used() int { return limit }

// Dead is referenced nowhere: the finding.
func Dead() int { return 0 }

// TestOnly is named only in lib_test.go: not a finding.
const TestOnly = 1

// limit is unexported: out of scope.
const limit = 3

// Counter is used by app; its method Reset has no caller but methods are
// out of scope.
type Counter struct{ n int }

// Reset clears the counter.
func (c *Counter) Reset() { c.n = 0 }
