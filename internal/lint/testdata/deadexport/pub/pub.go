// Package pub is outside internal/, so its unreached export is not a
// finding.
package pub

// Unreached has no caller.
func Unreached() {}
