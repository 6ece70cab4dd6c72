package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		count int
		ok    bool
	}{
		{"range", 20, true},
		{"path", 1, true},
		{"range", 0, false},
		{"path", -3, false},
		{"knn", 20, false},
		{"", 20, false},
	} {
		if err := checkFlags(tc.kind, tc.count); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %d) = %v, want ok=%v", tc.kind, tc.count, err, tc.ok)
		}
	}
}
