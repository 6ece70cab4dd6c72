package par

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs f under a fixed worker override, restoring the
// automatic resolution afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	f()
}

func TestForMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		want := make([]int, n)
		for i := range want {
			want[i] = i * i
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := make([]int, n)
			withWorkers(t, workers, func() {
				For(n, func(i int) { got[i] = i * i })
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: got[%d]=%d, want %d", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestChunksFixedLayout verifies the chunk layout depends only on
// (n, grain): every worker count must produce the same set of [lo, hi)
// ranges, which is the property order-sensitive reductions rely on.
func TestChunksFixedLayout(t *testing.T) {
	const n, grain = 1000, 64
	layout := func(workers int) map[string]bool {
		seen := make(map[string]bool)
		var mu sync.Mutex
		withWorkers(t, workers, func() {
			Chunks(n, grain, func(lo, hi int) {
				mu.Lock()
				seen[fmt.Sprintf("%d:%d", lo, hi)] = true
				mu.Unlock()
			})
		})
		return seen
	}
	want := layout(1)
	if len(want) != (n+grain-1)/grain {
		t.Fatalf("serial layout has %d chunks, want %d", len(want), (n+grain-1)/grain)
	}
	for _, workers := range []int{2, 4, 7} {
		got := layout(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workers=%d: missing chunk %s", workers, k)
			}
		}
	}
}

// TestErrLowestIndexWins checks the deterministic error contract: with
// several failing indices, the winner is always the lowest, regardless
// of worker count and scheduling.
func TestErrLowestIndexWins(t *testing.T) {
	const n = 500
	fail := map[int]bool{17: true, 130: true, 499: true}
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers, func() {
			for trial := 0; trial < 20; trial++ {
				err := Err(n, func(i int) error {
					if fail[i] {
						return fmt.Errorf("boom at %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != "boom at 17" {
					t.Fatalf("workers=%d: got %v, want boom at 17", workers, err)
				}
			}
		})
	}
}

// TestErrCancellation checks that chunks entirely above a recorded error
// are skipped, but indices below it still run (they might hold an even
// lower error).
func TestErrCancellation(t *testing.T) {
	const n = 10000
	var ran atomic.Int64
	withWorkers(t, 4, func() {
		err := Err(n, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return errors.New("first")
			}
			return nil
		})
		if err == nil || err.Error() != "first" {
			t.Fatalf("got %v, want first", err)
		}
	})
	if got := ran.Load(); got == n {
		t.Fatalf("no cancellation: all %d indices ran despite an error at index 0", n)
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if !strings.Contains(fmt.Sprint(r), "kaboom") {
					t.Fatalf("workers=%d: panic lost its value: %v", workers, r)
				}
			}()
			For(100, func(i int) {
				if i == 42 {
					panic("kaboom")
				}
			})
		})
	}
}

// TestForConcurrent drives For from many goroutines at once; chunk
// dispatch state is per-call, so calls must not interfere.
// TestErrPanicPropagates: a panic inside an Err body reaches the caller
// with its value, and the package stays usable afterwards — the next
// batch runs every index.
func TestErrPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("workers=%d: Err panic did not propagate", workers)
					}
					if !strings.Contains(fmt.Sprint(r), "phase-boom") {
						t.Fatalf("workers=%d: Err panic lost its value: %v", workers, r)
					}
				}()
				_ = Err(100, func(i int) error {
					if i == 57 {
						panic("phase-boom")
					}
					return nil
				})
			}()
			var hits atomic.Int32
			For(100, func(int) { hits.Add(1) })
			if hits.Load() != 100 {
				t.Fatalf("workers=%d: post-panic batch ran %d of 100 bodies", workers, hits.Load())
			}
		})
	}
}

func TestForConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, 300)
			For(300, func(i int) { out[i] = i })
			for i, v := range out {
				if v != i {
					t.Errorf("out[%d]=%d", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWorkersResolution(t *testing.T) {
	SetWorkers(0)
	t.Setenv("ELINK_WORKERS", "3")
	if got := Workers(); got != 3 {
		t.Fatalf("env resolution: got %d, want 3", got)
	}
	SetWorkers(7)
	if got := Workers(); got != 7 {
		t.Fatalf("override beats env: got %d, want 7", got)
	}
	SetWorkers(0)
	t.Setenv("ELINK_WORKERS", "not-a-number")
	if got := Workers(); got < 1 {
		t.Fatalf("fallback must be positive, got %d", got)
	}
}
