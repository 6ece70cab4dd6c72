// Package par is the repository's shared deterministic parallel
// execution layer: a bounded fork-join API (For / Chunks / Err) whose
// results are collected in index order.
//
// Determinism contract: every primitive here writes results into
// caller-owned, index-addressed slots, so as long as the task bodies are
// pure functions of their index (no shared mutable state, no hidden
// randomness), the observable output is bitwise identical for any worker
// count — including 1. Reductions that are sensitive to floating-point
// association (e.g. a sum over rows) must use Chunks
// with a fixed grain and combine the per-chunk partials in chunk order;
// the chunk layout depends only on (n, grain), never on the worker
// count, which is what makes `-j 1` and `-j NumCPU` agree to the bit.
//
// The worker count resolves, in priority order: SetWorkers override,
// the ELINK_WORKERS environment variable, GOMAXPROCS. Everything runs
// inline when the count is 1, so un-parallel deployments pay only a
// function call.
package par

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workerOverride holds the SetWorkers value (0 = unset, resolve from
// environment / GOMAXPROCS).
var workerOverride atomic.Int32

// SetWorkers overrides the resolved worker count for every subsequent
// call into this package. n <= 0 restores the automatic resolution
// (ELINK_WORKERS, then GOMAXPROCS). It is safe for concurrent use, but
// callers that need a consistent count across a whole computation should
// set it once up front (the experiments binary does, from its -j flag).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int32(n))
}

// Workers returns the worker count parallel primitives will use:
// SetWorkers override if set, else ELINK_WORKERS if parseable and
// positive, else GOMAXPROCS.
func Workers() int {
	if o := workerOverride.Load(); o > 0 {
		return int(o)
	}
	if env := os.Getenv("ELINK_WORKERS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// panicValue wraps a recovered panic so it can be re-thrown on the
// calling goroutine with its origin attached.
type panicValue struct {
	val   any
	stack []byte
}

// Chunks runs body over [0, n) split into fixed chunks of size grain
// (the final chunk may be short), distributing chunks over the resolved
// workers. The chunk layout depends only on (n, grain) — never on the
// worker count — so order-sensitive reductions can sum per-chunk
// partials in chunk order and get a bitwise worker-count-independent
// result. Chunks are handed out in ascending order. A panic in any body
// is re-raised on the caller's goroutine after all workers stop.
func Chunks(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	nchunks := (n + grain - 1) / grain
	workers := Workers()
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
		return
	}

	var next atomic.Int64
	var pan atomic.Pointer[panicValue]
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				pan.CompareAndSwap(nil, &panicValue{val: r, stack: stack()})
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= nchunks || pan.Load() != nil {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if p := pan.Load(); p != nil {
		panic(fmt.Sprintf("par: task panic: %v\n%s", p.val, p.stack))
	}
}

// For runs body(i) for every i in [0, n) on the resolved workers,
// chunking automatically. Bodies must write only to index-i state; under
// that contract the result is identical for any worker count.
func For(n int, body func(i int)) {
	grain := autoGrain(n)
	Chunks(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Err runs body(i) for every i in [0, n) in parallel and returns the
// error of the lowest index that failed (nil if none). After an error is
// recorded, chunks whose entire index range lies above the recorded
// index are skipped (early cancellation); indices below it still run, so
// the winning error is deterministic regardless of scheduling.
func Err(n int, body func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var mu sync.Mutex
	errIdx := int64(n) // lowest failing index so far
	var firstErr error
	record := func(i int, err error) {
		mu.Lock()
		if int64(i) < errIdx {
			errIdx, firstErr = int64(i), err
		}
		mu.Unlock()
	}
	cancelled := func(lo int) bool {
		mu.Lock()
		c := errIdx
		mu.Unlock()
		return int64(lo) > c
	}
	grain := autoGrain(n)
	Chunks(n, grain, func(lo, hi int) {
		if cancelled(lo) {
			return
		}
		for i := lo; i < hi; i++ {
			if err := body(i); err != nil {
				record(i, err)
				return
			}
		}
	})
	return firstErr
}

// autoGrain picks a chunk size that gives each worker a handful of
// chunks for load balance without drowning small loops in dispatch.
func autoGrain(n int) int {
	g := n / (4 * Workers())
	if g < 1 {
		g = 1
	}
	return g
}

func stack() []byte {
	buf := make([]byte, 8192)
	return buf[:runtime.Stack(buf, false)]
}
