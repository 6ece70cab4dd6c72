GO ?= go

.PHONY: check build vet lint fmt test race fuzz-smoke bench bench-smoke paper-check clean

## check: everything CI runs — build, vet, the invariant analyzers,
## gofmt cleanliness, tests, the race pass, a short run of every fuzz
## target (fuzz-smoke), then the benchmark's own vet and smoke tests
## (bench-smoke)
check: build vet lint fmt test race fuzz-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repo's invariant analyzers (internal/lint via
## cmd/elink-lint): explicit-seed randomness, wall-clock-free
## deterministic packages, goroutine discipline, order-insensitive map
## iteration, HELP-described metrics, panic-free persist decode, no
## dead exports under internal/. A deliberate violation is excused in
## place — and counted in the summary — with:
##   //elink:allow <rule> — <reason>
lint:
	$(GO) run ./cmd/elink-lint

## fmt: fail if any tracked Go file is not gofmt-clean
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## test: every package's tests, then the root package's testable
## examples (the README's walkthroughs) again at one and at two workers,
## which pins each number they print as independent of the worker
## count. The environment sets the count: go test runs examples once,
## after the tests, so -cpu 1,2 would run them only at 2
test:
	$(GO) test ./...
	for p in 1 2; do GOMAXPROCS=$$p ELINK_WORKERS=$$p $(GO) test -count 1 -run '^Example' . || exit 1; done

## race: the concurrent subsystems (streaming engine, free-listed routing
## walkers and query scratch, the simulator's allocation-free routing,
## metrics registry/span tracer, parallel execution layer and the
## kernels/figures running on it) under the race detector
race:
	$(GO) test -race ./internal/stream ./internal/topology ./internal/sim ./internal/query ./internal/obs ./internal/par ./internal/linalg ./internal/experiments ./cmd/elink-serve .

## fuzz-smoke: a few seconds of each fuzz target — the snapshot decoder
## (whose decodable inputs are also restored into an engine, rebuilding
## the maintainer and index), the WAL record decoder and elink-serve's
## three request-body endpoints. Minimization is
## off: on a large seed it would take the whole run. A crasher is
## written under the package's testdata/fuzz; fix the bug and commit the
## file as a regression seed
fuzz-smoke:
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./cmd/elink-serve -run '^$$' -fuzz '^FuzzServeBodies$$' -fuzztime 5s -fuzzminimizetime 0

## bench: one pass of every micro-benchmark — the facade's (with ELink
## and both §8.3 baselines on the 2500-node Death Valley network, whose
## B/op show the explicit wave's laid-out paths, the reused event queue
## in BenchmarkSpanningForestDeathValley2500 and the slice-indexed
## rounds of BenchmarkHierarchicalDeathValley2500), the quadtree build (internal/topology), routing
## (internal/sim), range queries (internal/query), the spectral kernels
## and one warm-started n=2500 eigensolve (internal/linalg), the span
## cost per trace (internal/obs) and a Tao replay with and without span
## tracing (internal/stream) — so none can rot
bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' . ./internal/topology ./internal/sim ./internal/query ./internal/linalg ./internal/obs ./internal/stream

## bench-smoke: vet the benchmark in bench/ and run its smoke tests,
## which drive every workload briefly (elink-serve is built into a temp
## dir). Full runs: sh bench/run.sh -workload <name>; see bench/README.md
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## paper-check: regenerate the paper-scale figures (about a minute) and
## compare them byte for byte with the committed golden; make check does
## not run it. After a deliberate figure change, rewrite the golden with
##   go run ./cmd/elink-experiments -paper -j 1 -csv > internal/experiments/testdata/paper.csv
paper-check:
	$(GO) run ./cmd/elink-experiments -paper -j 1 -csv | cmp - internal/experiments/testdata/paper.csv

clean:
	$(GO) clean ./...
