GO ?= go

.PHONY: check build vet lint fmt test race bench bench-smoke examples clean

## check: everything CI runs — build, vet, the invariant analyzers,
## gofmt cleanliness, tests, the race pass, then the benchmark's own
## vet and smoke tests (bench-smoke)
check: build vet lint fmt test race bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repo's invariant analyzers (internal/lint via
## cmd/elink-lint): explicit-seed randomness, wall-clock-free
## deterministic packages, goroutine discipline, order-insensitive map
## iteration, HELP-described metrics, panic-free persist decode. A
## deliberate violation is excused in place — and counted in the
## summary — with:  //elink:allow <rule> — <reason>
lint:
	$(GO) run ./cmd/elink-lint

## fmt: fail if any tracked Go file is not gofmt-clean
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

## race: the concurrent subsystems (streaming engine, async runtime,
## routing tables, metrics registry/tracer, parallel execution layer and
## the kernels/figures running on it) under the race detector
race:
	$(GO) test -race ./internal/stream ./internal/sim ./internal/topology ./internal/obs ./internal/par ./internal/linalg ./internal/experiments ./cmd/elink-serve .

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

## bench-smoke: vet the benchmark in bench/ and run its smoke tests,
## which drive every workload briefly (elink-serve is built into a temp
## dir). Full runs: sh bench/run.sh -workload <name>; see bench/README.md
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## examples: compile every example without running them
examples:
	$(GO) build -o /dev/null ./examples/...

clean:
	$(GO) clean ./...
