GO ?= go
SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

.PHONY: check fmt vet lint build test race allocs bench bench-compare staticcheck vulncheck

# check is the CI gate: formatting, static analysis (vet + the project's
# own radlint suite), build, the full test suite under the race
# detector, and the allocation-regression tests.
check: fmt vet lint build race allocs

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the repo's custom analyzers (see LINTING.md): determinism,
# redundancy-purity, and telemetry-naming invariants the paper
# reproduction depends on.
lint:
	$(GO) run ./cmd/radlint ./...

# staticcheck/vulncheck are optional extras: they need the tools on PATH
# (CI installs them; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`
# and `go install golang.org/x/vuln/cmd/govulncheck@latest`).
staticcheck:
	staticcheck ./...

vulncheck:
	govulncheck ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package runs full campaign-equivalence suites (serial
# vs parallel, uncached vs cached) whose cost the race detector
# multiplies; on a single-core host that exceeds go test's default 10m
# per-package budget, so the timeout is explicit here (CI's determinism
# job does the same).
race:
	$(GO) test -race -timeout 30m ./...

# Allocation-regression tests pin the per-sample hot paths (machine
# Step/Sample and the RunTrace loop, detectors and the flight-log
# recorder, forest prediction, cache reads, telemetry), the shared
# latchup-protection path, the downlink comms tick, frame codec and
# recorder restore, and the campaigns' payload formatting at zero
# allocations, a 4 h flight-software trace
# under 40 objects, and EMR runtime construction under 2 MB (see
# PERFORMANCE.md). They are tagged
# !race — race instrumentation allocates on its own — so the race suite
# skips them and check runs them here without the detector.
allocs:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/machine ./internal/trace ./internal/ild ./internal/telemetry ./internal/emr ./internal/forest ./internal/cache ./internal/guard ./internal/downlink ./internal/experiments

# bench runs every benchmark once and converts the output into the
# machine-readable BENCH_<sha>.json record (see cmd/benchjson). The
# timestamp is taken here, in the Makefile — library and CLI code never
# read the host clock (simclocktime lint).
#
# RESULTCACHE, when set to a directory, replays unchanged campaign arms
# from that content-addressed store (see RESULTCACHE.md), so a warm
# `make bench RESULTCACHE=.radshield-cache` re-run completes at
# near-constant wall-clock. The scheduler-scaling and warm-cache
# benchmarks ignore the shared store by design — their speedup floors
# must measure real computation.
RESULTCACHE ?=
bench:
	RADSHIELD_RESULTCACHE="$(RESULTCACHE)" $(GO) test -bench . -benchtime 1x | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out \
		-sha "$(SHA)" -stamp "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-out BENCH_$(SHA).json
	@echo "wrote BENCH_$(SHA).json"

# bench-compare regenerates the benchmarks and gates them against the
# committed baseline record (see PERFORMANCE.md). ns/op regressions are
# only gated when the baseline came from the same CPU model; the speedup
# floors transfer across machines and guard the parallel campaign
# scheduler from sliding back under serial (the 0.80× regression this
# gate exists to prevent). 0.9 rather than 1.0 keeps single-core hosts —
# where parallel ≈ serial minus scheduling overhead — out of the flake
# zone.
BASELINE ?= $(shell git ls-files 'BENCH_*.json' | head -1)
FLOORS ?= MissionSurvivalParallel/workers=2:speedup:0.9,MissionSurvivalParallel/workers=4:speedup:0.9,MissionSurvivalWarmCache:warm-speedup:10
bench-compare: bench
	@if [ -z "$(BASELINE)" ]; then \
		echo "bench-compare: no committed BENCH_*.json baseline found"; exit 1; fi
	$(GO) run ./cmd/benchjson -in bench.out -sha "$(SHA)" \
		-compare "$(BASELINE)" -floors "$(FLOORS)" -out /dev/null
