GO ?= go

.PHONY: check fmt vet lint build test race allocs nofma staticcheck vulncheck

# check is the CI gate: formatting, static analysis (vet + the project's
# own radlint suite), build, the full test suite under the race
# detector, the allocation-regression tests, and the fused-multiply-add
# gate.
check: fmt vet lint build race allocs nofma

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
# recorder, forest prediction, cache reads, telemetry), a result-cache
# replay's in-place decode of a fixed-width struct, the shared
# latchup-protection path, the downlink comms tick, frame codec and
# recorder restore, and the campaigns' payload formatting at zero
# allocations, a 4 h flight-software trace under 40 objects, EMR
# runtime construction under 2 MB, and an EMR Run's growth with its
# dataset count: a handful of objects under every scheme, plus at most
# one per dataset for EMR's conflict plan (see PERFORMANCE.md). They
# are tagged !race — race instrumentation allocates on its own — so the
# race suite skips them and check runs them here without the detector.
allocs:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/machine ./internal/trace ./internal/ild ./internal/telemetry ./internal/emr ./internal/forest ./internal/cache ./internal/guard ./internal/downlink ./internal/experiments ./internal/resultcache ./internal/alfg

# nofma keeps the per-sample packages on one arithmetic (DESIGN.md §9).
# The arm64 compiler fuses x*y + z into one multiply-add instruction,
# which rounds once instead of twice, unless the product is converted
# explicitly (float64(x*y)); amd64 never fuses. The target cross-compiles
# radbench for arm64 and fails on a fused instruction in any function of
# the packages below, and also if it finds none of their functions.
NOFMA_PKGS = alfg|cpu|machine|power
nofma:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	GOARCH=arm64 $(GO) build -o "$$tmp/radbench" ./cmd/radbench && \
	$(GO) tool objdump "$$tmp/radbench" > "$$tmp/radbench.s" && \
	awk -v pkgs='^radshield/internal/($(NOFMA_PKGS))\\.' ' \
		/^TEXT / { fn = $$2; if (fn ~ pkgs) seen++; next } \
		fn ~ pkgs && $$4 ~ /^(FMADD|FMSUB|FNMADD|FNMSUB)/ { print "fused multiply-add in " fn ": " $$1 " " $$4; bad = 1 } \
		END { if (!seen) { print "nofma: no function of the checked packages found"; exit 1 } \
			if (!bad) print "nofma: " seen " functions checked, none fused"; exit bad }' "$$tmp/radbench.s"
