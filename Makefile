GO ?= go

.PHONY: check fmt vet lint build test race allocs nofma linkcheck nonet cli-golden staticcheck vulncheck

# check is the CI gate: formatting, static analysis (vet + the project's
# own radlint suite), build, the full test suite under the race
# detector, the allocation-regression tests, the fused-multiply-add
# gate, the gate against code no program links, the gate against
# sockets in the simulation, and the CLIs' pinned output.
check: fmt vet lint build race allocs nofma linkcheck nonet cli-golden

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
# Step and the RunTrace loop, the sensor's reads, detectors and the
# flight-log recorder, forest prediction, cache reads, telemetry), a
# result-cache replay's in-place decode of a fixed-width struct, the
# shared latchup-protection path, the downlink comms tick, frame codec,
# stream frame reader and recorder restore, and the campaigns' payload
# path (build, enqueue and comms tick) at zero allocations, a recorder
# filling with small payloads at one object per 32 records or fewer, a 4 h
# flight-software trace under 40 objects, EMR runtime construction
# under 2 MB, an EMR Run's growth with its dataset count, with a
# no-op job, with every dataset conflicting and with the
# image-processing and dnn jobs: at most 8 objects from 16 to 64
# datasets under every scheme, EMR's plan included, and a fresh
# runtime's first Run at most 5 or 6 objects beyond a warm one (its
# visit scratch is sized once, from the spec), every EMR job's output
# appended into a dst with room at no allocation, a rendered table at
# two objects, the
# intrusion-detection job on its canonical pattern at 2 objects (its
# match index), the scheduler's Map at 8
# objects or fewer whatever its trial count, a result-cache
# Open+Close of a 190-entry store at 32 or fewer, and Table 2's bytes
# at a 2 h flight within 16 MB of a 30 min one (see PERFORMANCE.md).
# They are tagged !race — race instrumentation allocates on its own — so
# the race suite skips them and check runs them here without the
# detector.
allocs:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/machine ./internal/trace ./internal/ild ./internal/telemetry ./internal/emr ./internal/forest ./internal/cache ./internal/guard ./internal/downlink ./internal/experiments ./internal/resultcache ./internal/alfg ./internal/workloads ./internal/sched ./internal/power

# nofma keeps the per-sample packages (the thermal drift's in-repo
# sine, machine.sin, included), the trace builder, ILD with its linear
# model, the EMR path (the runtime's report, the fault environment and
# the workloads' jobs), the classifiers and statistics
# behind Table 2 and the ablations, and the campaigns themselves on one
# arithmetic (DESIGN.md §9). The arm64, ppc64le and riscv64 compilers
# fuse x*y + z into one multiply-add instruction, which rounds once
# instead of twice, unless the product is converted explicitly
# (float64(x*y)); amd64 never fuses. The target cross-compiles radbench
# for each of the three and fails on a fused instruction (the FMADD,
# FMSUB, FNMADD and FNMSUB families, which all three name alike) in any
# function of the packages below, and also if it finds none of their
# functions.
NOFMA_PKGS = alfg|bayes|cpu|emr|experiments|fault|forest|ild|linmodel|machine|power|stats|trace|workloads
nofma:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for arch in arm64 ppc64le riscv64; do \
		GOARCH=$$arch $(GO) build -o "$$tmp/radbench" ./cmd/radbench && \
		$(GO) tool objdump "$$tmp/radbench" > "$$tmp/radbench.s" && \
		awk -v arch=$$arch -v pkgs='^radshield/internal/($(NOFMA_PKGS))\\.' ' \
			/^TEXT / { fn = $$2; if (fn ~ pkgs) seen++; next } \
			fn ~ pkgs && $$4 ~ /^(FMADD|FMSUB|FNMADD|FNMSUB)/ { print "fused multiply-add on " arch " in " fn ": " $$1 " " $$4; bad = 1 } \
			END { if (!seen) { print "nofma: no function of the checked packages found on " arch; exit 1 } \
				if (!bad) print "nofma: " arch ": " seen " functions checked, none fused"; exit bad }' "$$tmp/radbench.s" || exit 1; \
	done

# linkcheck keeps internal/ free of code that no program runs. It builds
# every main under cmd/ and examples/, and bench/ (its own module), with
# inlining off (-l), so that a function inlined at every call site still
# shows in the symbol table, and lists their symbols with go tool nm. It
# fails on any top-level func declared in a non-test, host-platform file
# of an internal/ package that no program links, unless linkcheck.allow
# names it with a reason ("symbol reason", one per line). Generic
# functions link under instantiated names and are compared with their
# [...] stripped. It also fails on an allowlist line without a reason or
# whose symbol is linked or not declared, and if it finds no declared or
# no linked function at all.
linkcheck:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/bin" && \
	$(GO) build -gcflags=all=-l -o "$$tmp/bin/" ./cmd/... ./examples/... && \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$tmp/bin/bench" .) && \
	for f in "$$tmp"/bin/*; do $(GO) tool nm "$$f" || exit 1; done > "$$tmp/nm" && \
	$(GO) list -f '{{$$p := .ImportPath}}{{range .GoFiles}}{{$$p}} {{$$.Dir}}/{{.}}{{"\n"}}{{end}}' ./internal/... > "$$tmp/files" && \
	awk '{ pkg = $$1; file = substr($$0, length(pkg) + 2); \
		while ((n = (getline s < file)) > 0) { \
			if (s !~ /^func /) continue; \
			s = substr(s, 6); recv = ""; \
			if (s ~ /^\(/) { \
				i = index(s, ")"); r = substr(s, 2, i - 2); s = substr(s, i + 2); \
				gsub(/\[[^]]*\]/, "", r); k = split(r, a, " "); \
				recv = a[k] ~ /^\*/ ? "(" a[k] ")." : a[k] "."; \
			} \
			match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH); \
			if (name != "_" && (recv != "" || name != "init")) print pkg "." recv name; \
		} \
		if (n < 0) { print "linkcheck: cannot read " file; exit 1 } close(file) }' "$$tmp/files" > "$$tmp/declared" && \
	awk '$$2 ~ /^[Tt]$$/ { s = $$0; sub(/^ *[0-9a-f]* +[Tt] +/, "", s); \
		while (gsub(/\[[^][]*\]/, "", s)); print s }' "$$tmp/nm" > "$$tmp/linked" && \
	awk 'FILENAME == ARGV[1] { linked[$$0] = 1; nlinked++; next } \
		FILENAME == ARGV[2] { if ($$0 !~ /^(#|[[:space:]]*$$)/) { allow[$$1] = NF > 1; line[$$1] = FNR; order[++nallow] = $$1 } next } \
		{ declared[$$0] = 1; ndeclared++; \
			if (!($$0 in linked) && !($$0 in allow)) { print "linkcheck: " $$0 " is linked into no program"; bad = 1 } } \
		END { if (!nlinked || !ndeclared) { print "linkcheck: found no linked or no declared function"; exit 1 } \
			for (i = 1; i <= nallow; i++) { s = order[i]; \
				if (!allow[s]) { print "linkcheck: linkcheck.allow:" line[s] ": " s " has no reason"; bad = 1 } \
				else if (!(s in declared)) { print "linkcheck: linkcheck.allow:" line[s] ": " s " is not declared"; bad = 1 } \
				else if (s in linked) { print "linkcheck: linkcheck.allow:" line[s] ": " s " is linked; drop it from the list"; bad = 1 } } \
			if (!bad) print "linkcheck: " ndeclared " functions checked, all linked or allowed"; exit bad }' \
		"$$tmp/linked" linkcheck.allow "$$tmp/declared"

# nonet keeps the network stack out of the simulation. Four programs
# link it, through internal/groundlink, the one internal package that
# opens sockets: cmd/groundstation serves spacecraft links over TCP and
# the mission state over HTTP; cmd/ildmon and examples/leomission dial
# a ground station with -downlink; cmd/radbench dials one with
# -downlink and serves its live snapshot and expvar with
# -telemetry-http. Every other program (the benchmark, emrrun, the
# other examples) and every other internal package links no network
# stack, so with cgo on the programs stay static binaries with no
# program interpreter, and start without the dynamic loader and the
# network packages' initialisers (PERFORMANCE.md bottleneck 15). The
# target lists the `go list -deps` closure of every internal/, cmd/ and
# examples/ package and of the bench module, and fails when net,
# net/http, crypto/tls or expvar is in the closure of any but the five
# packages above, and also if it lists no package.
NONET_DEPS = net|net/http|crypto/tls|expvar
NONET_ALLOWED = radshield/internal/groundlink radshield/cmd/groundstation radshield/cmd/ildmon radshield/cmd/radbench radshield/examples/leomission
nonet:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	deps='{{.ImportPath}}{{range .Deps}} {{.}}{{end}}'; \
	$(GO) list -f "$$deps" ./internal/... ./cmd/... ./examples/... > "$$tmp" && \
	(cd bench && $(GO) list -f "$$deps" .) >> "$$tmp" && \
	awk -v allowed='$(NONET_ALLOWED)' -v net='^($(NONET_DEPS))$$' ' \
		BEGIN { n = split(allowed, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 } \
		{ seen++; if ($$1 in ok) next; found = ""; \
			for (i = 2; i <= NF; i++) if ($$i ~ net) found = found " " $$i; \
			if (found != "") { print "nonet: " $$1 " links" found; bad = 1 } } \
		END { if (!seen) { print "nonet: listed no package"; exit 1 } \
			if (!bad) print "nonet: " seen " packages checked, none but the " n " allowed links the network"; exit bad }' "$$tmp"

# cli-golden pins what ildmon, examples/leomission, radbench and emrrun
# print. It builds the four once and runs each line of testdata/cli/cases
# ("name program flags...") in an empty directory of its own. It fails unless every run
# exits 0, its stdout equals testdata/cli/<name>.txt, and the SHA-256 of
# every file it leaves behind (ildmon -dump's 3 MB CSV) equals
# testdata/cli/<name>.sha256, and also if a golden names no case.
# `make cli-golden UPDATE=1` rewrites the goldens instead.
cli-golden:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ildmon" ./cmd/ildmon && \
	$(GO) build -o "$$tmp/leomission" ./examples/leomission && \
	$(GO) build -o "$$tmp/radbench" ./cmd/radbench && \
	$(GO) build -o "$$tmp/emrrun" ./cmd/emrrun || exit 1; \
	bad=0; n=0; \
	while read -r name prog flags; do \
		case "$$name" in ''|'#'*) continue;; esac; \
		n=$$((n + 1)); g=testdata/cli/$$name; \
		rm -rf "$$tmp/run"; mkdir "$$tmp/run"; \
		if ! (cd "$$tmp/run" && "../$$prog" $$flags > ../out 2> ../err); then \
			echo "cli-golden: $$name: $$prog $$flags failed:"; cat "$$tmp/err"; bad=1; continue; fi; \
		(cd "$$tmp/run" && find . -type f | sort | xargs -r sha256sum) > "$$tmp/sums"; \
		if [ -n "$(UPDATE)" ]; then \
			cp "$$tmp/out" "$$g.txt"; rm -f "$$g.sha256"; \
			if [ -s "$$tmp/sums" ]; then cp "$$tmp/sums" "$$g.sha256"; fi; \
			continue; fi; \
		if ! cmp -s "$$tmp/out" "$$g.txt"; then \
			echo "cli-golden: $$name: $$prog $$flags prints other than $$g.txt:"; \
			diff "$$g.txt" "$$tmp/out" | head -20; bad=1; fi; \
		if [ -s "$$tmp/sums" ] || [ -e "$$g.sha256" ]; then \
			if ! cmp -s "$$tmp/sums" "$$g.sha256"; then \
				echo "cli-golden: $$name: the files $$prog $$flags writes differ from $$g.sha256:"; \
				cat "$$tmp/sums"; bad=1; fi; fi; \
	done < testdata/cli/cases; \
	if [ $$n -eq 0 ]; then echo "cli-golden: testdata/cli/cases lists no run"; exit 1; fi; \
	for f in testdata/cli/*.txt testdata/cli/*.sha256; do \
		[ -e "$$f" ] || continue; name=$$(basename "$$f"); name=$${name%.*}; \
		if ! grep -q "^$$name " testdata/cli/cases; then \
			echo "cli-golden: $$f names no run in testdata/cli/cases"; bad=1; fi; \
	done; \
	if [ $$bad -eq 0 ]; then \
		if [ -n "$(UPDATE)" ]; then echo "cli-golden: $$n goldens rewritten"; \
		else echo "cli-golden: $$n runs match their goldens"; fi; fi; \
	exit $$bad
