#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument goes to the benchmark (see bench/README.md). The Go build
# cache, temporary files and the binary stay in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -buildvcs=false -o "$build/radshield-bench" .)
cd "$root"
exec "$build/radshield-bench" "$@"
