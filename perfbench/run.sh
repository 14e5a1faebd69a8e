#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument passes through (see perfbench/README.md). The binary, the Go
# build cache and the Go tool's own state stay under .bench_build/ at the
# checkout root, so nothing outside the checkout is written. The build
# fails, and so does this script, when the library's sources are absent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
