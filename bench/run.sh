#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (build cache included, so a
# run writes nothing outside the checkout) and runs it from the repo root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false \
	go build -C "$root/bench" -o "$build/ftss-bench" .
cd "$root"
exec "$build/ftss-bench" "$@"
