#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload hybrid-sat --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --all            # every workload, 5 seeds, + traced runs
#
# Run from the repository root. The build, the Go caches and the traced
# runs' span files all stay in .bench_build/ inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
		go build -o "$out/bin/perfbench" .
)
exec "$out/bin/perfbench" "$@"
