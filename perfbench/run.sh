#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --gateway-rate 2500 --workload replay --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, temporary files) stays under $CARGO_TARGET_DIR, default
# .bench_build, so the benchmark reads and writes only inside the
# checkout. Nothing is downloaded: the module has no dependencies beyond
# the repository itself.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# The Go tool's cache, temporary files, settings and telemetry counters
# all go under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
