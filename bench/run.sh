#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build bench/ from source into
# .bench_build/ inside the checkout, then run it with the caller's flags.
# The Go build cache and the trace files live under .bench_build/ too, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/rfp-bench" ./bench
exec "$out/rfp-bench" -tracedir "$out/trace" "$@"
