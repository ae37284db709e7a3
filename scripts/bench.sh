#!/usr/bin/env bash
# bench.sh — benchmark-regression snapshot.
#
# Runs the hot-path microbenchmarks and the end-to-end figure macrobenchmark,
# then writes a dated JSON artifact (bench/BENCH_<date>.json) via
# scripts/benchjson. Commit the artifact to give future PRs a perf
# trajectory; compare two snapshots with e.g.
#
#   jq -s '[.[0].results, .[1].results]' bench/BENCH_A.json bench/BENCH_B.json
#
# Environment knobs:
#   BENCH_DATE        stamp to use instead of today       (default: date +%F)
#   BENCH_COUNT       -count for the microbenchmarks      (default: 1)
#   BENCH_TIME        -benchtime for the microbenchmarks  (default: 1s)
#   BENCH_MACRO_TIME  -benchtime for the macrobenchmark   (default: 1x)
set -euo pipefail
cd "$(dirname "$0")/.."

date_stamp=${BENCH_DATE:-$(date +%F)}
out="bench/BENCH_${date_stamp}.json"
mkdir -p bench

micro='BenchmarkLMDist$|BenchmarkLMDistMiss$|BenchmarkBeamSearch$|BenchmarkSelect$|BenchmarkVerifyTree$|BenchmarkCostModel$|BenchmarkEngineIteration$'
macro='BenchmarkFigure8and9Llama$|BenchmarkFigureGrid$|BenchmarkAutoscaleGrid$|BenchmarkFaultGrid$|BenchmarkPrefixGrid$|BenchmarkTraceGrid$|BenchmarkObsOverhead$'

{
  go test -run '^$' -bench "$micro" -benchmem \
    -count "${BENCH_COUNT:-1}" -benchtime "${BENCH_TIME:-1s}" .
  go test -run '^$' -bench "$macro" -benchtime "${BENCH_MACRO_TIME:-1x}" .
} | tee /dev/stderr | go run ./scripts/benchjson -date "$date_stamp" > "$out"

echo "wrote $out" >&2
