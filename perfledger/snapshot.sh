#!/usr/bin/env bash
# snapshot.sh writes a dated performance snapshot,
# perfledger/snapshots/BENCH_<date>.json: every perfledger workload with
# tracing (so both the end-to-end and the per-layer metrics), joined with the
# repository's hot-path micro-benchmarks at -count 5 as converted by
# scripts/benchjson. Compare two snapshots with benchjson diff (see
# perfledger/README.md).
#
# Each workload gets a 50-second window, half of it untraced: the same
# 25-second measurement the benchmark makes.
#
# Environment knobs:
#   BENCH_DATE  stamp to use instead of today  (default: date +%F)
#   BENCH_SEED  workload seed                  (default: 1; 7 is the held-out seed)
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-mod" "$build/config" "$here/snapshots"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

date_stamp=${BENCH_DATE:-$(date +%F)}
out="$here/snapshots/BENCH_${date_stamp}.json"
perf="$build/perf-${date_stamp}.json"

cd "$root"
go build -o "$build/perfledger" ./perfledger
go build -o "$build/benchjson" ./perfledger/benchjson

"$build/perfledger" -workdir "$build" -workload all -trace 1 -json "$perf" \
  -seed "${BENCH_SEED:-1}" -seconds 50 >&2

micro='BenchmarkLMDist$|BenchmarkBeamSearch$|BenchmarkSelect$|BenchmarkVerifyTree$|BenchmarkCostModel$|BenchmarkEngineIteration$'
go test -run '^$' -bench "$micro" -benchmem -count 5 . |
  tee /dev/stderr | go run ./scripts/benchjson -date "$date_stamp" |
  "$build/benchjson" snapshot -date "$date_stamp" -perf "$perf" > "$out"

echo "wrote $out" >&2
