#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's source and runs it with
# the given flags, e.g. from the repository root:
#
#   bash perfledger/run.sh --workload spec-decode --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files, the toolchain's configuration and
# telemetry counters, the binary and the traced runs' CPU profiles all live
# under .bench_build/ at the repository root, so the benchmark writes nothing
# outside the checkout. The first run compiles the standard library into
# that cache; later runs reuse it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-mod" "$build/config"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root" && go build -o "$build/perfledger" ./perfledger)
exec "$build/perfledger" -workdir "$build" "$@"
