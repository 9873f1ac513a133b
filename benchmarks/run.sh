#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds kkperf from source into
# .bench_build/ at the root of the checkout (with the Go build cache and the
# compiler's scratch directory there too, so nothing outside the checkout is
# written) and runs it with the arguments given:
# --workload W --seed N --seconds S --trace 0|1.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$GOTMPDIR"
(cd "$here" && go build -o "$build/bin/kkperf" ./kkperf)
exec "$build/bin/kkperf" -root "$root" "$@"
