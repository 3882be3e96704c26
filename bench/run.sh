#!/usr/bin/env bash
# Builds lakeload from source into .bench_build/ at the root of the checkout
# and runs it with the given arguments. Everything the build writes (object
# cache, temporary files, the binary) stays inside the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/lakeload" ./lakeload)
cd "$root"
exec "$out/lakeload" "$@"
