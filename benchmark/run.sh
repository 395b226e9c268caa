#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source inside
# the checkout and runs it. Everything the build writes (go cache included)
# stays under <checkout>/.bench_build, so a run touches nothing outside.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-modcacherw
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/bin/shmbench" .)
exec "$out/bin/shmbench" -root "$root" "$@"
