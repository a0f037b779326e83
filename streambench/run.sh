#!/usr/bin/env bash
# Builds the end-to-end streaming-inference benchmark from source and
# runs it. Run from the root of a checkout:
#
#   bash streambench/run.sh --workload ffnn-embedded --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and traced-run span files stay under
# .bench_build/ in the checkout; the first run compiles everything.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/streambench" .) >&2
exec "$out/streambench" "$@"
