#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
#
# The binary and the Go build cache both live in .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside the checkout; the
# first call in a fresh checkout compiles the standard library too (about a
# minute), later calls only check that the binary is current.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/gbcr-bench" .) >&2
"$out/gbcr-bench" "$@"
