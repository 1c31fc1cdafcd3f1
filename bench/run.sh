#!/usr/bin/env bash
# Builds the ledger benchmark inside the checkout it is run from and
# execs it with the caller's arguments: BENCHMARK.json's command.
# Everything the build and the run write (Go build cache, the binary,
# temp dirs, trace files) lands under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/expertbench" .)
exec "$build/expertbench" "$@"
