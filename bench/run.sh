#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/) and runs it.
# Everything the build writes, the Go build cache and its temporary
# files included, stays in the checkout; the arguments are passed
# through unchanged. The bench directory is a module of its own that
# replaces `mirage` with the parent directory, so without the repo
# around it the build, and so this script, fails.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/miragebench-perf" .
exec "$build/miragebench-perf" "$@"
