#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it with
# the given arguments (see README.md).  Build output goes to stderr so the
# last line of standard output stays the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet \
  ./perfbench/perfbench.exe 1>&2
exec .bench_build/default/perfbench/perfbench.exe "$@"
