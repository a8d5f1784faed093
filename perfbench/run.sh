#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload cold_suite --seed 1 --seconds 24 --trace 0
#
# Build products go to .bench_build/ and nowhere else (the shared dune
# cache is turned off).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/core ]; then
  echo "perfbench: no vat sources next to perfbench/; run it from a vat checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
mkdir -p .bench_build
dune build --root . --build-dir "$PWD/.bench_build/dune" --display quiet \
  ./perfbench/vatbench.exe >&2
exec .bench_build/dune/default/perfbench/vatbench.exe "$@"
