#!/usr/bin/env bash
# Build the harness and the pmdp CLI from this checkout, then run the
# harness with the given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-s8 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# dune's shared cache is disabled, and temporary files (the kernel
# compiler's included) go to .perfbench/tmp.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a complete pmdp checkout" >&2
  exit 2
fi

root=$(pwd)
mkdir -p .perfbench/tmp
export TMPDIR="$root/.perfbench/tmp"
export DUNE_CACHE=disabled

dune build --root . --display quiet perfbench/harness.exe bin/pmdp.exe >&2
exec ./_build/default/perfbench/harness.exe "$@"
