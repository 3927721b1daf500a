#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout; every argument is passed to perfbench/main.exe, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error so that standard output stays the
# benchmark's report. The dune cache is off: the build reads and writes
# only the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
