#!/usr/bin/env bash
# Build the benchmark and the dpa daemon it drives from source, then run
# the benchmark from the repository root with the arguments given, e.g.
#   bash benchmark/run.sh --workload sweep-c1908 --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the result stays the last line of stdout.
# The shared dune cache is off so that a run writes only inside the tree.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/run.exe ./bin/dpa.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
