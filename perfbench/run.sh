#!/bin/sh
# Build the program and the benchmark from source, then run one
# benchmark workload.  Run from the repository root:
#
#   sh perfbench/run.sh --workload corpus-mix|deep-chain|serve-open \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to dune's _build/ in the current directory and to
# stderr; stdout carries only the benchmark's report, whose last line
# is the JSON result.
set -eu

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"

dune build --root . -j 2 --display=quiet \
  ./perfbench/main.exe ./bin/flowdroid_serve.exe 1>&2

exec ./_build/default/perfbench/main.exe "$@"
