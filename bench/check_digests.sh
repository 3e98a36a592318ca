#!/bin/sh
# Verdict and work digests of the benchmark, for every recorded seed.
#
#   sh bench/check_digests.sh
#
# Builds perfbench/main.exe and runs it for one second, untraced, on
# both workloads at every seed that perfbench/digests.json records.
# Each run folds its first pass's verdicts and work counters
# (ifds.path_edges, bidi.alias_queries, cg.fixpoint_iterations, ...)
# into two digests and reports "correct": true only when they equal the
# recorded ones, every planted leak is found and later passes repeat
# the first.  Fails unless every run reports "correct": true.  Reads
# perfbench/ and writes nothing there; exits non-zero on any failure,
# so it can gate CI.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

echo "== check_digests: building"
dune build --root . --display=quiet ./perfbench/main.exe

# "workload seed" lines, in the order digests.json lists them
python3 -c '
import json
for w, seeds in json.load(open("perfbench/digests.json")).items():
    for s in seeds:
        print(w, s)
' >"$out/runs"

fail=0
n=0
while read -r workload seed; do
  n=$((n + 1))
  if ./_build/default/perfbench/main.exe --workload "$workload" --seed "$seed" \
       --seconds 1 --trace 0 >"$out/run.txt" 2>"$out/err.txt" &&
     tail -n 1 "$out/run.txt" | grep -q '"correct":true'; then
    echo "ok: $workload seed $seed"
  else
    echo "FAIL: $workload seed $seed"
    grep 'perfbench: FAIL' "$out/err.txt" || tail -n 5 "$out/err.txt"
    fail=1
  fi
done <"$out/runs"

if [ "$fail" = 0 ]; then
  echo "PASS: $n runs, every verdict and work digest matches perfbench/digests.json"
else
  echo "FAIL: some runs do not match perfbench/digests.json"
fi
exit "$fail"
