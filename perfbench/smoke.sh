#!/bin/sh
# Small-size smoke test of the benchmark: runs every workload named in
# BENCHMARK.json, plus the unlisted serve-open, at a small input size
# for two seconds, untraced and traced, and checks that each run exits
# 0, reports correct verdicts, and prints every metric BENCHMARK.json
# names for that mode with its unit.  Run from the repository root:
#
#   sh perfbench/smoke.sh
set -eu

out="$(mktemp -d ./.perfbench_smoke.XXXXXX)"
trap 'rm -rf "$out"' EXIT

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') serve-open"

fail=0
for w in $workloads; do
  for trace in 0 1; do
    if sh perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace "$trace" \
         --size small > "$out/run.txt" 2> "$out/err.txt"; then
      if python3 - "$out/run.txt" "$trace" <<'EOF'
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
r = json.loads(last)
spec = json.load(open("BENCHMARK.json"))
want = spec["per_layer" if sys.argv[2] == "1" else "end_to_end"]
assert set(r) == {"correct", "attempted", "failed", "metrics"}, sorted(r)
assert r["correct"] is True and r["attempted"] >= 1, r
missing = [m["name"] for m in want
           if r["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
extra = sorted(set(r["metrics"]) - {m["name"] for m in want})
assert not missing and not extra, (missing, extra)
EOF
      then
        echo "ok: $w --trace $trace"
      else
        echo "FAIL: $w --trace $trace: metrics do not match BENCHMARK.json"
        fail=1
      fi
    else
      echo "FAIL: $w --trace $trace exited non-zero"
      tail -5 "$out/err.txt"
      fail=1
    fi
  done
done
exit "$fail"
