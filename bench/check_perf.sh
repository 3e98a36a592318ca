#!/bin/sh
# Smoke test for the performance work, in three acts:
#
#   1. determinism: the gate workload (full DroidBench table with all
#      three engines + the full SecuriBench-µ table) must render
#      bit-identical output at --jobs 1 and --jobs "$JOBS" — the
#      app-level parallelism contract.
#   2. work: the --jobs 1 run's per-iteration path edges and worklist
#      dedup hits must equal the values in the committed
#      BENCH_perf.json exactly (they are the same on every machine).
#   3. speedup: the sequential per-iteration best must beat the
#      recorded pre-optimisation baseline by at least MIN_SPEEDUP.
#
#   sh bench/check_perf.sh [JOBS]           (default JOBS: 2)
#
# Writes BENCH_perf.json at the repo root and exits non-zero on a
# digest mismatch, a work-counter mismatch or a missed speedup, so it
# can gate CI.
set -eu

jobs="${1:-2}"
# wall-clock seconds per iteration of the same workload measured at
# the pre-optimisation tree (structural solver keys, no interning, no
# scene/ICFG caches), best of 5 on the reference machine
baseline_s="0.061"
min_speedup="${MIN_SPEEDUP:-1.5}"
repeat="${REPEAT:-5}"

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$root"
fail=0

echo "== check_perf: building"
dune build --display=quiet bench/perf_bench.exe

echo "== check_perf: sequential run (--jobs 1, --repeat $repeat)"
dune exec --display=quiet bench/perf_bench.exe -- \
  --jobs 1 --repeat "$repeat" --json "$work/seq.json"

echo "== check_perf: parallel run (--jobs $jobs, --repeat 1)"
dune exec --display=quiet bench/perf_bench.exe -- \
  --jobs "$jobs" --repeat 1 --json "$work/par.json"

json_field () {
  # json_field FILE KEY — extract a scalar field from the flat report
  sed -n "s/^ *\"$2\": *\"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$1"
}

seq_digest="$(json_field "$work/seq.json" digest)"
par_digest="$(json_field "$work/par.json" digest)"
best_s="$(json_field "$work/seq.json" best_s)"
mean_s="$(json_field "$work/seq.json" mean_s)"
dedup="$(json_field "$work/seq.json" worklist_dedup_hits)"
edges="$(json_field "$work/seq.json" path_edges)"

if [ "$seq_digest" = "$par_digest" ] && [ -n "$seq_digest" ]; then
  echo "ok: --jobs 1 and --jobs $jobs render identical output ($seq_digest)"
else
  echo "FAIL: output digest differs between job counts"
  echo "  --jobs 1:     $seq_digest"
  echo "  --jobs $jobs:     $par_digest"
  fail=1
fi

# the committed counters, read before this run rewrites the file
for field in path_edges worklist_dedup_hits; do
  want="$(json_field BENCH_perf.json "$field" 2>/dev/null || true)"
  got="$(json_field "$work/seq.json" "$field")"
  if [ -n "$want" ] && [ "$want" = "$got" ]; then
    echo "ok: $field $got equals the committed value"
  else
    echo "FAIL: $field $got differs from the committed value '$want'"
    fail=1
  fi
done

speedup="$(awk "BEGIN { printf \"%.2f\", $baseline_s / $best_s }")"
ok_speedup="$(awk "BEGIN { print ($baseline_s / $best_s >= $min_speedup) ? 1 : 0 }")"
if [ "$ok_speedup" = 1 ]; then
  echo "ok: best ${best_s}s vs baseline ${baseline_s}s = ${speedup}x (>= ${min_speedup}x)"
else
  echo "FAIL: best ${best_s}s vs baseline ${baseline_s}s = ${speedup}x (< ${min_speedup}x)"
  fail=1
fi

cat > BENCH_perf.json <<EOF
{
 "workload": "droidbench(flowdroid+appscan+fortify) + securibench-u",
 "baseline_s": $baseline_s,
 "best_s": $best_s,
 "mean_s": $mean_s,
 "repeat": $repeat,
 "speedup": $speedup,
 "min_speedup": $min_speedup,
 "jobs_checked": $jobs,
 "digest_jobs1": "$seq_digest",
 "digest_jobsN": "$par_digest",
 "deterministic": $([ "$seq_digest" = "$par_digest" ] && echo true || echo false),
 "path_edges": $edges,
 "worklist_dedup_hits": $dedup
}
EOF
echo "wrote BENCH_perf.json"

[ "$fail" = 0 ] && echo "== check_perf: PASS" || echo "== check_perf: FAIL"
exit "$fail"
