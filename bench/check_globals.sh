#!/bin/sh
# Shared-mutable-global lint for lib/.
#
#   sh bench/check_globals.sh
#
# Batch runners fan whole apps out over OCaml 5 domains (Fd_util.Pool),
# so a module-level mutable value is shared by every domain; an
# unsynchronised one is a data race (a lazy forced from two domains
# raises CamlinternalLazy.Undefined in the loser).  This gate finds
# every top-level binding in lib/**/*.ml (a `let` at column 0 with no
# parameters) whose value is created at module initialisation by
# `lazy`, `ref`, `Hashtbl.create`, `Buffer.create` or `Array.make`:
#
#   let x = ref 0                      let x : t =
#                                        Hashtbl.create 16
#   let f =                            let f =
#     let memo = lazy (...) in           let template =
#     fun () -> Lazy.force memo            lazy (...)
#
# (a shared value built on first use belongs in an Fd_util.Once cell,
# which is domain-safe and not flagged)
# and fails unless each one is listed in the allowlist below, one
# `file: binding — reason` line each.  A listed site that no longer
# exists fails too, so the list only shrinks with the code.  Exits
# non-zero on any failure, so it can gate CI.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

allow=$(cat <<'EOF'
lib/core/summary.ml: provider — store backend hook, set once by Fd_store.install before any analysis starts
lib/obs/metrics.ml: counters — registry, every access under registry_lock
lib/obs/metrics.ml: gauges — registry, every access under registry_lock
lib/obs/metrics.ml: histograms — registry, every access under registry_lock
lib/obs/profile.ml: cells — per-method profile cells, every access under lock
lib/obs/trace.ml: stores — per-domain span stores, every access under stores_lock
lib/store/store.ml: diags_rev — store diagnostics, every access under diag_lock
lib/store/store.ml: diag_count — store diagnostics, every access under diag_lock
lib/store/store.ml: backends — open backends, every access under backends_lock
lib/store/store.ml: installed — set by install (), called from the main domain before any fan-out
EOF
)

found=$(find lib -name '*.ml' | LC_ALL=C sort | while read -r f; do
  awk -v file="$f" '
    function mutable_init(s) {
      return s ~ /^[ \t]*(lazy|ref|Hashtbl\.create|Buffer\.create|Array\.make)([^A-Za-z0-9_'"'"']|$)/
    }
    function inner_let_init(s,   rest) {
      if (s !~ /^[ \t]+let [a-z_][A-Za-z0-9_'"'"']*[ \t]*(:[^=]*)?=/) return 0
      rest = s
      sub(/^[ \t]+let [a-z_][A-Za-z0-9_'"'"']*[ \t]*(:[^=]*)?=/, "", rest)
      if (rest ~ /^[ \t]*$/) return 2
      return mutable_init(rest)
    }
    { line[NR] = $0 }
    END {
      for (i = 1; i <= NR; i++) {
        s = line[i]
        if (s !~ /^let (rec )?[a-z_][A-Za-z0-9_'"'"']*[ \t]*(:[^=]*)?=/) continue
        name = s
        sub(/^let (rec )?/, "", name)
        sub(/[^A-Za-z0-9_'"'"'].*$/, "", name)
        rest = s
        sub(/^let (rec )?[a-z_][A-Za-z0-9_'"'"']*[ \t]*(:[^=]*)?=/, "", rest)
        hit = 0
        if (rest !~ /^[ \t]*$/) hit = mutable_init(rest)
        else {
          j = i + 1
          while (j <= NR && line[j] ~ /^[ \t]*$/) j++
          if (j <= NR) {
            if (mutable_init(line[j])) hit = 1
            else {
              k = inner_let_init(line[j])
              if (k == 1) hit = 1
              else if (k == 2 && j + 1 <= NR && mutable_init(line[j + 1])) hit = 1
            }
          }
        }
        if (hit) print file ": " name
      }
    }' "$f"
done)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf '%s\n' "$allow" | sed 's/ — .*$//' | LC_ALL=C sort >"$tmp/allowed"
printf '%s\n' "$found" | sed '/^$/d' | LC_ALL=C sort >"$tmp/found"

fail=0
for site in $(LC_ALL=C comm -23 "$tmp/found" "$tmp/allowed" | tr ' ' '@'); do
  echo "FAIL: new shared mutable global $(echo "$site" | tr '@' ' ')"
  fail=1
done
for site in $(LC_ALL=C comm -13 "$tmp/found" "$tmp/allowed" | tr ' ' '@'); do
  echo "FAIL: allowlisted global no longer found, drop it: $(echo "$site" | tr '@' ' ')"
  fail=1
done

n=$(wc -l <"$tmp/found" | tr -d ' ')
if [ "$fail" = 0 ]; then
  echo "PASS: $n top-level mutable globals in lib/, all allowlisted"
else
  echo "(a new global needs synchronisation, Domain.DLS, an Fd_util.Once cell, or an allowlist line with its reason)"
fi
exit "$fail"
