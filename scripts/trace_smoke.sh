#!/usr/bin/env bash
# trace_smoke.sh — end-to-end smoke test of the tracing layer, as CI runs it.
#
# Runs `syncron-sim run -trace` on a traced workload and asserts the trace is
# non-empty, well-formed CSV (pinned header, 6 fields per line, integer
# picosecond spans with end >= start, monotone non-decreasing start column —
# the deterministic commit order), and covers the expected record kinds.
# Then re-runs the identical spec and requires a byte-identical trace, and
# runs a one-run sweep with -trace to check the per-run directory path.
#
# Usage: scripts/trace_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

echo "==> building syncron-sim"
go build -o "$workdir/syncron-sim" ./cmd/syncron-sim
sim="$workdir/syncron-sim"

run_flags=(-workload stack -scheme syncron -units 2 -cores 8 -ops 20 -seed 7)

echo "==> tracing a run"
"$sim" run "${run_flags[@]}" -trace "$workdir/run.trace.csv" > /dev/null

echo "==> checking well-formedness"
header=$(head -1 "$workdir/run.trace.csv")
[ "$header" = "start_ps,end_ps,where,what,value,unit" ] \
  || { echo "bad trace header: $header" >&2; exit 1; }
lines=$(wc -l < "$workdir/run.trace.csv")
[ "$lines" -gt 1 ] || { echo "trace is empty" >&2; exit 1; }
echo "    $((lines - 1)) records"

awk -F, '
  NR == 1 { next }
  NF != 6 { print "line " NR ": " NF " fields, want 6"; bad = 1; exit }
  $1 !~ /^[0-9]+$/ || $2 !~ /^[0-9]+$/ { print "line " NR ": non-integer span"; bad = 1; exit }
  $2 + 0 < $1 + 0 { print "line " NR ": end before start"; bad = 1; exit }
  $1 + 0 < prev { print "line " NR ": start not monotone (commit order broken)"; bad = 1; exit }
  { prev = $1 + 0 }
  END { exit bad }
' "$workdir/run.trace.csv" || { echo "trace is malformed" >&2; exit 1; }

for what in queue_depth dispatched lock_wait lock_hold; do
  grep -q ",$what," "$workdir/run.trace.csv" \
    || { echo "no $what records in trace" >&2; exit 1; }
done

echo "==> tracing must be byte-identical across repeated runs"
"$sim" run "${run_flags[@]}" -trace "$workdir/again.trace.csv" > /dev/null
diff "$workdir/run.trace.csv" "$workdir/again.trace.csv" \
  || { echo "repeated traced runs differ" >&2; exit 1; }

echo "==> sweep -trace writes one trace per run"
"$sim" sweep -workloads stack -schemes syncron -units 2 -cores 8 -ops 20 \
  -trace "$workdir/sweeps" > /dev/null 2>&1
count=$(ls "$workdir/sweeps"/*.trace.csv 2>/dev/null | wc -l)
[ "$count" -eq 1 ] || { echo "expected 1 sweep trace, found $count" >&2; exit 1; }
head -1 "$workdir/sweeps"/*.trace.csv | grep -q "start_ps,end_ps" \
  || { echo "sweep trace has a bad header" >&2; exit 1; }

echo "==> trace smoke OK"
