#!/usr/bin/env bash
# trace_smoke.sh — end-to-end smoke test of the tracing layer, as CI runs it.
#
# Runs `syncron-sim run -trace` on a traced workload and asserts the trace is
# non-empty, well-formed CSV (pinned header, 6 fields per line, integer
# picosecond spans with end >= start, monotone non-decreasing start column —
# the deterministic commit order), and covers the expected record kinds.
# Requires lock spans in the traces of the same run under the ideal, central
# and ttas schemes too.
# Then re-runs the identical spec and requires a byte-identical trace, traces
# one -mem-model bank run (well-formed, with bank_busy, row_hit and row_miss
# records, byte-identical on a repeat run), and runs a one-run sweep with
# -trace to check the per-run directory path.
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

# check_wellformed FILE: pinned header, at least one record, 6 fields per
# line, integer spans with end >= start, monotone non-decreasing start.
check_wellformed() {
  local header lines
  header=$(head -1 "$1")
  [ "$header" = "start_ps,end_ps,where,what,value,unit" ] \
    || { echo "bad trace header in $1: $header" >&2; exit 1; }
  lines=$(wc -l < "$1")
  [ "$lines" -gt 1 ] || { echo "trace $1 is empty" >&2; exit 1; }
  echo "    $((lines - 1)) records"

  awk -F, '
    NR == 1 { next }
    NF != 6 { print "line " NR ": " NF " fields, want 6"; bad = 1; exit }
    $1 !~ /^[0-9]+$/ || $2 !~ /^[0-9]+$/ { print "line " NR ": non-integer span"; bad = 1; exit }
    $2 + 0 < $1 + 0 { print "line " NR ": end before start"; bad = 1; exit }
    $1 + 0 < prev { print "line " NR ": start not monotone (commit order broken)"; bad = 1; exit }
    { prev = $1 + 0 }
    END { exit bad }
  ' "$1" || { echo "trace $1 is malformed" >&2; exit 1; }
}

echo "==> checking well-formedness"
check_wellformed "$workdir/run.trace.csv"

for what in queue_depth dispatched lock_wait lock_hold; do
  grep -q ",$what," "$workdir/run.trace.csv" \
    || { echo "no $what records in trace" >&2; exit 1; }
done

echo "==> every scheme is traced alike"
for scheme in ideal central ttas; do
  "$sim" run -workload stack -scheme "$scheme" -units 2 -cores 8 -ops 20 -seed 7 \
    -trace "$workdir/$scheme.trace.csv" > /dev/null
  for what in lock_wait lock_hold; do
    grep -q ",$what," "$workdir/$scheme.trace.csv" \
      || { echo "no $what records in the $scheme trace" >&2; exit 1; }
  done
done

echo "==> tracing must be byte-identical across repeated runs"
"$sim" run "${run_flags[@]}" -trace "$workdir/again.trace.csv" > /dev/null
diff "$workdir/run.trace.csv" "$workdir/again.trace.csv" \
  || { echo "repeated traced runs differ" >&2; exit 1; }

echo "==> bank memory model traces bank_busy and row counters"
bank_flags=(-workload pr.wk -scheme syncron -scale 0.005 -mem-model bank -seed 1)
"$sim" run "${bank_flags[@]}" -trace "$workdir/bank.trace.csv" > /dev/null
check_wellformed "$workdir/bank.trace.csv"
for what in bank_busy row_hit row_miss; do
  grep -q ",$what," "$workdir/bank.trace.csv" \
    || { echo "no $what records in the bank trace" >&2; exit 1; }
done
"$sim" run "${bank_flags[@]}" -trace "$workdir/bank.again.trace.csv" > /dev/null
diff "$workdir/bank.trace.csv" "$workdir/bank.again.trace.csv" \
  || { echo "repeated traced bank runs differ" >&2; exit 1; }

echo "==> sweep -trace writes one trace per run"
"$sim" sweep -workloads stack -schemes syncron -units 2 -cores 8 -ops 20 \
  -trace "$workdir/sweeps" > /dev/null 2>&1
count=$(ls "$workdir/sweeps"/*.trace.csv 2>/dev/null | wc -l)
[ "$count" -eq 1 ] || { echo "expected 1 sweep trace, found $count" >&2; exit 1; }
head -1 "$workdir/sweeps"/*.trace.csv | grep -q "start_ps,end_ps" \
  || { echo "sweep trace has a bad header" >&2; exit 1; }

echo "==> trace smoke OK"
