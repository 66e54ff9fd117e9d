#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the serve daemon, as CI runs it.
#
# Starts `syncron-sim serve` on an ephemeral port, requires an invalid spec to
# be rejected with HTTP 400 before anything simulates, submits a spec over HTTP,
# polls the job to completion, diffs the served result against the batch
# CLI's `run -json` output for the same spec (the byte-identity contract),
# then SIGTERMs the daemon and requires a clean drain (exit 0). A second
# daemon on the same cache directory must answer the identical submission at
# admission time (zero simulation) — the cache is the durable memoization
# tier across restarts.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
serve_pid=""
base=""
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
    kill -9 "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# start_daemon <logfile>: launches serve on an ephemeral port against the
# shared cache dir; sets serve_pid and base (from the banner's resolved addr).
start_daemon() {
  local log=$1
  "$sim" serve -addr 127.0.0.1:0 -cache "$workdir/cache" -workers 2 2> "$log" &
  serve_pid=$!
  base=""
  for _ in $(seq 1 100); do
    base=$(sed -n 's#.*serving on \(http://[0-9.:]*\).*#\1#p' "$log" | head -1)
    [ -n "$base" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$log" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$base" ] || { echo "daemon never logged its address" >&2; cat "$log" >&2; exit 1; }
  for _ in $(seq 1 100); do
    curl -fsS "$base/healthz" > /dev/null 2>&1 && break
    sleep 0.1
  done
  echo "    daemon at $base"
}

# stop_daemon <logfile>: SIGTERM and require a clean drain with exit 0.
stop_daemon() {
  local log=$1 rc=0
  kill -TERM "$serve_pid"
  wait "$serve_pid" || rc=$?
  serve_pid=""
  if [ "$rc" -ne 0 ]; then
    echo "daemon exited $rc on SIGTERM" >&2
    cat "$log" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$log" \
    || { echo "daemon did not report a clean drain" >&2; cat "$log" >&2; exit 1; }
}

echo "==> building syncron-sim"
go build -o "$workdir/syncron-sim" ./cmd/syncron-sim
sim="$workdir/syncron-sim"

run_flags=(-workload stack -scheme syncron -units 2 -cores 8 -ops 20 -seed 7)
# -print-spec emits the exact canonical RunSpec payload the daemon expects.
spec=$("$sim" run "${run_flags[@]}" -print-spec)

echo "==> starting serve daemon"
start_daemon "$workdir/serve1.log"

echo "==> rejecting an invalid spec at admission"
code=$(curl -sS -o "$workdir/bad.json" -w '%{http_code}' -X POST "$base/jobs" \
  -d '{"specs":[{"workload":"stack","config":{"scheme":"bogus"}}]}')
[ "$code" = 400 ] \
  || { echo "invalid spec got HTTP $code, want 400: $(cat "$workdir/bad.json")" >&2; exit 1; }
curl -fsS "$base/metrics" | grep -q '"simulated": 0' \
  || { echo "daemon simulated the rejected spec" >&2; exit 1; }

echo "==> submitting spec"
submit=$(curl -fsS -X POST "$base/jobs" -d "{\"specs\":[$spec]}")
job_id=$(printf '%s' "$submit" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
[ -n "$job_id" ] || { echo "no job id in response: $submit" >&2; exit 1; }
echo "    job $job_id"

echo "==> polling to completion"
state=""
for _ in $(seq 1 300); do
  status=$(curl -fsS "$base/jobs/$job_id")
  state=$(printf '%s' "$status" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
  [ "$state" = "done" ] && break
  if [ "$state" = "canceled" ]; then
    echo "job canceled unexpectedly: $status" >&2
    exit 1
  fi
  sleep 0.1
done
[ "$state" = "done" ] || { echo "job never finished (state: $state)" >&2; exit 1; }

echo "==> diffing served result against the batch CLI"
curl -fsS "$base/jobs/$job_id/result" > "$workdir/served.json"
"$sim" run "${run_flags[@]}" -json - > "$workdir/batch.json"
diff "$workdir/served.json" "$workdir/batch.json" \
  || { echo "served result is not byte-identical to run -json" >&2; exit 1; }

echo "==> graceful shutdown"
stop_daemon "$workdir/serve1.log"

echo "==> restarting on the same cache: resubmission must be done on arrival"
start_daemon "$workdir/serve2.log"
warm=$(curl -fsS -X POST "$base/jobs" -d "{\"specs\":[$spec]}")
printf '%s' "$warm" | grep -q '"state": "done"' \
  || { echo "warm resubmission not served from cache: $warm" >&2; exit 1; }
printf '%s' "$warm" | grep -q '"cache_hits": 1' \
  || { echo "warm resubmission reports no cache hit: $warm" >&2; exit 1; }
metrics=$(curl -fsS "$base/metrics")
printf '%s' "$metrics" | grep -q '"simulated": 0' \
  || { echo "warm daemon simulated something: $metrics" >&2; exit 1; }

echo "==> graceful shutdown (warm daemon)"
stop_daemon "$workdir/serve2.log"

echo "==> serve smoke OK"
