#!/usr/bin/env bash
# perf_gate.sh BASE.txt HEAD.txt — compare two `go test -bench` result files
# with benchstat and fail (exit 1) when any benchmark shows a statistically
# significant slowdown of more than MAX_REGRESSION_PCT percent (default 10)
# in time/op. benchstat prints a delta column only when the difference is
# significant at p < 0.05 (otherwise "~"), so grepping the sec/op table for
# "+N%" deltas is exactly "significant slowdown".
#
# Benchmarks present in only one file (new or deleted) produce no delta and
# never fail the gate. Memory (B/op, allocs/op) and custom-metric tables are
# reported for context but are not gated: time is the contract, allocations
# are pinned separately by TestEngineSteadyStateAllocFree (internal/sim) and
# TestCoordinatorSteadyStateAllocFree (internal/core).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE.txt HEAD.txt" >&2
    exit 2
fi
base=$1
head=$2
max=${MAX_REGRESSION_PCT:-10}

if ! command -v benchstat >/dev/null; then
    echo "perf_gate: benchstat not found (go install golang.org/x/perf/cmd/benchstat@latest)" >&2
    exit 2
fi

# A result file with no benchmark lines means the corresponding run produced
# nothing to compare — benchstat would emit single-column tables with no
# deltas and the gate would pass vacuously. Refuse to gate on it.
for f in "$base" "$head"; do
    if ! grep -q '^Benchmark' "$f"; then
        echo "perf_gate: $f contains no benchmark results; refusing a vacuous pass" >&2
        exit 2
    fi
done

out=$(mktemp)
benchstat "base=$base" "head=$head" | tee "$out"

status=0
awk -v max="$max" '
    # Table header rows (the only lines containing │ box-drawing separators)
    # name the unit of the section that follows; only sec/op is gated.
    /│/ { timing = ($0 ~ /sec\/op/); next }
    timing && $1 == "geomean" { next }
    timing {
        for (i = 2; i <= NF; i++) {
            if ($i ~ /^\+[0-9]+(\.[0-9]+)?%$/) {
                pct = substr($i, 2, length($i) - 2) + 0
                if (pct > max) {
                    bad = 1
                    print "PERF REGRESSION (>" max "% slower, significant): " $0
                }
            }
        }
    }
    END { exit bad }
' "$out" || status=$?
rm -f "$out"
if [ "$status" -ne 0 ]; then
    echo "perf gate failed: significant >${max}% time/op regression vs base." >&2
    echo "If the slowdown is intended, add the perf-exempt label to the PR" >&2
    echo "or include [perf-exempt] in the head commit message." >&2
    exit 1
fi
echo "perf gate passed: no significant >${max}% time/op regression."
