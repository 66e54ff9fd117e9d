#!/usr/bin/env bash
# bench_micro.sh [OUT.json] — run the per-layer micro-benchmarks COUNT times
# each and record, per benchmark, the median ns/op, the quartiles and the
# interquartile range as a share of the median, and the median run's allocs/op,
# with the CPU model, Go version and commit they were taken on. The default
# output is BENCH_micro.json at the root of the checkout.
#
#   bash scripts/bench_micro.sh
#   COUNT=5 BENCH='BenchmarkProgram' bash scripts/bench_micro.sh /tmp/b.json
#
# A benchmark whose IQR exceeds GATE_IQR_PCT percent of its median (default
# 5, half of the CI perf gate's 10% threshold) is written with
# "gate_worthy": false: its spread is too wide for the gate to tell a
# regression from noise, so it does not belong in CI's BENCH_MICRO.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out=${1:-$root/BENCH_micro.json}
count=${COUNT:-10}
benchtime=${BENCHTIME:-1s}
gate=${GATE_IQR_PCT:-5}
# Every layer's micro-benchmarks; the whole-grid ones (BenchmarkPerfGrid,
# BenchmarkSweep*, BenchmarkProfileCheck) are perfbench's job.
bench=${BENCH:-'BenchmarkEngine|BenchmarkTransfer|BenchmarkIntraDelay|BenchmarkProgram|BenchmarkCoordinator|BenchmarkLock|BenchmarkCacheAccess|BenchmarkMem|BenchmarkSeriesDist|BenchmarkGenerate|BenchmarkNew$'}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
(cd "$root" && go test -run '^$' -bench "$bench" -benchtime "$benchtime" -count "$count" \
    ./internal/... .) | tee "$raw" >&2

commit=$(git -C "$root" rev-parse HEAD)
git -C "$root" diff --quiet HEAD || commit="$commit-dirty"
cpu=$(awk -F': ' '/^cpu: / { print $2; exit }' "$raw")
gover=$(go env GOVERSION)

# One "name ns allocs" line per result, the GOMAXPROCS suffix dropped, sorted
# by name and then ns/op, so each benchmark's samples arrive in order.
awk '/^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = ""; allocs = 0
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns != "") print name, ns, allocs
    }' "$raw" | sort -k1,1 -k2,2g |
awk -v commit="$commit" -v cpu="$cpu" -v gover="$gover" -v count="$count" -v gate="$gate" '
    # q returns the p-quantile of the n sorted samples in v, interpolating
    # linearly between neighbors.
    function q(v, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
    }
    function flush(    med, q1, q3, iqr) {
        if (n == 0) return
        med = q(ns, n, 0.5); q1 = q(ns, n, 0.25); q3 = q(ns, n, 0.75)
        iqr = med > 0 ? 100 * (q3 - q1) / med : 0
        printf "%s\n    {\"name\": \"%s\", \"runs\": %d, \"median_ns_op\": %.1f, \"q1_ns_op\": %.1f, \"q3_ns_op\": %.1f, \"iqr_pct\": %.2f, \"allocs_op\": %s, \"gate_worthy\": %s}",
            sep, cur, n, med, q1, q3, iqr, allocs[int((n - 1) / 2)], iqr <= gate ? "true" : "false"
        sep = ","
        n = 0
    }
    BEGIN {
        printf "{\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n", commit, gover, cpu
        printf "  \"count\": %d,\n  \"gate_iqr_pct\": %s,\n  \"benchmarks\": [", count, gate
    }
    $1 != cur { flush(); cur = $1 }
    { ns[n] = $2; allocs[n] = $3; n++ }
    END { flush(); printf "\n  ]\n}\n" }
' > "$out"
echo "bench_micro: wrote $out" >&2
