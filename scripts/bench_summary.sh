#!/usr/bin/env bash
# bench_summary.sh [BENCH.json] — render a syncron-bench -perf report as a
# GitHub job-summary Markdown table. CI appends the output to
# $GITHUB_STEP_SUMMARY so events/sec trends are visible on every PR without
# downloading artifacts:
#
#   go run ./cmd/syncron-bench -perf -perf-out BENCH.ci.json
#   scripts/bench_summary.sh BENCH.ci.json >> "$GITHUB_STEP_SUMMARY"
#
# The report carries one entry per measured configuration over the same
# grids: the serial headline, the tracer-off/tracer-on pair pricing the
# tracing layer's hook points, and the mem-flat/mem-bank pair pricing the
# DRAM timing-model axis. The table shows one column each, plus each entry's
# throughput as a speedup over the serial entry (entry 0 is always serial),
# so a tracing or memory-model regression is visible as a ratio. Requires jq
# (preinstalled on ubuntu-latest runners).
set -euo pipefail

f=${1:-BENCH.json}
if [ ! -f "$f" ]; then
    echo "bench_summary: $f not found" >&2
    exit 2
fi
if ! command -v jq >/dev/null; then
    echo "bench_summary: jq not found" >&2
    exit 2
fi

jq -r '
    def r2: (. * 100 | round) / 100;
    "### Simulator macro-benchmark — \(.benchmark)",
    "",
    ("| metric | " + ([.entries[].name] | join(" | ")) + " |"),
    ("|---|" + ([.entries[] | "---:"] | join("|")) + "|"),
    ("| workers | " + ([.entries[].workers | tostring] | join(" | ")) + " |"),
    ("| host CPUs | " + ([.entries[].num_cpu | tostring] | join(" | ")) + " |"),
    ("| events/sec | " + ([.entries[].events_per_sec | round | tostring] | join(" | ")) + " |"),
    ((.entries[0].events_per_sec) as $serial |
     "| speedup vs serial | " + ([.entries[] | "\(.events_per_sec / $serial * 100 | round / 100)×"] | join(" | ")) + " |"),
    ("| best wall ms | " + ([.entries[].best_wall_ms | r2 | tostring] | join(" | ")) + " |"),
    ("| allocs per event | " + ([.entries[].allocs_per_event | (. * 1000 | round) / 1000 | tostring] | join(" | ")) + " |"),
    ("| bytes per event | " + ([.entries[].bytes_per_event | r2 | tostring] | join(" | ")) + " |"),
    ("| peak heap bytes | " + ([.entries[].peak_heap_bytes | tostring] | join(" | ")) + " |"),
    "",
    "Per rep: \(.sim_runs_per_rep) sim runs, \(.events_per_rep) events (identical across entries except mem-bank — tracing never changes the simulation). \(.reps) reps; best rep is the headline.",
    "",
    "Toolchain: \(.go_version) \(.goos)/\(.goarch), \(.num_cpu) CPU.",
    ""
' "$f"
