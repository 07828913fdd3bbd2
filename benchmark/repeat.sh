#!/usr/bin/env bash
# Repeatability: two sets of passes of the same code, then the
# per-(metric, workload) report of both medians. Per workload, each set gets
# three untraced and three traced passes, and the sets take turns pass by
# pass: this box drifts by 20-30 % within half an hour, and taking turns
# puts both sets through the same weather (~14 min in all).
#
# Exits non-zero when a pass exits non-zero or prints no result, when a pair
# of medians is further apart than the metric's bound, when a metric that
# must repeat exactly does not, when tracing costs more than 5 %, or when any
# operation failed. Both sets and the machine fingerprint are recorded in
# benchmark/RESULTS.json.
#
#   benchmark/repeat.sh [--seed N]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=1
[ "${1:-}" = "--seed" ] && seed="$2"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out
: >benchmark/out/set-a.jsonl
: >benchmark/out/set-b.jsonl
status=0
for workload in codec scan lookup ingest; do
    for trace in 0 0 0 1 1 1; do
        for set in a b; do
            if ! result=$(benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) || [ -z "$result" ]; then
                echo "repeat.sh: a pass of $workload (trace $trace, set $set) exited non-zero or printed no result" >&2
                status=1
            fi
            [ -n "$result" ] && echo "{\"workload\":\"$workload\",\"trace\":$trace,\"seed\":$seed,\"result\":$result}" >>"benchmark/out/set-$set.jsonl"
        done
    done
done
rm -rf benchmark/out/tmp-*
"${CARGO_TARGET_DIR:-benchmark/target}/release/stack_bench" compare \
    benchmark/out/set-a.jsonl benchmark/out/set-b.jsonl --record benchmark/RESULTS.json || status=1
exit $status
