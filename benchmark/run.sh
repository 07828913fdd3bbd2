#!/usr/bin/env bash
# stack_bench: build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one pass of one workload; the last line of stdout is its result JSON
#       (this is the command BENCHMARK.json names).
#   benchmark/run.sh [--seed N]
#       the full set: every workload untraced, then traced, each pass in its
#       own process; results go to benchmark/out/set-latest.jsonl.
#
# Everything is read and written inside the checkout. The build output goes
# to $CARGO_TARGET_DIR when that is set, else to benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/stack_bench"

case " $* " in *" --workload "*) exec "$bin" "$@" ;; esac

seed=1
case "$#:${1:-}" in
0:) ;;
2:--seed) seed="$2" ;;
*) echo "usage: benchmark/run.sh [--seed N] | --workload W --seed N --seconds S --trace 0|1" >&2; exit 2 ;;
esac
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out
out=benchmark/out/set-latest.jsonl
: >"$out"
status=0
for workload in codec scan lookup ingest; do
    for trace in 0 1; do
        result=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) || status=1
        [ -n "$result" ] && echo "{\"workload\":\"$workload\",\"trace\":$trace,\"seed\":$seed,\"result\":$result}" >>"$out"
    done
done
# A pass that dies leaves its scratch directory behind; a finished set none.
rm -rf benchmark/out/tmp-*
echo "results: $out" >&2
exit $status
