#!/usr/bin/env bash
# The benchmark's one command.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the result object is the last line of standard output
#       (this is what BENCHMARK.json's "command" invokes)
#   run.sh [--all] [--seed N] [--seconds S]
#       every workload, untraced then traced, each in its own process
#       (6 s each unless told otherwise: the fourteen runs end within two
#       minutes); prints `workload metric value unit` lines and writes
#       out/BENCH_<short-commit>.json
#   run.sh --calibrate [--write]
#       10 seeds per workload; prints medians, quartiles, spreads and the
#       bounds they imply; --write puts the bounds into BENCHMARK.json
#   run.sh --agree
#       two independent sets of 10 seeds per workload (plus one traced run
#       each); fails if the sets disagree by more than the bounds or a
#       count that must repeat exactly does not
#   run.sh --test
#       the harness's own tests
#
# Exit status is non-zero when a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
out="$here/out"

# Share the root target/ unless told otherwise: the path dependencies are
# the same packages, so a built workspace means no cold rebuild here.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
export CARGO_TARGET_DIR
bin="$CARGO_TARGET_DIR/release/psbench"

# Symbols ROADMAP retires: the benchmark must keep working when they go.
forbidden='ServeConfig *\{[^}]*funnel|\.funnel|use_btree_ranking|BTreeRank|with_btree_host|ExprDispatcher::(scalar|power_of_d|argmin_tree)|serve::telemetry|pr2_baseline'
if grep -rnE "$forbidden" "$here/src" >&2; then
    echo "run.sh: the benchmark references a symbol ROADMAP retires (see README.md)" >&2
    exit 3
fi

build() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
}

# Pin to the first min(nproc, 2) CPUs when the box lets us.
pin=()
cpus=$(( $(nproc) < 2 ? $(nproc) : 2 ))
if command -v taskset >/dev/null 2>&1 && taskset -c "0-$((cpus - 1))" true 2>/dev/null; then
    pin=(taskset -c "0-$((cpus - 1))")
fi

run_one() { ${pin[@]+"${pin[@]}"} "$bin" "$@"; }

workloads() { "$bin" workloads; }

mode="all"
seed=42
seconds=""
write=""
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) mode="one"; passthrough+=("$1" "$2"); shift 2 ;;
        --trace) passthrough+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --all) mode="all"; shift ;;
        --calibrate) mode="calibrate"; shift ;;
        --agree) mode="agree"; shift ;;
        --test) mode="test"; shift ;;
        --write) write="yes"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
timing=(--seed "$seed")
[ -n "$seconds" ] && timing+=(--seconds "$seconds")

# ten untraced runs per workload into $1, seeds 1..10
ten_seeds() {
    mkdir -p "$1"
    for w in $(workloads); do
        for s in 1 2 3 4 5 6 7 8 9 10; do
            t=(--seed "$s"); [ -n "$seconds" ] && t+=(--seconds "$seconds")
            run_one --workload "$w" "${t[@]}" --trace 0 --result "$1/$w-$s.json" | tail -n 1 >/dev/null
            echo "  $w seed $s" >&2
        done
    done
}

case "$mode" in
    one)
        build
        run_one "${passthrough[@]}" "${timing[@]}" --out "$out"
        ;;
    test)
        cargo test --offline --manifest-path "$here/Cargo.toml"
        ;;
    all)
        build
        [ -n "$seconds" ] || { seconds=6; timing+=(--seconds 6); }
        runs="$out/runs"
        rm -rf "$runs"; mkdir -p "$runs"
        status=0
        for w in $(workloads); do
            for trace in 0 1; do
                # the metric lines are for the reader; the result object of
                # each run is kept in its --result file
                run_one --workload "$w" "${timing[@]}" --trace "$trace" --out "$out" \
                    --result "$runs/$w-$trace.json" >"$runs/$w-$trace.txt" || status=1
                grep -v '^{' "$runs/$w-$trace.txt" || true
            done
        done
        commit="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo nogit)"
        "$bin" ledger --out "$out/BENCH_$commit.json" \
            --stamp "commit=$commit" --stamp "seed=$seed" --stamp "nproc=$(nproc)" \
            --stamp "rustc=$(rustc -V)" --stamp "run_seconds=$seconds" \
            "$runs"/*.json
        exit "$status"
        ;;
    calibrate)
        build
        rm -rf "$out/calibrate"
        ten_seeds "$out/calibrate"
        "$bin" calibrate ${write:+--write "$repo/BENCHMARK.json"} "$out/calibrate"/*.json
        ;;
    agree)
        build
        for set in a b; do
            rm -rf "$out/agree-$set"
            ten_seeds "$out/agree-$set"
            for w in $(workloads); do
                t=(--seed 1); [ -n "$seconds" ] && t+=(--seconds "$seconds")
                run_one --workload "$w" "${t[@]}" --trace 1 --result "$out/agree-$set/$w-traced.json" \
                    | tail -n 1 >/dev/null
            done
        done
        "$bin" agree "$out/agree-a" "$out/agree-b"
        ;;
esac
