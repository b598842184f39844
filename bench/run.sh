#!/usr/bin/env bash
# Build the end-to-end benchmark offline and run it. README.md has the
# workloads, the metrics and how laps and bounds work.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, as BENCHMARK.json's command; the last
#       line of output is the result as one JSON object
#   run.sh [--seed N] [--seconds S] [--traced] [--smoke]
#       every workload in turn, timed (results in bench/out/results.json)
#       or traced with --traced (bench/out/results-traced.json and
#       bench/out/trace-<workload>.jsonl); --smoke shrinks the inputs,
#       runs both and checks the output contract against BENCHMARK.json
#   run.sh --agree [--seed N] [--seconds S]
#       two timed sets back to back; fails if any end-to-end metric of
#       any workload differs between them by more than its bound
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"

# Offline build shim: the registry is unreachable, so resolve the
# crates.io dependencies of crates/* from the hand-written stubs while
# tools/offline-harness has them. Once the repo builds without registry
# crates the directory is gone and this builds unpatched.
patches=()
for crate in serde serde_derive rand parking_lot bytes proptest serde_json rayon criterion; do
    if [ -d "$root/tools/offline-harness/$crate" ]; then
        patches+=(--config "patch.crates-io.$crate.path='$root/tools/offline-harness/$crate'")
    fi
done
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "${patches[@]}" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/remos-e2e"

workload="" seed=1 seconds=10 trace=0 smoke="" agree=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --smoke) smoke=--smoke; shift ;;
        --agree) agree=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" $smoke
fi

workloads=(fabric_steady fabric_churn fabric_cold fabric_whatif pod_snmp_mixed)
mkdir -p "$out"

# Run every workload once with tracing $1, keeping each run's output in
# out/stdout-<workload>-<trace>.txt, and write the result objects to $2
# as one JSON array.
run_set() {
    local trace="$1" results="$2" sep="["
    : > "$results"
    for w in "${workloads[@]}"; do
        local log="$out/stdout-$w-$trace.txt"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" $smoke \
            | tee "$log" | grep -v '^{'
        printf '%s{"workload": "%s", "trace": %s, "result": %s}\n' \
            "$sep" "$w" "$trace" "$(tail -n 1 "$log")" >> "$results"
        sep=","
    done
    echo "]" >> "$results"
    echo "wrote $results"
}

if [ -n "$agree" ]; then
    run_set 0 "$out/results-a.json"
    run_set 0 "$out/results-b.json"
    exec python3 "$here/check.py" agree "$root/BENCHMARK.json" "$out/results-a.json" "$out/results-b.json"
fi
if [ -n "$smoke" ]; then
    run_set 0 "$out/results.json"
    run_set 1 "$out/results-traced.json"
    exec python3 "$here/check.py" contract "$root/BENCHMARK.json" "$out" results.json results-traced.json
fi
if [ "$trace" = 1 ]; then
    run_set 1 "$out/results-traced.json"
else
    run_set 0 "$out/results.json"
fi
