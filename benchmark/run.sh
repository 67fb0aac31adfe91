#!/usr/bin/env bash
# The one command of the perf ledger: offline release build, then runs.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--scale full|tiny]
#       every workload twice: timed passes (--trace 0, end-to-end metrics),
#       then the traced pass and the isolated layer drives (--trace 1,
#       per-layer metrics). Prints every metric by name with unit and
#       bound, writes benchmark/out/<workload>.json and
#       benchmark/out/trace-<workload>.json.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run (the form BENCHMARK.json's command takes); the last line of
#       standard output is the JSON result.
#
# Exits non-zero when the build fails, an operation fails its check or a
# pass's artifact digest differs from the first pass's.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/neura_perf"

if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@"
fi
status=0
for workload in chip-banded chip-skewed serve-fleet model-tier; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
