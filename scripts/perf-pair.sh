#!/usr/bin/env bash
# scripts/perf-pair.sh PARENT CHANGE WORKLOAD [PAIRS]     (`just perf-pair`)
#
# benchmark/README.md § "Comparing two commits", mechanised: checks the
# two commits out as `git worktree`s, builds each once into its own
# CARGO_TARGET_DIR with the *parent's* benchmark/ on both sides (a change
# that claims a gain may not edit the benchmark), then runs PAIRS (default
# 10) pairs of --trace 0 runs of WORKLOAD, alternating which side goes
# first, each pair with another --seed, both sides of a pair with the same
# seed, at the run_seconds of BENCHMARK.json.
#
# Prints, as Markdown, per end-to-end metric: each side's Q1 / median / Q3,
# the change's median against the parent's, the parent's interquartile
# range, and the pairs the change won. Exits non-zero when a pair's
# sim_digest differs between the sides or an operation failed.
set -euo pipefail
if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: scripts/perf-pair.sh PARENT CHANGE WORKLOAD [PAIRS]" >&2
    exit 2
fi
parent="$1" change="$2" workload="$3" pairs="${4:-10}"
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
work="$(mktemp -d "${TMPDIR:-/tmp}/perf-pair.XXXXXX")"
cleanup() {
    for side in parent change; do
        git worktree remove --force "$work/$side" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/parent" "$parent"
git worktree add --quiet --detach "$work/change" "$change"
rm -rf "$work/change/benchmark"
cp -r "$work/parent/benchmark" "$work/change/benchmark"
for side in parent change; do
    echo "building $side ($(git -C "$work/$side" rev-parse --short HEAD))" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

run_side() { # side seed
    local dir="$work/out/$1/seed$2"
    mkdir -p "$dir"
    (cd "$work/$1" && "$work/target-$1/release/neura_perf" --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace 0 --out "$dir") >"$dir/stdout" || true
}
for seed in $(seq 1 "$pairs"); do
    if ((seed % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run_side "$side" "$seed"
    done
    echo "pair $seed of $pairs ($order)" >&2
done

python3 - "$work/out" "$workload" "$pairs" "$seconds" <<'PY'
import json, statistics, sys

out, workload, pairs, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
bench = json.load(open("BENCHMARK.json"))
runs, bad = {"parent": [], "change": []}, []
for seed in range(1, pairs + 1):
    digests = {}
    for side in runs:
        lines = open(f"{out}/{side}/seed{seed}/stdout").read().splitlines()
        try:
            result = json.loads(lines[-1])
            digests[side] = next(l for l in lines if l.startswith("sim_digest"))
        except (IndexError, ValueError, StopIteration):
            sys.exit(f"FAIL: {side} seed {seed} printed no result")
        if not result["correct"] or result["failed"]:
            bad.append(f"{side} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        runs[side].append({name: m["value"] for name, m in result["metrics"].items()})
    if digests["parent"] != digests["change"]:
        bad.append(f"seed {seed}: sim_digest differs ({digests['parent']} vs {digests['change']})")

def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3

print(f"`{workload}`: {pairs} alternating pairs x {seconds} s, seeds 1..{pairs}.\n")
print("| metric | unit | parent Q1 / median / Q3 | change Q1 / median / Q3 | change vs parent | parent IQR | pairs won |")
print("|---|---|---|---|---|---|---|")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p, c = ([run[name] for run in runs[side]] for side in ("parent", "change"))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    print(f"| {name} | {metric['unit']} | {p1:.6g} / {pm:.6g} / {p3:.6g} | {c1:.6g} / {cm:.6g} / {c3:.6g} "
          f"| {cm / pm - 1:+.1%} | {(p3 - p1) / pm:.1%} | {won} of {pairs - ties} |")
for line in bad:
    print(f"FAIL: {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
