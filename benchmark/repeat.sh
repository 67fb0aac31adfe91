#!/usr/bin/env bash
# benchmark/repeat.sh <k> [runs-per-set] [seconds]
#
# k sets of runs of one build: each set runs every workload runs-per-set
# times (default 10), each time with another --seed (the same seeds in
# every set). Prints, as Markdown, the per-set median, quartiles and
# spread of every end-to-end metric x workload, and exits non-zero when
# two sets' medians disagree by more than the metric's bound, an operation
# failed, or a workload's sim_digest differs between sets at equal seed.
# BASELINE.md is this table from HEAD.
set -euo pipefail
sets="${1:?usage: benchmark/repeat.sh <k> [runs-per-set] [seconds]}"
runs="${2:-10}"
cd "$(dirname "$0")/.."
seconds="${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/neura_perf"
out=benchmark/out/repeat
rm -rf "$out"
for set in $(seq 1 "$sets"); do
    for workload in chip-banded chip-skewed serve-fleet model-tier; do
        for seed in $(seq 1 "$runs"); do
            dir="$out/set$set/$workload/seed$seed"
            mkdir -p "$dir"
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$dir" \
                | tee "$dir/stdout" | grep -E '^(workload|sim_digest)' >&2
        done
    done
done
python3 - "$out" "$sets" "$runs" "$seconds" <<'PY'
import json, os, platform, statistics, sys

out, sets, runs, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in bench["end_to_end"]}
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), platform.processor())
print(f"Machine: `nproc` = {os.cpu_count()}, CPU model: {cpu}. {sets} sets x {runs} seeds x {seconds} s per run, 2 worker threads.\n")
print("Spread = (Q3 - Q1) / median over a set's runs, quartiles as `statistics.quantiles(values, n=4)` gives them.\n")
bad = []
for w in (x["name"] for x in bench["workloads"]):
    print(f"### {w}\n")
    print("| metric | unit | bound | set | Q1 | median | Q3 | spread |")
    print("|---|---|---|---|---|---|---|---|")
    digests, medians = {}, {}
    for s in range(1, sets + 1):
        values = {}
        for seed in range(1, runs + 1):
            lines = open(f"{out}/set{s}/{w}/seed{seed}/stdout").read().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                bad.append(f"{w} set {s} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            digest = next(l for l in lines if l.startswith("sim_digest"))
            if digests.setdefault(seed, digest) != digest:
                bad.append(f"{w} seed {seed}: sim_digest differs between sets")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            medians.setdefault(name, []).append(med)
            b = bounds[name]
            print(f"| {name} | {b['unit']} | {b['bound']:.0%} | {s} | {q1:.6g} | {med:.6g} | {q3:.6g} | {(q3 - q1) / med:.2%} |")
    for name, meds in medians.items():
        gap = max(meds) / min(meds) - 1
        verdict = "ok" if gap <= bounds[name]["bound"] else "DISAGREE"
        print(f"| {name} | | | sets | | widest gap between set medians | | {gap:.2%} {verdict} |")
        if verdict != "ok":
            bad.append(f"{w} {name}: set medians {meds} disagree by {gap:.2%} > {bounds[name]['bound']:.0%}")
    print()
for line in bad:
    print(f"FAIL: {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
