#!/usr/bin/env bash
# scripts/perf-pair.sh PARENT CHANGE WORKLOAD|all [PAIRS] [--json PATH]   (`just perf-pair`)
#
# benchmark/README.md § "Comparing two commits", mechanised: unpacks the
# two commits with `git archive`, builds each once into its own
# CARGO_TARGET_DIR with the *parent's* benchmark/ on both sides (a change
# that claims a gain may not edit the benchmark), then runs PAIRS (default
# 10) pairs of --trace 0 runs of WORKLOAD, alternating which side goes
# first, each pair with another --seed, both sides of a pair with the same
# seed, at the run_seconds of BENCHMARK.json, and finishes with five
# rounds of one --trace 1 run per side at the last seed, again alternating
# which side goes first. `all` does that for every workload of
# BENCHMARK.json in its order, on the one pair of builds.
#
# Prints, as Markdown, per workload and end-to-end metric: each side's
# Q1 / median / Q3, the change's median against the parent's, the parent's
# interquartile range, the pairs the change won and a verdict — `gain`
# when the change won at least 90 % of all pairs (9 of 10; a tie is not a
# win) and its median moved the better way by more than the parent's IQR,
# `regression` when its median is worse than the parent's by more than the
# metric's BENCHMARK.json bound, `unresolved` otherwise. Then, from the
# traced runs, each side's median and min–max of every per-layer row of
# BENCHMARK.json that is non-zero on the parent, whose medians differ by
# more than 10 % and whose two ranges do not overlap — five runs a side,
# so a pointer to where the saving appeared, not a measurement of it: the
# heading says how many rows were examined, and two ranges of five runs
# fail to overlap by chance for about 1 row in 126 (2 of the C(10, 5) =
# 252 ways to split ten exchangeable runs; three a side made it 1 in 10).
# Each run also records what it cost the kernel's accounting: the child's
# user CPU, system CPU and minor page faults, as getrusage(RUSAGE_CHILDREN)
# deltas. A table prints each side's medians over its --trace 0 runs per
# workload, with the system share of the CPU, so a kernel claim shows its
# system time and faults beside its wall time.
# Exits non-zero when a pair's sim_digest differs between the sides or an
# operation failed.
#
# With --json PATH it also writes those tables to PATH as a
# neura_lab.artifact/v1 document (the BENCH_*.json ledger at the repo
# root): one record per workload and end-to-end metric (each side's
# Q1 / median / Q3, the change against the parent, the parent's IQR, the
# pairs won, and the verdict as a param), one per printed per-layer row (each side's median, min and
# max over its five traced runs, the change's median against the
# parent's), one per workload for sim_digest agreement, one per workload
# with each side's rusage medians (below), and one naming
# both commits, the command and the host (CPU model, nproc, kernel
# release).
set -euo pipefail
usage() {
    echo "usage: scripts/perf-pair.sh PARENT CHANGE WORKLOAD|all [PAIRS] [--json PATH]" >&2
    exit 2
}
command="scripts/perf-pair.sh $*"
args=() json=""
while [[ $# -gt 0 ]]; do
    if [[ "$1" == --json ]]; then
        [[ $# -ge 2 ]] || usage
        json="$2"
        [[ "$json" == /* ]] || json="$PWD/$json"
        shift 2
    else
        args+=("$1")
        shift
    fi
done
if [[ ${#args[@]} -lt 3 || ${#args[@]} -gt 4 ]]; then
    usage
fi
parent="${args[0]}" change="${args[1]}" workloads="${args[2]}" pairs="${args[3]:-10}"
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
commits="$(git rev-parse --verify "$parent^{commit}") $(git rev-parse --verify "$change^{commit}")"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [[ "$workloads" == all ]]; then
    workloads="$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi
work="$(mktemp -d "${TMPDIR:-/tmp}/perf-pair.XXXXXX")"
trap 'rm -rf "$work"' EXIT

for side in parent change; do
    mkdir "$work/$side"
    git archive "${!side}" | tar -x -C "$work/$side"
done
rm -rf "$work/change/benchmark"
cp -r "$work/parent/benchmark" "$work/change/benchmark"
for side in parent change; do
    echo "building $side ($(git rev-parse --short "${!side}"))" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

traced_runs=5
# Runs `DIR COMMAND...` with the command's stdout in DIR/stdout, and writes
# what the command cost the kernel's accounting, as getrusage(RUSAGE_CHILDREN)
# deltas around it, to DIR/rusage: user and system CPU seconds and minor
# page faults.
rusage='
import json, resource, subprocess, sys
before = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1] + "/stdout", "w") as stdout:
    subprocess.run(sys.argv[2:], stdout=stdout)
after = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1] + "/rusage", "w") as out:
    json.dump({"user_s": after.ru_utime - before.ru_utime, "sys_s": after.ru_stime - before.ru_stime,
               "minflt": after.ru_minflt - before.ru_minflt}, out)
'
run_side() { # workload side seed [trace round]
    local trace="${4:-0}"
    local dir="$work/out/$1/$2/seed$3-trace$trace${5:+-round$5}"
    mkdir -p "$dir"
    (cd "$work/$2" && python3 -c "$rusage" "$dir" "$work/target-$2/release/neura_perf" \
        --workload "$1" --seed "$3" --seconds "$seconds" --trace "$trace" --out "$dir") || true
}
for workload in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        if ((seed % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run_side "$workload" "$side" "$seed"
        done
        echo "$workload: pair $seed of $pairs ($order)" >&2
    done
    for round in $(seq 1 "$traced_runs"); do
        if ((round % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run_side "$workload" "$side" "$pairs" 1 "$round"
        done
        echo "$workload: traced round $round of $traced_runs at seed $pairs ($order)" >&2
    done
done

python3 - "$work/out" "$pairs" "$seconds" "$json" "$commits" "$command" "$traced_runs" $workloads <<'PY'
import json, math, os, platform, statistics, sys

out, pairs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
json_path, commits, command = sys.argv[4], sys.argv[5].split(), sys.argv[6]
traced_runs, workloads = int(sys.argv[7]), sys.argv[8:]
bench = json.load(open("BENCHMARK.json"))
bad = []
records = []  # the --json ledger, in neura_lab.artifact/v1 record form

def record(rid, params, metrics):
    records.append({"id": f"perf-pair/{rid}", "params": params,
                    "metrics": [{"name": n, "value": v, "unit": u} for n, v, u in metrics]})

def read_run(workload, side, seed, trace, round=None):
    """The metric values of one run; failures are appended to `bad`."""
    run = f"{workload} {side} seed {seed} --trace {trace}" + (f" round {round}" if round else "")
    suffix = f"-round{round}" if round else ""
    lines = open(f"{out}/{workload}/{side}/seed{seed}-trace{trace}{suffix}/stdout").read().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"FAIL: {run} printed no result")
    if not result["correct"] or result["failed"]:
        bad.append(f"{run}: {result['failed']} of {result['attempted']} operations failed")
    digest = next((l for l in lines if l.startswith("sim_digest")), None)
    return {name: m["value"] for name, m in result["metrics"].items()}, digest

def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3

print(f"{pairs} alternating pairs x {seconds} s per workload, seeds 1..{pairs}.\n")
def verdict(metric, pm, cm, iqr, won):
    """`gain`, `regression` or `unresolved` for one end-to-end row."""
    better = (pm - cm if metric["better"] == "lower" else cm - pm) / pm
    if better < -metric["bound"]:
        return "regression"
    if 10 * won >= 9 * pairs and better > iqr:
        return "gain"
    return "unresolved"

print("| workload | metric | unit | parent Q1 / median / Q3 | change Q1 / median / Q3 "
      "| change vs parent | parent IQR | pairs won | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for workload in workloads:
    runs = {"parent": [], "change": []}
    agreeing = 0
    for seed in range(1, pairs + 1):
        digests = {}
        for side in runs:
            metrics, digests[side] = read_run(workload, side, seed, 0)
            if digests[side] is None:
                sys.exit(f"FAIL: {workload} {side} seed {seed} printed no sim_digest")
            runs[side].append(metrics)
        if digests["parent"] != digests["change"]:
            bad.append(f"{workload} seed {seed}: sim_digest differs "
                       f"({digests['parent']} vs {digests['change']})")
        else:
            agreeing += 1
    record(f"{workload}/sim_digest", {"workload": workload},
           [("pairs_agreeing", agreeing, "count"), ("pairs", pairs, "count")])
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        p, c = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        iqr = (p3 - p1) / pm
        call = verdict(metric, pm, cm, iqr, won)
        print(f"| {workload} | {name} | {metric['unit']} | {p1:.6g} / {pm:.6g} / {p3:.6g} "
              f"| {c1:.6g} / {cm:.6g} / {c3:.6g} "
              f"| {cm / pm - 1:+.1%} | {iqr:.1%} | {won} of {pairs - ties} | {call} |")
        unit = metric["unit"]
        record(f"{workload}/{name}",
               {"workload": workload, "metric": name, "better": metric["better"], "verdict": call},
               [("parent_q1", p1, unit), ("parent_median", pm, unit), ("parent_q3", p3, unit),
                ("change_q1", c1, unit), ("change_median", cm, unit), ("change_q3", c3, unit),
                ("change_vs_parent", cm / pm - 1, "ratio"), ("parent_iqr", iqr, "ratio"),
                ("pairs_won", won, "count"), ("pairs_decided", pairs - ties, "count")])

print("\nWhat each --trace 0 run cost the kernel's accounting, per side: medians over its "
      f"{pairs} runs of the child's user CPU, system CPU, system share and minor faults "
      "(getrusage(RUSAGE_CHILDREN) deltas; a run repeats passes for its whole "
      f"{seconds} s, so these are per run, not per pass).\n")
print("| workload | side | user s | system s | system share | minor faults |")
print("|---|---|---|---|---|---|")
for workload in workloads:
    metrics = []
    for side in ("parent", "change"):
        costs = [json.load(open(f"{out}/{workload}/{side}/seed{seed}-trace0/rusage"))
                 for seed in range(1, pairs + 1)]
        user, system, faults, share = (statistics.median(v) for v in (
            [c["user_s"] for c in costs], [c["sys_s"] for c in costs],
            [c["minflt"] for c in costs],
            [c["sys_s"] / ((c["user_s"] + c["sys_s"]) or 1) for c in costs]))
        print(f"| {workload} | {side} | {user:.2f} | {system:.2f} | {share:.1%} | {faults:.0f} |")
        metrics += [(f"{side}_user_s_median", user, "s"), (f"{side}_sys_s_median", system, "s"),
                    (f"{side}_sys_share_median", share, "ratio"),
                    (f"{side}_minflt_median", faults, "count")]
    record(f"{workload}/rusage", {"workload": workload}, metrics + [("runs", pairs, "count")])

rows, examined = [], 0
for workload in workloads:
    traced = {side: [read_run(workload, side, pairs, 1, r)[0] for r in range(1, traced_runs + 1)]
              for side in ("parent", "change")}
    for metric in bench["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        p, c = ([run.get(name) for run in traced[side]] for side in ("parent", "change"))
        if None in p or None in c:
            continue
        (pm, plo, phi), (cm, clo, chi) = ((statistics.median(v), min(v), max(v)) for v in (p, c))
        if not pm:
            continue
        examined += 1
        moved = abs(cm / pm - 1) > 0.10 and (chi < plo or clo > phi)
        if not moved:
            continue
        rows.append(f"| {workload} | {name} | {unit} | {metric['better']} "
                    f"| {pm:.6g} ({plo:.6g}–{phi:.6g}) | {cm:.6g} ({clo:.6g}–{chi:.6g}) "
                    f"| {cm / pm - 1:+.1%} |")
        record(f"{workload}/layer/{name}",
               {"workload": workload, "metric": name, "better": metric["better"], "seed": str(pairs)},
               [("parent_median", pm, unit), ("parent_min", plo, unit), ("parent_max", phi, unit),
                ("change_median", cm, unit), ("change_min", clo, unit), ("change_max", chi, unit),
                ("change_vs_parent", cm / pm - 1, "ratio"), ("runs", traced_runs, "count")])
# Under no change, all 2n traced runs are exchangeable, and one side's n
# land wholly below or wholly above the other's in 2 of the C(2n, n) ways
# to split the ranks into two halves.
chance = 2 / math.comb(2 * traced_runs, traced_runs)
print(f"\nEvery non-zero per-layer row whose medians differ by more than 10 % "
      f"and whose min–max ranges do not overlap ({traced_runs} alternating `--trace 1` "
      f"runs per side and workload, seed {pairs}). {examined} rows were examined; with "
      f"{traced_runs} runs a side, two ranges fail to overlap by chance for about 1 row in "
      f"{1 / chance:.0f}, so up to about {examined * chance:.0f} rows may print with nothing "
      f"changed.\n")
print("| workload | metric | unit | better | parent median (min–max) | change median (min–max) "
      "| change vs parent |")
print("|---|---|---|---|---|---|---|")
print(*rows, sep="\n")
for line in bad:
    print(f"FAIL: {line}", file=sys.stderr)
if json_path:
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), "unknown")
    record("run", {"parent": commits[0], "change": commits[1], "command": command,
                   "cpu_model": cpu, "nproc": str(len(os.sched_getaffinity(0))),
                   "kernel": platform.release(), "failures": "; ".join(bad) or "none"},
           [("pairs", pairs, "count"), ("run_seconds", float(seconds), "s")])
    records.insert(0, records.pop())
    with open(json_path, "w") as f:
        json.dump({"schema": "neura_lab.artifact/v1", "bin": "perf-pair", "scale_mult": 1,
                   "records": records}, f, indent=2)
        f.write("\n")
    print(f"wrote {json_path}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
