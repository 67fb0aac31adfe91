#!/usr/bin/env python3
"""scripts/check-ledgers.py                         (`just perf-selftest`, CI)

Checks every committed perf ledger, each `BENCH_*.json` at the repo root
that `scripts/perf-pair.sh --json` wrote. A ledger fails when it is not
well-formed JSON, when a `perf-pair/<workload>/sim_digest` record has
`pairs_agreeing` other than `pairs` (the two commits simulated different
bytes), or when its `perf-pair/run` record's `failures` is not `none` (an
operation failed its check). Prints one line per failure and exits 1 if
any ledger failed, 0 otherwise.
"""

import glob
import json
import os
import sys


def problems(path):
    """The failures of one ledger, as printable strings."""
    try:
        with open(path, encoding="utf-8") as f:
            ledger = json.load(f)
    except ValueError as error:
        return [f"not well-formed JSON: {error}"]
    found = []
    for record in ledger.get("records", []):
        rid = record.get("id", "")
        metrics = {m["name"]: m["value"] for m in record.get("metrics", [])}
        if rid.startswith("perf-pair/") and rid.endswith("/sim_digest"):
            agreeing, pairs = metrics.get("pairs_agreeing"), metrics.get("pairs")
            if agreeing is None or agreeing != pairs:
                found.append(f"{rid}: {agreeing} of {pairs} pairs agree")
        if rid == "perf-pair/run":
            failures = record.get("params", {}).get("failures")
            if failures != "none":
                found.append(f"{rid}: failures {failures!r}")
    return found


def main():
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    status = 0
    for path in sorted(glob.glob("BENCH_*.json")):
        for problem in problems(path):
            print(f"{path}: {problem}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
