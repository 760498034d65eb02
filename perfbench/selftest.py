"""Fast self-test of the benchmark harness (about 15 s).

    python3 perfbench/selftest.py

Runs every workload at the smallest sizes, untraced and traced, and checks
that the result line carries exactly the metrics BENCHMARK.json names, each
with its unit, and that the traced layers cover the iteration. Then corrupts
outputs in three ways (bytes changed between repeats, a wrong reference, an
iteration that raises) and checks that each is counted as failed operations.
Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
import workloads
from workloads import TINY, WORKLOADS

SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def quiet_run(name: str, trace: bool, references: dict) -> dict:
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run(name, SEED, 0, trace, TINY, references)


def check_metrics(spec: dict) -> None:
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = quiet_run(name, trace, {})
            line = json.loads(run.final_line(result, trace))
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={int(trace)}: result keys")
            expect(got == wanted, f"{name} trace={int(trace)}: {key} metrics and units "
                   f"(missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))})")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{name} trace={int(trace)}: clean run is correct")
            if trace:
                coverage = line["metrics"]["trace.coverage"]["value"]
                expect(coverage >= 0.9, f"{name}: layer self times cover {coverage:.3f} of wall_s")


def check_corruption() -> None:
    # 1. The maps' bytes change from the second measured iteration on: no
    #    reference, so the repeat comparison must flag them.
    protocol, original = WORKLOADS["protocol"], workloads.nov.write_error_map_csv
    measured = {"n": 0}

    def counting_iteration(st, tr):
        measured["n"] += 1
        return protocol.iteration(st, tr)

    def corrupting(emap, path):
        original(emap, path)
        if measured["n"] >= 2:
            with open(path, "a", encoding="utf-8") as f:
                f.write("#")

    WORKLOADS["protocol"] = dataclasses.replace(protocol, iteration=counting_iteration)
    workloads.nov.write_error_map_csv = corrupting
    try:
        result = quiet_run("protocol", False, {})
    finally:
        WORKLOADS["protocol"], workloads.nov.write_error_map_csv = protocol, original
    expect(not result["correct"] and result["failed"] == result["attempted"] - protocol.n_ops,
           f"changed bytes between repeats counted: {result['failed']}/{result['attempted']} failed")

    # 2. A reference that the output does not match.
    clean = quiet_run("protocol", False, {})
    wrong = dict(clean["fingerprints"])
    first = sorted(wrong)[0]
    wrong[first] = "0" * 64
    refs = {"protocol": {str(SEED): {"fingerprints": wrong, "counts": clean["counts"]}}}
    result = quiet_run("protocol", False, refs)
    expect(not result["correct"] and result["failed"] == result["attempted"] // protocol.n_ops,
           f"reference mismatch counted: {result['failed']}/{result['attempted']} failed")

    # 3. An iteration that raises fails all of its operations (sweep: its
    #    set-up does not search, so only the timed iterations raise).
    def raising(*args, **kwargs):
        raise RuntimeError("injected failure")

    original_run, workloads.gs.run = workloads.gs.run, raising
    try:
        result = quiet_run("sweep", False, {})
    finally:
        workloads.gs.run = original_run
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"exception counted: {result['failed']}/{result['attempted']} failed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_corruption()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
