"""Record the correctness references the benchmark gates on.

Run from the root of a checkout, at the commit whose outputs are the
reference (the references in this directory come from the commit that added
the benchmark):

    python3 perfbench/record.py

For every size set, workload and case it writes the workload's inputs, runs
the set-up commands and one request once, and stores the SHA-256 of each
command's output, every training fit's objective and the total
support-vector count.  references.json is written anew at the end, so all of
it comes from one commit.  A speed-up must not change any of it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def record_case(workload, case: int, smoke: bool, probe) -> dict:
    workdir = run.WORK / f"record-{workload.name}-{case}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workload.plan(workdir, case, smoke)
        ops = {"setup": [], "request": None}
        for command in plan.setup + [plan.request]:
            got, _, _ = run.run_gated(command, probe, None)
            if got.pop("exit_code") != 0:
                raise SystemExit(f"{workload.name} case {case}: {command.argv[0]} failed")
            if command is plan.request:
                ops["request"] = got
            else:
                ops["setup"].append(got)
        return ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    run.load_mcm()
    from probe import Probe
    from workloads import CASES, WORKLOADS

    table = {}
    probe = Probe(traced=False)
    for size in ("full", "smoke"):
        for name, workload in WORKLOADS.items():
            for case in range(CASES):
                ops = record_case(workload, case, size == "smoke", probe)
                table.setdefault(size, {}).setdefault(name, {})[str(case)] = ops
                print(f"{size} {name} case {case}: sv_total "
                      f"{ops['request']['sv_total']}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0

if __name__ == "__main__":
    sys.exit(main())
