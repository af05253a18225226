"""Smoke tests of the benchmark on tiny inputs: every metric BENCHMARK.json
names is emitted, the correctness gate passes and catches a mismatch, exact
counts repeat, the tracer refuses a binding it cannot wrap, and the benchmark
refuses to run without the package.  No timing thresholds.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from probe import COUNTS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 5, root: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted_and_gate_passes(workload):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_layers_and_counts_repeat(workload):
    first, second = (result_of(bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_lists_the_workloads_defined_here():
    from workloads import WORKLOADS

    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_gate_flags_every_kind_of_mismatch():
    reference = {"sha256": "ab", "objectives": [1.5, 2.0], "sv_total": 7}
    assert run.gate(reference, {"exit_code": 0, **reference}) == []
    assert run.gate(None, {"exit_code": 0, **reference})
    for change in ({"exit_code": 3}, {"sha256": "cd"}, {"sv_total": 8},
                   {"objectives": [1.5]}, {"objectives": [1.5, 2.0 * (1 + 1e-8)]}):
        assert run.gate(reference, {"exit_code": 0, **reference, **change}), change


def test_a_crashing_command_is_a_failed_operation():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; run.load_mcm(); "
            "import mcm.cli; from workloads import Command; "
            "mcm.cli.main = lambda argv: 1 / 0; print(run.execute(Command(('cv',)))[0])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "-1"
    assert "ZeroDivisionError" in proc.stderr


def test_tracer_refuses_a_binding_it_cannot_wrap():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; run.load_mcm(); "
            "import mcm.data, mcm.lp; from probe import Probe; solve = mcm.lp.solve; "
            "mcm.data.SOLVERS = {'simplex': solve}\n"
            "try:\n    Probe(traced=True).__enter__()\n"
            "except RuntimeError as exc:\n    print(exc)\n"
            "print(mcm.lp.solve is solve)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.splitlines() == [
        "calls through mcm.data.SOLVERS would not be traced", "True"], proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("linear_cv", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
