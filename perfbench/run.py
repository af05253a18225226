"""Seeded benchmark of the `mcm` command line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernel_grid --seed 3 --seconds 30 --trace 0

It imports `mcm` from the checkout's `src/`, writes the workload's inputs
(made from the seed) under perfbench/.work/, and calls `mcm.cli.main(argv)`
in process with stdout captured, one command after another (a closed loop
with one client), for `--seconds` seconds.  Every command is checked against
references.json: the SHA-256 of its output, each training fit's objective
(1e-9 relative) and the total support-vector count.  A mismatch or a nonzero
exit code is a failed operation.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of a traced run, which
alternates untraced and traced commands so the tracing overhead is measured
in the same run.  `--smoke` swaps in tiny inputs for the benchmark's tests.
BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
OBJECTIVE_RTOL = 1e-9


def load_mcm() -> None:
    """Pin BLAS to one thread, then import numpy and the mcm CLI from this
    checkout's src/.  Raises ImportError when src/mcm is absent."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS could be pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import mcm.cli  # noqa: F401
    loaded = Path(sys.modules["mcm"].__file__).resolve().parent
    if loaded != src / "mcm":
        raise ImportError(f"mcm was imported from {loaded}, not from {src / 'mcm'}")


def import_seconds() -> list[float]:
    """What a fresh `mcm` process pays before its first line of work: the
    import of numpy and mcm.cli, timed in SETUP_REPEATS new interpreters."""
    code = ("import sys, time; start = time.perf_counter(); "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy, mcm.cli; "
            "print(time.perf_counter() - start)")
    return [float(subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                                 capture_output=True, text=True).stdout)
            for _ in range(SETUP_REPEATS)]


def execute(command) -> tuple[int, bytes, float]:
    """Run one `mcm` command in process: exit code, output bytes, seconds."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["mcm.cli"].main  # looked up per call: a probe may rebind it
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(command.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this operation, not the whole run
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    seconds = time.perf_counter() - start
    if command.output is None:
        data = out.getvalue().encode("utf-8")
    else:
        path = Path(command.output)
        data = path.read_bytes() if path.exists() else b""
    return code, data, seconds


def op_record(code: int, data: bytes, fits) -> dict:
    """What the gate compares: the form references.json stores."""
    return {
        "exit_code": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "objectives": [objective for objective, _ in fits],
        "sv_total": sum(sv for _, sv in fits),
    }


def gate(reference: dict | None, got: dict) -> list[str]:
    """Problems with one operation; empty when it matches its reference."""
    if reference is None:
        return ["no reference recorded for this case"]
    problems = []
    if got["exit_code"] != 0:
        problems.append(f"exit code {got['exit_code']}")
    if got["sha256"] != reference["sha256"]:
        problems.append("output bytes differ from the reference")
    want, have = reference["objectives"], got["objectives"]
    if len(want) != len(have):
        problems.append(f"{len(have)} fits, reference has {len(want)}")
    else:
        for k, (a, b) in enumerate(zip(have, want)):
            if abs(a - b) > OBJECTIVE_RTOL * abs(b):
                problems.append(f"fit {k}: objective {a!r}, reference {b!r}")
    if got["sv_total"] != reference["sv_total"]:
        problems.append(f"sv_total {got['sv_total']}, reference {reference['sv_total']}")
    return problems


def run_gated(command, probe, reference) -> tuple[dict, float, list[str]]:
    first = len(probe.fits)
    with probe:
        code, data, seconds = execute(command)
    got = op_record(code, data, probe.fits[first:])
    return got, seconds, gate(reference, got)


def environment() -> dict:
    import numpy as np

    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(read(f"{c}/level"), read(f"{c}/size"), read(f"{c}/shared_cpu_list"))
              for c in caches]
    if levels:
        level, size, shared = max(levels)
        llc = f"L{level} {size} shared by cpus {shared}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def references_for(workload: str, case: int, smoke: bool) -> dict:
    try:
        table = json.loads(REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return table.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(case), {})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="kernel_grid, linear_cv or predict_batch")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def set_up(workload, case: int, smoke: bool, workdir: Path, probe, refs: dict):
    """Write the inputs and run the set-up commands SETUP_REPEATS times.
    Returns the plan, each set-up's seconds and each operation's problems."""
    setup_refs = refs.get("setup", [])
    seconds, outcomes = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = workload.plan(workdir, case, smoke)
        for k, command in enumerate(plan.setup):
            reference = setup_refs[k] if k < len(setup_refs) else None
            _, _, problems = run_gated(command, probe, reference)
            outcomes.append((f"set-up {command.argv[0]}", problems))
        seconds.append(time.perf_counter() - start)
    return plan, seconds, outcomes


def measure(plan, seconds: float, trace: bool, plain, tracer, reference):
    """Repeat the request for `seconds`, alternating untraced and traced
    requests when `trace`.  Returns (request, traced, seconds) per request
    and each operation's problems."""
    passes, outcomes = [], []
    start = time.perf_counter()
    while True:
        request = len(passes)
        traced = trace and request % 2 == 1
        probe = tracer if traced else plain
        probe.request = request
        if traced and tracer.keep_lps_of is None:
            tracer.keep_lps_of = request
        _, elapsed, problems = run_gated(plan.request, probe, reference)
        outcomes.append((f"request {request}", problems))
        passes.append((request, traced, elapsed))
        if time.perf_counter() - start >= seconds and len(passes) >= 1 + trace:
            return passes, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_mcm()
    except ImportError as exc:
        print(f"perfbench: cannot import mcm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    from probe import Probe
    from workloads import CASES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    case = args.seed % CASES
    refs = references_for(workload.name, case, args.smoke)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plain, tracer = Probe(traced=False), Probe(traced=True)
    try:
        import_times = import_seconds()
        plan, setup_times, setup_outcomes = set_up(
            workload, case, args.smoke, workdir, plain, refs)
        passes, outcomes = measure(plan, args.seconds, args.trace == 1, plain, tracer,
                                   refs.get("request"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = setup_outcomes + outcomes
    failures = [f"{label}: {'; '.join(problems)}" for label, problems in outcomes if problems]

    plain_times = sorted(s for _, traced, s in passes if not traced)
    plain_s = statistics.median(plain_times)
    env = environment()
    print(f"# env {json.dumps(env)}")
    sizes = workload.smoke if args.smoke else workload.full
    print(f"# workload {workload.name} seed {args.seed} case {case}: {workload.recipe}, "
          f"{', '.join(f'{k} = {v}' for k, v in sizes.items())}")
    print(f"# requests {len(passes)}, {plan.work_units} {plan.unit} each")
    print(f"# untraced request seconds: n {len(plain_times)} median {plain_s:.4g} "
          f"min {plain_times[0]:.4g} max {plain_times[-1]:.4g}")
    if args.trace == 0:
        metrics = {
            "wall_s": (plain_s, "s"),
            "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s"),
        }
        print(f"# {plan.unit}_per_s {plan.work_units / plain_s:.6g} 1/s")
    else:
        metrics = layer_metrics(tracer, passes, plain_s)
        write_trace(workload.name, args.seed, case, env, tracer, passes)
    for failure in failures[:10]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    if len(failures) > 10:
        print(f"perfbench: ... and {len(failures) - 10} more", file=sys.stderr)
    print(f"# fail_frac {len(failures) / len(outcomes):.6g} "
          f"({len(failures)} of {len(outcomes)} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, passes, plain_s: float) -> dict:
    """Per-layer metrics: medians over the traced requests, the HiGHS
    reference error and the tracing overhead against untraced requests.
    A layer the workload never enters reports a self time of 0."""
    from probe import COUNTS, SELF_TIMES, metric_name, reference_max_rel_err

    traced = [(request, seconds) for request, was_traced, seconds in passes if was_traced]
    per_pass = [tracer.layer_values(request) for request, _ in traced]

    def med(values):
        return statistics.median(list(values))

    traced_s = med(seconds for _, seconds in traced)
    metrics = {"trace.request_s": (traced_s, "s")}
    for layer in SELF_TIMES:
        seconds = med(values[layer] for values in per_pass)
        share = med(values[layer] / s for values, (_, s) in zip(per_pass, traced))
        print(f"# {layer} self time {share:.4f} of the traced request")
        metrics[metric_name(layer, "s")] = (seconds, "s")
    for name in COUNTS:
        metrics[name] = (med(values[name] for values in per_pass),
                         "MiB" if name == "kernels.temp_mb_max" else "count")
    pivots = metrics["lp.pivots"][0]
    if not pivots:
        print("# lp.us_per_pivot reported as 0: no simplex pivots in this workload")
    metrics["lp.us_per_pivot"] = (1e6 * metrics["lp.solve_s"][0] / pivots if pivots else 0.0,
                                  "us")
    err, why_not = reference_max_rel_err(tracer.lps)
    if why_not is not None:
        print(f"# lp.ref_max_rel_err not measured, reported as -1: {why_not}")
    metrics["lp.ref_max_rel_err"] = (err, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    cover = med(values["span_self_total_s"] / s for values, (_, s) in zip(per_pass, traced))
    print(f"# span self times sum to {cover:.4f} of the traced request (the root span "
          "cli.main holds the rest of its time as cli.self_s, so this is close to 1 by "
          "construction); no binding of a traced function was left unwrapped")
    return metrics


def write_trace(workload, seed, case, env, tracer, passes) -> None:
    """Spans kept in memory during the run go to perfbench/.work/ at its end."""
    origin = min((span[1] for span in tracer.spans), default=0.0)
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "case": case, "environment": env,
        "passes": [{"request": r, "traced": t, "seconds": s} for r, t, s in passes],
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": [[name, start - origin, end - origin, parent, request]
                  for name, start, end, parent, request in tracer.spans],
    }) + "\n", encoding="utf-8")
    print(f"# spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
