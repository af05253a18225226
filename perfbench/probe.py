"""Outside-in instrumentation of the mcm package.

The package imports functions by name (`from .kernels import cross_gram`), so
one function can be bound in several modules.  `rebind` replaces every binding
of a function object in every loaded `mcm.*` module and returns what it
replaced, so the wrapper sees every call whichever module makes it.
`stray_bindings` then looks for references rebinding cannot reach (module
level containers, class attributes, default arguments); a traced probe
refuses to run while one exists, since calls through it would go untimed.

A `Probe` wraps the public functions in TARGETS.  It always records each
training fit's objective and support count for the correctness gate.  When
traced, it also records one span per call (name, start, end, parent, request)
in memory and the counters the per-layer metrics need, taken at the same
boundaries.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions that mark a layer boundary
TARGETS = {
    "mcm.cli": ("main",),
    "mcm.data": ("load_csv", "make_folds", "cross_validate", "grid_search", "train_ovr"),
    "mcm.formulations": ("train", "build_problem", "extract_kernel", "extract_linear"),
    "mcm.lp": ("solve", "standardize"),
    "mcm.kernels": ("gram", "cross_gram"),
    "mcm.model": ("decision_many", "predict_many", "predict_ovr_many",
                  "load_model", "save_model"),
    "mcm.capacity": ("capacity_report",),
}

# layer -> spans whose self time it sums, reported in seconds as
# `<layer>_s` (`lp.solve_s`, `kernels.s`, `cli.self_s`, ...)
SELF_TIMES = {
    "lp.solve": ("lp.solve",),
    "lp.standardize": ("lp.standardize",),
    "formulations.build": ("formulations.build_problem",),
    "formulations.extract": ("formulations.extract_kernel", "formulations.extract_linear"),
    "formulations.train": ("formulations.train",),
    "kernels": ("kernels.gram", "kernels.cross_gram"),
    "model.decision": ("model.decision_many", "model.predict_many", "model.predict_ovr_many"),
    "model.load": ("model.load_model",),
    "model.save": ("model.save_model",),
    "capacity": ("capacity.capacity_report",),
    "data.load_csv": ("data.load_csv",),
    "data.protocol": ("data.cross_validate", "data.grid_search", "data.train_ovr",
                      "data.make_folds"),
    "cli.self": ("cli.main",),
}


def metric_name(layer: str, suffix: str) -> str:
    """`lp.solve` + `s` -> `lp.solve_s`; `kernels` + `s` -> `kernels.s`."""
    return f"{layer}{'_' if '.' in layer else '.'}{suffix}"


# counters kept exactly; kernels.temp_mb_max is a maximum, the rest are sums
COUNTS = ("lp.pivots", "lp.std_cells", "lp.solves", "lp.not_optimal",
          "formulations.fits", "formulations.sv_total", "kernels.calls",
          "kernels.evals", "kernels.temp_mb_max", "model.decision_calls",
          "model.rows", "capacity.calls")


def rebind(original, replacement) -> list:
    """Point every `mcm.*` module attribute bound to `original` at
    `replacement`; returns (module, name, original) triples for `restore`."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mcm" or mod_name.startswith("mcm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def stray_bindings(originals) -> list[str]:
    """Places in loaded `mcm.*` modules, other than module attributes, that
    still hold one of `originals`: items of module level containers, class
    attributes and default arguments of module level functions."""
    wanted = {id(fn) for fn in originals}
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mcm" or mod_name.startswith("mcm.")):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict):
                held = list(value.values())
            elif isinstance(value, (list, tuple, set, frozenset)):
                held = list(value)
            elif isinstance(value, type):
                held = [getattr(v, "__func__", v) for v in vars(value).values()]
            elif callable(value):
                held = list(getattr(value, "__defaults__", None) or ())
                held += list((getattr(value, "__kwdefaults__", None) or {}).values())
            else:
                continue
            found += [f"{mod_name}.{attr}" for v in held if id(v) in wanted]
    return found


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def _rows(X) -> np.ndarray:
    return np.atleast_2d(np.asarray(X, dtype=float))


class Probe:
    """Wraps TARGETS while installed (`with probe:`).  `request` tags the
    spans of the operation in progress."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.keep_lps_of: int | None = None  # request whose LPs the reference re-solves
        self.request = 0
        self.spans: list = []            # (name, start, end, parent, request)
        self._stack: list[int] = []
        self.counts = defaultdict(lambda: defaultdict(float))  # request -> counter
        self.fits: list[tuple[float, int]] = []  # (objective, sv_count) per fit
        self.lps: list = []              # (problem, objective) of request keep_lps_of
        self._undo: list = []

    def __enter__(self):
        targets = TARGETS if self.traced else {"mcm.formulations": ("train",)}
        originals = []
        for mod_name, names in targets.items():
            module = sys.modules[mod_name]
            short = mod_name.split(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                originals.append(original)
                self._undo += rebind(original, self._wrap(f"{short}.{name}", original))
        stray = stray_bindings(originals)
        if stray:
            self.__exit__()
            raise RuntimeError(f"calls through {', '.join(stray)} would not be traced")
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        self._undo = []
        return False

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.traced:
                result = self._timed(span, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def _timed(self, span: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (span, start, end, parent, self.request)

    def _count(self, name: str, value: float) -> None:
        self.counts[self.request][name] += value

    # hooks: called with the result, then the call's own arguments; extra
    # arguments a later version of a function may take are ignored

    def _on_formulations_train(self, result, *args, **kwargs):
        sv = int(getattr(result.model, "sv_count", 0))
        self.fits.append((float(result.objective_value), sv))
        self._count("formulations.fits", 1)
        self._count("formulations.sv_total", sv)

    def _on_lp_solve(self, solution, problem, *args, **kwargs):
        self._count("lp.solves", 1)
        self._count("lp.pivots", solution.iterations)
        optimal = solution.status.value == "optimal" and not solution.limit_exceeded
        self._count("lp.not_optimal", 0 if optimal else 1)
        if optimal and self.request == self.keep_lps_of:
            self.lps.append((problem, solution.objective_value))

    def _on_lp_standardize(self, std, *args, **kwargs):
        self._count("lp.std_cells", std.problem.n_constraints * std.problem.n_vars)

    def _on_kernels_gram(self, result, *args, **kwargs):
        self._count("kernels.calls", 1)

    def _on_kernels_cross_gram(self, result, kernel, X, Y, *args, **kwargs):
        X, Y = _rows(X), _rows(Y)
        self._count("kernels.calls", 1)
        self._count("kernels.evals", X.shape[0] * Y.shape[0])
        if kernel.kind == "rbf":  # the |X| x |Y| x n difference temporary
            mb = X.shape[0] * Y.shape[0] * X.shape[1] * 8 / 2**20
            counts = self.counts[self.request]
            counts["kernels.temp_mb_max"] = max(counts["kernels.temp_mb_max"], mb)

    def _on_model_decision_many(self, result, model, X, *args, **kwargs):
        self._count("model.decision_calls", 1)
        self._count("model.rows", _rows(X).shape[0])

    def _on_capacity_capacity_report(self, result, *args, **kwargs):
        self._count("capacity.calls", 1)

    def layer_values(self, request: int) -> dict:
        """Self times by layer metric and exact counts for one request."""
        spans = {i: s for i, s in enumerate(self.spans) if s[4] == request}
        child = defaultdict(float)
        for _, start, end, parent, _ in spans.values():
            if parent >= 0:
                child[parent] += end - start
        self_by_span = defaultdict(float)
        for index, (name, start, end, _, _) in spans.items():
            self_by_span[name] += (end - start) - child[index]
        values = {metric: sum(self_by_span[n] for n in names)
                  for metric, names in SELF_TIMES.items()}
        values["span_self_total_s"] = sum(self_by_span.values())
        counts = self.counts[request]
        values.update({name: counts[name] for name in COUNTS})
        return values


def reference_max_rel_err(lps) -> tuple[float, str | None]:
    """Largest |objective - HiGHS objective| / max(1, |HiGHS objective|) over
    the kept LPs, 0 when there are none.  Returns -1 and the reason when
    scipy is not importable or the LPs are not in the form read here."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return -1.0, "scipy is not importable"
    worst = 0.0
    for problem, objective in lps:
        try:
            A = np.vstack([con.coeffs for con in problem.constraints])
            relation = np.array([con.relation for con in problem.constraints])
            rhs = np.array([con.rhs for con in problem.constraints])
            free = [kind == "free" for kind in problem.variable_bounds]
        except (AttributeError, TypeError) as exc:
            return -1.0, f"cannot read the LP ({exc})"
        upper = relation != "="
        sign = np.where(relation == ">=", -1.0, 1.0)[upper]
        res = linprog(problem.objective,
                      A_ub=(A[upper] * sign[:, None]) if upper.any() else None,
                      b_ub=(rhs[upper] * sign) if upper.any() else None,
                      A_eq=A[~upper] if (~upper).any() else None,
                      b_eq=rhs[~upper] if (~upper).any() else None,
                      bounds=[(None, None) if f else (0, None) for f in free],
                      method="highs")
        if res.status != 0:  # HiGHS disagrees on the status: count it as 100%
            worst = max(worst, 1.0)
            continue
        worst = max(worst, abs(objective - res.fun) / max(1.0, abs(res.fun)))
    return worst, None
