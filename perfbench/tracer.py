"""Spans around the package's public functions, recorded from outside.

The tracer wraps functions after import and rebinds every name each one
is bound under in the loaded `trotterion` modules, because several
modules import by name (`apps.*` take `expm` that way and `solver` takes
`reparam`). Nothing inside the package is edited.

A span's self time is its duration minus the time its child spans cover.
Spans opened on a thread with no open span of its own (the `error_scan`
pool threads) keep their thread but take as parent the innermost open
span of the thread that installed the tracer, which is blocked in
`error_scan` while they run; such children may overlap, so the time they
cover is the union of their intervals.

Spans are folded into per-name totals as they close, so memory stays
flat over the million `reparam` calls of one ramp pass.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute path) of every traced function.
TRACED = (
    ("matcore.expm", "trotterion.matcore", "expm"),
    ("matcore.spectral_norm", "trotterion.matcore", "spectral_norm"),
    ("matcore.logm_near_identity", "trotterion.matcore", "logm_near_identity"),
    ("matcore.eigh", "trotterion.matcore", "eigh"),
    ("formula.evaluate", "trotterion.formula", "ProductFormula.evaluate"),
    ("certify.error_scan", "trotterion.certify", "error_scan"),
    ("certify.gates_to_accuracy", "trotterion.certify", "gates_to_accuracy"),
    ("certify.extract_bch", "trotterion.certify", "extract_bch"),
    ("solver.solve_p_of_r", "trotterion.solver", "solve_p_of_r"),
    ("solver.solve_sqrt4", "trotterion.solver", "solve_sqrt4"),
    ("bases.reparam", "trotterion.bases", "reparam"),
    ("recursion.apply_scheme", "trotterion.recursion", "apply_scheme"),
    ("apps.cd.cd_run", "trotterion.apps.cd", "cd_run"),
    ("apps.chain.chain_simulate", "trotterion.apps.chain", "chain_simulate"),
    ("apps.km.km_simulate", "trotterion.apps.km", "km_simulate"),
    ("cli.main", "trotterion.cli", "main"),
)

# Metrics derived from the spans, with their units. The ratios and child
# counts come from parent-child edges: expm spans directly under evaluate,
# reparam calls under a solve, evaluate calls under a scan or an accuracy
# search.
DERIVED_UNITS = {
    "formula.evaluate.factors": "count",
    "formula.evaluate.expm_per_factor": "ratio",
    "certify.error_scan.points": "count",
    "certify.gates_to_accuracy.probes": "count",
    "solver.solve_p_of_r.residuals_per_call": "count/call",
    "trace.overhead_s": "s",
}


class _Frame:
    __slots__ = ("name", "start", "covered", "foreign")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.covered = 0.0      # summed durations of same-thread children
        self.foreign = []       # (start, end) of children from other threads


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class Tracer:
    """Per-name call counts and self time of the functions in TRACED."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()     # (child, parent) -> calls
        self.factors = 0
        self._stacks: dict[int, list[_Frame]] = {}
        self._home = threading.get_ident()
        self._undo: list = []

    def _stack(self) -> list[_Frame]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        count_factors = name == "formula.evaluate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, same_thread = stack[-1], True
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and threading.get_ident() != self._home else None
                same_thread = False
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                covered = frame.covered + _union_length(frame.foreign)
                self.calls[name] += 1
                self.self_s[name] += duration - covered
                if count_factors:
                    self.factors += len(args[0].steps)
                if parent is not None:
                    self.edges[(name, parent.name)] += 1
                    if same_thread:
                        parent.covered += duration
                    else:
                        parent.foreign.append((frame.start, end))

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind all names it is bound under."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "trotterion" or key.startswith("trotterion."))]
        for name, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._rebind(owner, attr, original, wrapped)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every per-layer metric but trace.overhead_s."""
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        solves = self.calls["solver.solve_p_of_r"]
        expm_in_evaluate = self.edges[("matcore.expm", "formula.evaluate")]
        out["formula.evaluate.factors"] = self.factors / passes
        out["formula.evaluate.expm_per_factor"] = expm_in_evaluate / self.factors if self.factors else 0.0
        out["certify.error_scan.points"] = self.edges[("formula.evaluate", "certify.error_scan")] / passes
        out["certify.gates_to_accuracy.probes"] = (
            self.edges[("formula.evaluate", "certify.gates_to_accuracy")] / passes)
        out["solver.solve_p_of_r.residuals_per_call"] = (
            self.edges[("bases.reparam", "solver.solve_p_of_r")] / solves if solves else 0.0)
        return out


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    return {**units, **DERIVED_UNITS}
