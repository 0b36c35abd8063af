"""Empirical certification of product formulas.

Error scans against an exact target, log-log order fits, the smallest
repetition count reaching a requested accuracy, and a finite-stencil
extraction of the leading terms of log(f(x)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import matcore
from .errors import (BudgetExceededError, DegenerateScanError, DomainError,
                     InvalidInputError)
from .formula import GeneratorPair, ProductFormula, concat

NOISE_FLOOR = 1e-14
DEFAULT_XS = tuple(np.logspace(-2.0, -1.0, 20).tolist())
DEFAULT_STEP_GRID = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class ScanResult:
    """Rows of (x, error) plus the log-log fit over a window."""

    rows: tuple[tuple[float, float], ...]
    fit_window: tuple[float, float] | None
    slope: float | None
    intercept: float | None
    target: str


def fit_loglog(rows: Sequence[tuple[float, float]],
               window: tuple[float, float] | None) -> tuple[float | None, float | None]:
    """Least-squares slope and intercept of log(err) vs log(x) in a window.

    Every row needs a finite x > 0 and a finite error >= 0; rows with
    error exactly 0 carry no log-log signal and are dropped. Returns
    (None, None) when fewer than two distinct x remain to fit.
    """
    if not all(0.0 < x < math.inf and 0.0 <= e < math.inf for x, e in rows):
        raise InvalidInputError("fit rows need finite x > 0 and finite error >= 0")
    if window is None:
        selected = list(rows)
    else:
        lo, hi = window
        if not lo < hi:
            raise InvalidInputError("fit window needs LO < HI")
        selected = [(x, e) for x, e in rows if lo <= x <= hi]
    selected = [(x, e) for x, e in selected if e > 0.0]
    if len({x for x, _ in selected}) < 2:
        return None, None
    logx = np.log([x for x, _ in selected])
    loge = np.log([e for _, e in selected])
    slope, intercept = np.polyfit(logx, loge, 1)
    return float(slope), float(intercept)


def commutator_target(gens: GeneratorPair) -> Callable[[float], np.ndarray]:
    comm = matcore.commutator(gens.a, gens.b)
    return lambda x: matcore.expm((x * x) * comm)


def sum_commutator_target(gens: GeneratorPair, R: float) -> Callable[[float], np.ndarray]:
    comm = matcore.commutator(gens.a, gens.b)
    base = gens.a + gens.b
    return lambda x: matcore.expm(x * base + (R * x * x) * comm)


def _resolve_target(gens: GeneratorPair, target, R: float | None):
    if callable(target):
        return target, "custom"
    if target == "commutator":
        return commutator_target(gens), "commutator"
    if target == "sum-commutator":
        if R is None:
            raise InvalidInputError("sum-commutator target needs a commutator weight R")
        return sum_commutator_target(gens, R), f"sum-commutator[R={R:.12g}]"
    raise InvalidInputError(f"unknown scan target {target!r}")


def _scan(grid: list, error_of: Callable, window: tuple[float, float] | None,
          target: str) -> ScanResult:
    """Rows (x, error_of(x)) over a grid, evaluated in grid order, and their fit.

    The grid must be strictly increasing and positive. The log-log fit
    runs over `window` when given, otherwise over the whole grid.
    """
    if not grid or any(not x > 0 for x in grid):
        raise InvalidInputError("scan grid must contain positive values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("scan grid must be strictly increasing")
    if window is None and len(grid) > 1:
        window = (float(grid[0]), float(grid[-1]))
    rows = tuple((float(x), error_of(x)) for x in grid)
    slope, intercept = fit_loglog(rows, window)
    return ScanResult(rows=rows, fit_window=window, slope=slope,
                      intercept=intercept, target=target)


def error_scan(f: ProductFormula, gens: GeneratorPair,
               xs: Sequence[float] | None = None,
               target="commutator", R: float | None = None,
               window: tuple[float, float] | None = None) -> ScanResult:
    """Spectral-norm error ||f(x) - T(x)||_2 over a grid of x.

    The grid must be strictly increasing and positive. The log-log fit
    runs over `window` when given, otherwise over every row.
    """
    grid = list(DEFAULT_XS) if xs is None else [float(x) for x in xs]
    target_fn, target_name = _resolve_target(gens, target, R)

    def one_point(x: float) -> float:
        return matcore.spectral_norm(f.evaluate(gens, x) - target_fn(x))

    return _scan(grid, one_point, window, target_name)


def step_count_scan(error_of: Callable[[int], float],
                    ns: Sequence[int] | None = None) -> ScanResult:
    """Error of an n-step product over a grid of step counts.

    error_of(n) is the error of the n-step run; the grid defaults to
    DEFAULT_STEP_GRID and the log-log fit of error against n runs over
    all of it. An n-step product accumulates about n roundings, so
    DegenerateScanError is raised if every error is below n * NOISE_FLOOR:
    the slope would then be rounding.
    """
    grid = [int(n) for n in (DEFAULT_STEP_GRID if ns is None else ns)]
    if any(n > sys.float_info.max for n in grid):
        raise InvalidInputError("step counts must lie within the float range")
    result = _scan(grid, error_of, None, "custom")
    if all(err < n * NOISE_FLOOR for n, err in result.rows):
        raise DegenerateScanError("scan errors sit at the noise floor; no order signal")
    return result


def gates_to_accuracy(f: ProductFormula, gens: GeneratorPair, x: float,
                      eps: float, cap: int = 10**6) -> tuple[int, int]:
    """Smallest repetition count r with the repeated formula within eps.

    The error of r sqrt-scaled copies against exp(x^2 [A,B]) is probed by
    doubling r until it passes, then binary search for the first passing
    r. Returns (r, gate count of the simplified repeated formula).
    """
    if not eps > 0.0:
        raise InvalidInputError("accuracy eps must be positive")
    target = commutator_target(gens)(x)

    def err(r: int) -> float:
        # the r copies are identical matrices, so the repeated product is
        # a matrix power; this keeps large-r probes cheap
        step = f.evaluate(gens, x / math.sqrt(r))
        return matcore.spectral_norm(np.linalg.matrix_power(step, r) - target)

    r = 1
    while err(r) > eps:
        r *= 2
        if r > cap:
            raise BudgetExceededError(f"no repetition count up to {cap} reaches eps={eps}")
    lo, hi = max(1, r // 2), r
    while lo < hi:
        mid = (lo + hi) // 2
        if err(mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo, _repeat_gate_count(f, lo)


def _repeat_gate_count(f: ProductFormula, r: int) -> int:
    """Gate count of repeat(f, r) without materializing the long formula.

    Simplification merges only across copy junctions, and a junction
    cascade cancels only while one copy's tail inverts the next copy's
    head. A simplified word is never its own inverse, so no cascade spans
    a copy and each of the r - 1 junctions drops the same number of gates.
    """
    copy = f.scale_argument(1.0 / math.sqrt(r)).simplify()
    drop = 2 * len(copy) - concat([copy, copy]).gate_count()
    return r * len(copy) - (r - 1) * drop


@dataclass(frozen=True)
class BCHCoefficients:
    """Leading matrix coefficients of log(f(x)) = M1 x + M2 x^2 + M3 x^3 + ..."""

    order1: np.ndarray
    order2: np.ndarray
    order3: np.ndarray


def _stencil_logs(f: ProductFormula, gens: GeneratorPair, h: float) -> list[np.ndarray]:
    nodes = [h, 2.0 * h, 3.0 * h]
    logs = []
    for x in nodes:
        logs.append(matcore.logm_near_identity(f.evaluate(gens, x)))
        logs.append(matcore.logm_near_identity(f.evaluate(gens, -x)))
    return logs


def extract_bch(f: ProductFormula, gens: GeneratorPair,
                step: float = 1e-2) -> BCHCoefficients:
    """Extract M1, M2, M3 of log(f(x)) from a symmetric stencil.

    Evaluates log(f(x)) at +-(1, 2, 3) * step, splits into odd and even
    parts, and solves the scaled Vandermonde systems for the x, x^3, x^5
    and x^2, x^4, x^6 coefficients; aliasing of the first truncated term
    enters at O(step^4) relative. If the largest stencil point leaves the
    principal-log domain the stencil shrinks tenfold, once.
    """
    if step <= 0.0:
        raise InvalidInputError("stencil step must be positive")
    try:
        logs = _stencil_logs(f, gens, step)
    except DomainError:
        step /= 10.0
        logs = _stencil_logs(f, gens, step)
    dim = gens.dim
    odd = [(logs[2 * i] - logs[2 * i + 1]) / 2.0 for i in range(3)]
    even = [(logs[2 * i] + logs[2 * i + 1]) / 2.0 for i in range(3)]
    # Work in t = x / step so the 3x3 solves stay well conditioned.
    t = np.array([1.0, 2.0, 3.0])
    vand_odd = np.stack([t, t**3, t**5], axis=1)
    vand_even = np.stack([t**2, t**4, t**6], axis=1)
    rhs_odd = np.stack([m.reshape(-1) for m in odd])
    rhs_even = np.stack([m.reshape(-1) for m in even])
    sol_odd = np.linalg.solve(vand_odd, rhs_odd)
    sol_even = np.linalg.solve(vand_even, rhs_even)
    m1 = sol_odd[0].reshape(dim, dim) / step
    m3 = sol_odd[1].reshape(dim, dim) / step**3
    m2 = sol_even[0].reshape(dim, dim) / step**2
    return BCHCoefficients(order1=m1, order2=m2, order3=m3)
