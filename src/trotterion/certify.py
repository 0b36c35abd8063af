"""Certification of product formulas.

Error scans against an exact target, log-log order fits, the smallest
repetition count reaching a requested accuracy, and the exact leading
terms of log(f(x)), read from the formula's word series.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import formula, matcore
from .errors import BudgetExceededError, DegenerateScanError, InvalidInputError
from .formula import GeneratorPair, ProductFormula, as_count, as_real, merged_steps

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

    Every row needs a finite x > 0 and a finite error >= 0 (`as_real`);
    rows with error exactly 0 carry no log-log signal and are dropped. A
    window (LO, HI) keeps the rows with LO <= x <= HI; an infinite end
    leaves that side open. Returns (None, None) when fewer than two
    distinct x remain to fit.
    """
    bad_rows = "fit rows need finite x > 0 and finite error >= 0"
    try:
        pairs = [(x, e) for x, e in rows]
        lo, hi = (-math.inf, math.inf) if window is None else window
    except (TypeError, ValueError):  # not iterable, or not pairs
        raise InvalidInputError("fit rows and the fit window must be pairs of numbers") from None
    rows = [(as_real(x, "fit x", positive=True, message=bad_rows),
             as_real(e, "fit error", message=bad_rows)) for x, e in pairs]
    if any(e < 0.0 for _, e in rows):
        raise InvalidInputError(bad_rows)
    # an infinite end leaves that side open, and a NaN fails LO < HI
    lo, hi = (as_real(v, "fit window", limit=math.inf, message="fit window needs LO < HI")
              for v in (lo, hi))
    if not lo < hi:
        raise InvalidInputError("fit window needs LO < HI")
    selected = [(x, e) for x, e in rows if lo <= x <= hi and e > 0.0]
    if len({x for x, _ in selected}) < 2:
        return None, None
    logx = np.log([x for x, _ in selected])
    loge = np.log([e for _, e in selected])
    slope, intercept = np.polyfit(logx, loge, 1)
    return float(slope), float(intercept)


def _grid(values, rule: Callable, what: str) -> list:
    """Each of values, a sequence, through rule(value, what): `as_real` or
    `as_count`."""
    try:
        items = list(values)
    except TypeError:
        raise InvalidInputError(f"{what}s must come as a sequence, got {values!r}") from None
    return [rule(v, what) for v in items]


def _check_grid(grid: list) -> None:
    """Refuse a scan grid that is empty, not positive or not strictly
    increasing: the one check made before any target or step is built."""
    if not grid or any(not x > 0 for x in grid):
        raise InvalidInputError("scan grid must contain positive values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("scan grid must be strictly increasing")


def _targets(gens: GeneratorPair, xs: Sequence[float], R: float | None = None) -> np.ndarray:
    """The (k, d, d) stack of exp(x^2 [A,B]) over the k values x of xs, or
    of exp(x (A + B) + R x^2 [A,B]) when R is given, from one expm call."""
    x = np.asarray(xs, dtype=float)[:, None, None]
    comm = matcore.commutator(gens.a, gens.b)
    with np.errstate(over="ignore", invalid="ignore"):  # expm refuses inf and NaN
        exponent = (x * x) * comm if R is None else x * (gens.a + gens.b) + (R * x * x) * comm
        return matcore.expm(exponent)


def _scan(grid: list, errors: list, window: tuple[float, float] | None,
          target: str, floor: float = 0.0) -> ScanResult:
    """Rows (x, error) over a checked grid, errors in grid order, and their
    log-log fit over `window`, by default the whole grid, leaving out rows
    with error <= floor. DegenerateScanError is raised when that floor
    leaves fewer than two rows to fit where there were two."""
    if window is None and len(grid) > 1:
        window = (float(grid[0]), float(grid[-1]))
    rows = tuple(zip(map(float, grid), errors))
    # a negative or non-finite error stays in, for fit_loglog to refuse
    slope, intercept = fit_loglog([(x, e) for x, e in rows if not 0.0 <= e <= floor], window)
    if slope is None and floor > 0.0 and fit_loglog(rows, window)[0] is not None:
        raise DegenerateScanError("scan errors sit at the rounding floor; no order signal")
    return ScanResult(rows=rows, fit_window=window, slope=slope,
                      intercept=intercept, target=target)


def error_scan(f: ProductFormula, gens: GeneratorPair,
               xs: Sequence[float] | None = None,
               target: str = "commutator", R: float | None = None,
               window: tuple[float, float] | None = None) -> ScanResult:
    """Spectral-norm error ||f(x) - T(x)||_2 over a grid of x.

    T is exp(x^2 [A,B]) for target "commutator", and exp(x (A + B) +
    R x^2 [A,B]) for "sum-commutator", which needs a finite R; the
    commutator target has no weight and refuses one. The grid
    must be strictly increasing and positive. The points run in chunks
    that fit formula.EVALUATION_BYTES: a chunk takes its targets in one
    exponential call, one evaluation per point and its errors in one
    norm call. The log-log fit runs over `window` when given, otherwise
    over every row. A row with error <= len(f) * eps, the rounding of the
    evaluation, stays in the rows but out of the fit; DegenerateScanError
    is raised when that leaves fewer than two rows to fit.
    """
    if target == "commutator":
        if R is not None:
            raise InvalidInputError("the commutator target takes no weight R")
        name = target
    elif target == "sum-commutator":
        if R is None:
            raise InvalidInputError("sum-commutator target needs a commutator weight R")
        R = as_real(R, "commutator weight R")
        name = f"sum-commutator[R={R:.12g}]"
    else:
        raise InvalidInputError(f"unknown scan target {target!r}")
    grid = list(DEFAULT_XS) if xs is None else _grid(xs, as_real, "scan grid point")
    _check_grid(grid)
    # a point holds up to about 16 d x d complex slots at once, over its
    # product, its target's exponential and the SVD of their difference
    chunk = formula._items_per_cap(16 * 16 * gens.dim**2)
    errors = []
    for start in range(0, len(grid), chunk):
        part = grid[start:start + chunk]
        diff = _targets(gens, part, R)
        for k, x in enumerate(part):
            np.subtract(f.evaluate(gens, x), diff[k], out=diff[k])
        errors += matcore.spectral_norm(diff).tolist()
    return _scan(grid, errors, window, name, len(f) * np.finfo(float).eps)


def step_count_scan(step: Callable[[float], ProductFormula], gens: GeneratorPair,
                    alpha: float, beta: float, ns: Sequence[int] | None = None) -> ScanResult:
    """Error of the n-fold product of one step against exp(alpha (A + B + C)
    + beta [A, B]), C left out when gens has none, over step counts n.

    One step is step(R) at argument alpha/n with R = (beta/alpha)(n/alpha),
    divided one factor of alpha at a time, so that a step scale whose
    square underflows gives an overflowing weight, refused like one that
    underflows to zero itself. R grows linearly with n, which limits the
    composite to 1/n convergence. The step counts ns, DEFAULT_STEP_GRID
    when None, are read as counts (`as_count`) and refused unless positive,
    strictly increasing and within the float range, before the target or
    any step is built; then alpha and beta are read as real numbers
    (`as_real`). The errors come from one `power_errors` pass; a
    power that overflows is refused as bad input, at the first such n. The
    fit runs over the whole grid. An n-step product accumulates about n
    roundings, so DegenerateScanError is raised if every error is below
    n * NOISE_FLOOR: the slope would then be rounding.
    """
    grid = _grid(DEFAULT_STEP_GRID if ns is None else ns, as_count, "step count")
    if any(n > sys.float_info.max for n in grid):
        raise InvalidInputError("step counts must lie within the float range")
    _check_grid(grid)
    alpha, beta = as_real(alpha, "step scale alpha"), as_real(beta, "commutator scale beta")
    total = gens.a + gens.b if gens.c is None else gens.a + gens.b + gens.c
    target = matcore.expm(alpha * total + beta * matcore.commutator(gens.a, gens.b))
    steps = []
    for n in grid:
        weight = (beta / alpha) * (n / alpha) if alpha != 0.0 else math.inf
        if not math.isfinite(weight):
            raise InvalidInputError("per-step commutator weight overflows; "
                                    "the step scale is too small")
        steps.append(step(weight))
    errors, refused = power_errors(gens, steps, [alpha / n for n in grid], grid, target)
    for exc in filter(None, refused):
        raise exc
    result = _scan(grid, errors, None, "custom")
    if all(err < n * NOISE_FLOOR for n, err in result.rows):
        raise DegenerateScanError("scan errors sit at the noise floor; no order signal")
    return result


def _matrix_powers(a: np.ndarray, ns: list) -> np.ndarray:
    """a[i]^ns[i] for each matrix of a stack, ns[i] >= 1, by the products
    np.linalg.matrix_power makes for that power alone: (a a) a for 3, and
    otherwise the squares a^(2^j) multiplied into the result from the
    lowest set bit of the power up. Rows run in increasing power, so the
    rows that still need a^(2^j) are a tail of the stack, squared in one
    stacked product per j."""
    order = sorted(range(len(ns)), key=ns.__getitem__)
    ns = [ns[i] for i in order]
    z = a[order]
    out = z.copy()  # the powers whose lowest set bit is 2^0 start at a
    for j in range(1, ns[-1].bit_length()):
        start = bisect.bisect_left(ns, 1 << j)
        z[start:] = z[start:] @ z[start:]
        tail = [i for i in range(start, len(ns)) if ns[i] >> j & 1]
        first = [i for i in tail if not ns[i] % (1 << j)]
        three = [i for i in tail if ns[i] == 3]  # (a a) a, where the bits give a (a a)
        more = [i for i in tail if ns[i] % (1 << j) and ns[i] != 3]
        if first:
            out[first] = z[first]
        if three:
            out[three] = z[three] @ out[three]
        if more:
            out[more] = out[more] @ z[more]
    result = np.empty_like(out)
    result[order] = out
    return result


def power_errors(gens: GeneratorPair, steps: Sequence[ProductFormula], xs: Sequence[float],
                 powers: Sequence[int], target: np.ndarray) -> tuple[list, list]:
    """||f(x)^n - target||_2 for each row (f, x, n), n >= 1, inf on a
    refused row, and for each row None or, where its step f(x) or its power
    is not finite, the InvalidInputError that row alone raises, for the
    caller to raise if it needs the row. Each run of rows whose steps share
    their tags goes in chunks, on the step layout of its first step: one
    `formula._products`, one `_matrix_powers` and one norm call each. A
    row holds up to 16 d x d slots for its power and norm, as a scan point
    does, or 3 a step for its factors, all in one product block, so that
    its product is the one its own evaluation makes.
    """
    errors, refused = [math.inf] * len(steps), [None] * len(steps)
    for tags, run in itertools.groupby(range(len(steps)), lambda i: steps[i]._by_tag[0]):
        rows = list(run)
        size = formula._items_per_cap(16 * gens.dim**2 * max(16, 3 * len(tags)))
        for first in range(0, len(rows), size):
            part = rows[first:first + size]
            coeffs = np.concatenate([steps[i]._by_tag[1] for i in part])
            x = np.array([xs[i] for i in part])
            product, finite = formula._products(gens, steps[rows[0]], coeffs, x)
            with np.errstate(all="ignore"):  # a power that overflows reads inf or NaN
                diff = _matrix_powers(product, [powers[i] for i in part]) - target
            power_ok = np.isfinite(diff).all(axis=(1, 2))
            norms = iter(matcore.spectral_norm(diff[power_ok]).tolist())
            for k, i in enumerate(part):
                if not finite[k]:
                    refused[i] = InvalidInputError("product of exponentials overflows")
                elif not power_ok[k]:
                    refused[i] = InvalidInputError("matrix contains non-finite entries")
                else:
                    errors[i] = next(norms)
    return errors, refused


def _doubling_search(passes: Callable[[int], bool], cap: int) -> int | None:
    """The first passing r as the accuracy search finds it: doubling
    r = 1, 2, 4, ... <= cap up to a passing r, then bisection between it
    and the rung before. None when no rung passes."""
    r = 1
    while not passes(r):
        r *= 2
        if r > cap:
            return None
    lo, hi = max(1, r // 2), r
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _crossing_guess(known: dict, eps: float, cap: int) -> float:
    """Where the error meets eps on the log-log line through two known
    errors: the last failing r before the first passing one and that one,
    or the last two r while none passes; 4 with fewer than two, and twice
    the last r where the error does not fall."""
    rows = sorted((r, e) for r, e in known.items() if 0.0 < e < math.inf)
    passing = [i for i, (_, e) in enumerate(rows) if e <= eps]
    pair = rows[max(0, passing[0] - 1):passing[0] + 1] if passing else rows[-2:]
    if len(pair) < 2:
        return 4.0
    (a, e_a), (b, e_b) = pair
    slope = (math.log(e_b) - math.log(e_a)) / (math.log(b) - math.log(a))
    if not slope < 0.0:
        return 2.0 * b
    reach = math.log(b) + (math.log(eps) - math.log(e_b)) / slope
    return math.exp(min(reach, math.log(max(cap, 1)) + 1.0))


def gates_to_accuracy(f: ProductFormula, gens: GeneratorPair, x: float,
                      eps: float, cap: int = 10**6) -> tuple[int, int]:
    """Smallest repetition count r with the repeated formula within eps.

    The error of r sqrt-scaled copies against exp(x^2 [A,B]) is that of
    the r-th power of one copy. r is found by doubling r up to a passing
    count, then bisection between it and the count before
    (`_doubling_search`), run in rounds from r = 1 over the known errors.
    A round answers each r it lacks as if the errors lay on the log-log
    line through the known errors nearest eps (`_crossing_guess`) and
    takes those r in one `power_errors` pass; a round that lacks none
    gives r. So it probes the r, and meets the errors and the refusals,
    of the search one r at a time, even where rounding makes the error
    non-monotone near eps. A known r that a round reads lies on the
    search's own path (past a wrong guess the two part into disjoint
    ranges), so a refused r raises where that search would raise it.
    x and eps are real numbers (`as_real`), eps positive, and cap a count.
    Returns (r, gate count of the simplified repeated formula).
    """
    eps = as_real(eps, "accuracy eps", positive=True)
    x = as_real(x, "argument x")
    cap = as_count(cap, "repetition cap")
    target = _targets(gens, [x])[0]
    known: dict[int, float] = {}
    refused: dict[int, InvalidInputError | None] = {}
    while True:
        guess = _crossing_guess(known, eps, cap)
        guessed: dict[int, bool] = {}

        def passes(r: int) -> bool:
            if r not in known:
                return guessed.setdefault(r, r >= guess)
            if refused[r]:
                raise refused[r]
            return known[r] <= eps

        r = _doubling_search(passes, cap)
        if not guessed:
            break
        errors, failures = power_errors(gens, [f] * len(guessed),
                                        [x / math.sqrt(m) for m in guessed], list(guessed), target)
        known.update(zip(guessed, errors))
        refused.update(zip(guessed, failures))
    if r is None:
        raise BudgetExceededError(f"no repetition count up to {cap} reaches eps={eps}")
    return r, _repeat_gate_count(f, r)


def _repeat_gate_count(f: ProductFormula, r: int) -> int:
    """Gate count of repeat(f, r) without materializing the long formula.

    Simplification merges only across copy junctions, and a junction
    cascade cancels only while one copy's tail inverts the next copy's
    head. A simplified word is never its own inverse, so no cascade spans
    a copy and each of the r - 1 junctions drops the same number of gates.
    """
    scale = 1.0 / math.sqrt(r)
    copy = merged_steps([(tag, coeff * scale) for tag, coeff in f.steps])
    drop = 2 * len(copy) - len(merged_steps(copy * 2))
    return r * len(copy) - (r - 1) * drop


@dataclass(frozen=True)
class BCHCoefficients:
    """Leading matrix coefficients of log(f(x)) = M1 x + M2 x^2 + M3 x^3 + ..."""

    order1: np.ndarray
    order2: np.ndarray
    order3: np.ndarray


def extract_bch(f: ProductFormula, gens: GeneratorPair) -> BCHCoefficients:
    """M1, M2, M3 of log(f(x)), exactly, from the formula's word series.

    With P_k the sum of coeff(w) * G_w over the words w of length k
    (`formula.word_layers`), f(x) = I + P1 x + P2 x^2 + P3 x^3 + O(x^4),
    and the x, x^2 and x^3 terms of log(I + X) = X - X^2/2 + X^3/3 - ...
    give M1 = P1, M2 = P2 - P1^2/2 and M3 = P3 - (P1 P2 + P2 P1)/2 + P1^3/3.
    No exponential or logarithm is taken, so any generators serve: not
    anti-Hermitian, of large norm, or a C generator for C-tagged steps.
    A P_k or M_k that overflows is refused, as `evaluate` refuses a product.
    """
    letters, layers = formula.word_layers(f, 3)
    d = gens.dim
    mats = np.array([gens.matrix(tag) for tag in letters], dtype=complex).reshape(-1, d, d)
    stack, p = np.eye(d, dtype=complex)[None], []  # G_w over a layer's words; P_k
    with np.errstate(all="ignore"):
        for coeff in layers[1:]:
            stack = (stack[:, None] @ mats).reshape(-1, d, d)
            p.append((np.array(coeff)[:, None, None] * stack).sum(axis=0))
        p1, p2, p3 = p
        m = (p1, p2 - p1 @ p1 / 2.0, p3 - (p1 @ p2 + p2 @ p1) / 2.0 + p1 @ p1 @ p1 / 3.0)
    # M_k is P_k less products of the lower P, so a non-finite P_k shows
    # in M_k or in a lower M
    if not all(np.isfinite(mk).all() for mk in m):
        raise InvalidInputError("BCH word products overflow")
    return BCHCoefficients(*m)
