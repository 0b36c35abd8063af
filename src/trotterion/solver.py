"""Numeric coefficient solvers.

Two jobs live here: the one bracketed scalar root that powers the 4-copy
order-raising scheme, and the exact 6-gate sum-plus-commutator
coefficients at a given commutator weight R, from two quadratics over a
fixed set of gauges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bases import SixGateParams, reparam
from .errors import DomainError, InvalidInputError, SolverError
from .formula import _items_per_cap

SQRT4_RESIDUAL_TOL = 1e-12
# The root's scale q = 4^-((n+1)/2) is 2^-1022, the smallest normal double, at
# n = 1021; past it q goes subnormal and loses digits, and it is 0 from n = 1075.
SQRT4_MAX_ORDER = 1021
P_OF_R_TOL = 1e-10
# Largest |R| the exact solve takes, and largest rounding floor a residual may
# stand on. The coefficients grow like sqrt(R), so the rounding eps*max|p|^3 of
# the cubic residuals r and s grows like R^1.5: under 1e-3 up to R = 1e8, and
# past their 1/6 target near R = 1e10, where a "root" has no correct digit.
P_OF_R_MAX_WEIGHT = 1e8
P_OF_R_MAX_FLOOR = 1e-3
# Gauges p6 = t * sqrt(R + 1/2) of the exact solve: 240 values of t evenly
# spaced on [-3, 3]. On 165 weights in (-1/2, 1e8] each solve found a root,
# at most 8e-4 larger than the former Newton root (3.41 against 5.02 at
# R = 10); 25 or 50 gauges did worse at R = 0.66.
P_OF_R_GAUGES = np.linspace(-3.0, 3.0, 240)
# Pairs (gauge, p1 root) of a weight that the exact solve finishes first: those
# of the smallest max(|p1|, |p6|). On 1 600 weights log-spaced in R + 1/2 over
# (-1/2, 1e8], with 96 (or 80) only weights below R = -0.29 went on to finish
# every pair; with 64 so did 3 near R = 0.35 and each one from R = 1.75e4 up.
P_OF_R_FIRST = 96
# Float arrays the exact solve holds at once a pair and a candidate finished.
# By tracemalloc on 200 weights, 120 or 240 gauges and 1 to every pair finished:
# 5.2 a pair while building them, then 4 a pair and 21.4 to 22.9 a candidate.
PAIR_ARRAYS = 6
CANDIDATE_ARRAYS = 23


@dataclass(frozen=True)
class Sqrt4Solution:
    """Arguments (a, b, c, d) of the 4-copy scheme at source order n.

    The four coefficients satisfy
        a^(n+1) - b^(n+1) + c^(n+1) - d^(n+1) = 0
        a^(n+2) - b^(n+2) + c^(n+2) - d^(n+2) = 0
    with a = 1, b = 2 pinned, and signed_sum = a^2 - b^2 + c^2 - d^2
    nonzero so the composite still carries a commutator term.
    """

    n: int
    a: float
    b: float
    c: float
    d: float
    signed_sum: float


def solve_sqrt4(n: int) -> Sqrt4Solution:
    """Solve the 4-copy conditions for odd source order 3 <= n <= SQRT4_MAX_ORDER.

    With k = (n+1)/2, q = 4^-k, u = c/2 and t = -d, the two conditions
    read u^(2k) = 1 - A(t) and u^(2k+1) = 1 - B(t), where
    A = (1 - t^(2k)) q and B = (1 + t^(2k+1)) q/2. Eliminating u leaves
        g(t) = ((2k+1) log1p(-A) - 2k log1p(-B)) / q = 0,
    whose two terms both rise in t, from g(0) ~ -(k+1) to g(1) ~ 2k, so
    g has exactly one root on (0, 1). Bisection runs until the bracket is
    two adjacent doubles; then c = 2 exp(log1p(-A)/(2k)) and d = -t. No
    digit of d is lost to c's nearness to 2, as in the raw powers.
    """
    if n < 3 or n % 2 == 0 or n > SQRT4_MAX_ORDER:
        raise InvalidInputError(
            f"the 4-copy solve needs an odd source order 3 <= n <= {SQRT4_MAX_ORDER}")
    k = (n + 1) // 2
    q = 0.25 ** k
    log_even = lambda t: math.log1p((t ** (2 * k) - 1.0) * q)  # 2k log u
    log_odd = lambda t: math.log1p(-(1.0 + t ** (2 * k + 1)) * q / 2)  # (2k+1) log u
    g = lambda t: ((2 * k + 1) * log_even(t) - 2 * k * log_odd(t)) / q
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    if not abs(g(hi)) <= SQRT4_RESIDUAL_TOL * (k + 1):
        raise SolverError(f"4-copy root left residual {g(hi):.3e}")
    c = 2.0 * math.exp(log_even(hi) / (2 * k))
    d = -hi
    if d >= 0.0:
        raise SolverError("4-copy solve collapsed onto the trivial branch")
    signed_sum = 1.0 - 4.0 + c * c - d * d
    if abs(signed_sum) <= 1e-6:
        raise SolverError("4-copy signed square sum vanished; no commutator weight")
    return Sqrt4Solution(n=n, a=1.0, b=2.0, c=c, d=d, signed_sum=signed_sum)


@dataclass(frozen=True)
class PofRResult:
    """Exact 6-gate coefficients at one weight R and their five residuals."""

    params: SixGateParams
    residuals: tuple[float, float, float, float, float]

    @property
    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals)


def _converged(p, res, largest=None) -> np.ndarray:
    """Whether each candidate's residuals res = (l, m, q, r, s) are within
    P_OF_R_TOL or the rounding of their terms, eps * max|p|^degree for the
    degrees 1, 1, 2, 3, 3 in p, which for r and s passes P_OF_R_TOL near
    R = 1e4. P_OF_R_MAX_FLOOR keeps huge coefficients from passing.

    p = (p1, ..., p6) and res hold one array (or scalar) per coefficient
    and per residual; `largest` is max|p| when the caller has it already.
    """
    if largest is None:
        largest = functools.reduce(np.maximum, (np.abs(col) for col in p))
    eps_p = np.finfo(float).eps * largest
    floor1, floor2, floor3 = (np.clip(f, P_OF_R_TOL, P_OF_R_MAX_FLOOR)
                              for f in (eps_p, eps_p * largest, eps_p * largest * largest))
    l, m, q, r, s = (np.abs(v) for v in res)
    return (l <= floor1) & (m <= floor1) & (q <= floor2) & (r <= floor3) & (s <= floor3)


def _quadratic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
    """Both roots of a x^2 + b x + c = 0 on a new last axis, without cancellation.
    A complex pair gives NaN; a = 0 gives the linear root c/w and a non-finite one."""
    w = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return np.stack([w / a, c / w], axis=-1)


def _p_of_r_residuals(p, R) -> tuple:
    """The five residuals l, m, q, r, s of candidates p = (p1, ..., p6)."""
    rp = reparam(SixGateParams(*p))
    return (rp.l - 1.0, rp.m - 1.0, rp.q + R - 0.5, rp.r - 1.0 / 6.0, rp.s - 1.0 / 6.0)


def bytes_per_weight(finished: int | None = None) -> int:
    """Bytes the exact solve holds at once for each weight whose candidates it
    builds from `finished` pairs: by default those of its first pass."""
    pairs = 2 * P_OF_R_GAUGES.size
    finished = min(P_OF_R_FIRST, pairs) if finished is None else finished
    return 8 * (PAIR_ARRAYS * pairs + CANDIDATE_ARRAYS * 2 * finished)


def _pairs(weights: np.ndarray) -> tuple:
    """p1 and p6 of each weight of a 1-D array at each (gauge, p1 root) pair
    of P_OF_R_GAUGES: two (len(weights), 2 * gauges) arrays, gauge-major."""
    n = weights.size
    R = weights[:, None]
    # Python's scalar powers, not R * R * R, so a weight's coefficients
    # keep every bit of the one-weight formula
    R2, R3 = (np.array([r ** e for r in weights.tolist()]).reshape(n, 1) for e in (2, 3))
    p6 = P_OF_R_GAUGES * np.sqrt(R + 0.5)
    p6_2 = p6 * p6
    p1 = _quadratic_roots(
        (72 * R - 36) * p6_2 - (72 * R - 48) * p6 - 12,
        (48 - 72 * R) * p6_2 + (72 * R2 - 72 * R - 30) * p6 + 72 * R2 + 24 * R + 6,
        -12 * p6_2 + (72 * R2 + 24 * R + 6) * p6 - 72 * R3 - 36 * R2 - 6 * R - 1)
    return p1.reshape(n, 2 * P_OF_R_GAUGES.size), np.repeat(p6, 2, axis=1)


def _finish(R, p1, p6) -> tuple:
    """The candidates p = (p1, ..., p6) of pairs p1, p6 at weights R, arrays
    that broadcast: each pair's two p2 roots on a new last axis."""
    Q = 0.5 - R
    k = (1.0 / 6.0 - p1 * Q) / (1.0 / 6.0 - p6 * Q)
    p2 = _quadratic_roots(-k, 1.0 - p1 + (1.0 - p6) * k, -Q)
    p1, p6 = (np.repeat(col[..., None], 2, axis=-1) for col in (p1, p6))
    p5 = k[..., None] * p2
    return p1, p2, 1.0 - p1 - p5, 1.0 - p6 - p2, p5, p6


def _best_roots(R: np.ndarray, p1: np.ndarray, p6: np.ndarray) -> tuple:
    """Each weight's root of the smallest largest coefficient among the
    candidates of its row of pairs p1, p6, the first of equals in the row's
    order: that max|p| (inf where no candidate is a root) and its six
    coefficients, as a (len(R), 6) array."""
    p = _finish(R[:, None], p1, p6)
    largest = functools.reduce(np.maximum, (np.abs(col) for col in p))
    found = _converged(p, _p_of_r_residuals(p, R[:, None, None]), largest)
    ranked = np.where(found, largest, np.inf).reshape(R.size, 2 * p1.shape[1])
    best = np.argmin(ranked, axis=1)
    rows = np.arange(R.size)
    root = np.stack([col.reshape(ranked.shape)[rows, best] for col in p], axis=1)
    return ranked[rows, best], root


def _first_pass(R: np.ndarray) -> tuple:
    """`_best_roots` on each weight's P_OF_R_FIRST pairs of smallest bound
    max(|p1|, |p6|), a NaN read as inf, taken in gauge-major order; and
    whether each root is final, strictly below the bound of every other
    pair. A candidate's max|p| reaches its pair's bound, so a final root is
    the one that every candidate gives."""
    p1, p6 = _pairs(R)
    bound = np.maximum(np.abs(p1), np.abs(p6))
    bound[np.isnan(bound)] = np.inf
    k = min(P_OF_R_FIRST, bound.shape[1])
    order = np.argpartition(bound, k - 1, axis=1)
    rows = np.arange(R.size)[:, None]
    first = np.sort(order[:, :k], axis=1)
    rest = bound[rows, order[:, k:]].min(axis=1, initial=np.inf)
    top, roots = _best_roots(R, p1[rows, first], p6[rows, first])
    return top, roots, top < rest


def _solve_p_of_r_many(weights) -> tuple[np.ndarray, np.ndarray]:
    """`solve_p_of_r` on each weight of a 1-D array: the chosen roots as rows
    of a (len, 6) array, and their residuals as rows of a (len, 5) array.

    The first pass finishes each weight's P_OF_R_FIRST pairs of smallest
    bound. A weight whose root there is not final finishes every pair, in
    blocks of weights that hold a quarter of EVALUATION_BYTES. The first
    weight that fails, in order, raises what `solve_p_of_r` would raise on
    it. `apps.cd.cd_run` calls it on each chunk of a ramp's slices.
    """
    weights = np.asarray(weights, dtype=float)
    accepted = (np.abs(weights) <= P_OF_R_MAX_WEIGHT) & (weights > -0.5)
    n = int(np.argmin(accepted)) if not accepted.all() else weights.size
    valid = weights[:n]
    with np.errstate(all="ignore"):
        largest, roots, final = _first_pass(valid)
        rest = np.flatnonzero(~final)
        block = _items_per_cap(4 * bytes_per_weight(2 * P_OF_R_GAUGES.size))
        for start in range(0, rest.size, block):
            rows = rest[start:start + block]
            largest[rows], roots[rows] = _best_roots(valid[rows], *_pairs(valid[rows]))
        failed = np.flatnonzero(np.isinf(largest))
        if failed.size:
            raise SolverError(f"no gauge gave a real root at R={weights[failed[0]]:.6g}")
        res = _p_of_r_residuals(tuple(roots.T), valid)
    if n < weights.size:
        R = float(weights[n])
        if not abs(R) <= P_OF_R_MAX_WEIGHT:
            raise InvalidInputError(
                f"R must be finite and at most {P_OF_R_MAX_WEIGHT:g} in magnitude")
        raise DomainError("R must exceed -1/2 for the exact coefficients")
    return roots, np.stack(res, axis=1)


def solve_p_of_r(R: float) -> PofRResult:
    """Exact 6-gate coefficients for target exp(x(A+B) + R x^2 [A,B]).

    Solves l = m = 1, q = 1/2 - R = Q and r = s = 1/6 in closed form, for
    each gauge p6 of P_OF_R_GAUGES. As r = p1 q + p3 p4 p5 and s = p2 p3 p4
    + p6 q, p1 solves one quadratic c2 p1^2 + c1 p1 + c0 = 0; then p5 = k p2
    with k = (1/6 - p1 Q) / (1/6 - p6 Q), p2 solves -k p2^2 + (1 - p1 +
    (1 - p6) k) p2 - Q = 0, p3 = 1 - p1 - p5 and p4 = 1 - p6 - p2. The
    candidates that pass `_converged` are roots; complex branches and
    degenerate gauges (c2 = 0, 1/6 = p6 Q) fail it by their NaN or inf.
    Returns the root with the smallest largest coefficient, which carries
    the smallest higher-order defects; among equals, the first in
    gauge-major order.

    Every candidate's max|p| is at least max(|p1|, |p6|) of its (gauge, p1
    root) pair, so the solve finishes (p2 and the rest, then residuals) the
    P_OF_R_FIRST pairs of smallest such bound first. Their best root is the
    answer, bit for bit, when it is strictly below the bound of every other
    pair; otherwise every pair is finished.
    """
    p, res = _solve_p_of_r_many([float(R)])
    return PofRResult(SixGateParams(*p[0].tolist()), tuple(res[0].tolist()))
