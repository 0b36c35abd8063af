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
# The solve builds the gauges with |t| <= P_OF_R_WINDOW first, and the rest
# only for a weight whose best root there is not below fl(P_OF_R_WINDOW *
# sqrt(R + 1/2)). On 10 766 weights in (-1/2, 1e8], and 40 000 more spread
# over it, no weight with R >= -0.146 built the rest, and there the best t
# lay in [-0.79, 1.49]; from R = -0.378 to -0.151 an outer t may win (2.40
# at R = -0.32).
P_OF_R_WINDOW = 1.5
# Residuals are taken first on the P_OF_R_SCREEN candidates of a row with
# the smallest max|p|. On those weights, of R >= 0 only weights in [0.3215,
# 0.3257] had no root among them (one slice of the README ramp); so did
# those in (-1/2, -0.4626]. Such rows check the rest of their candidates.
P_OF_R_SCREEN = 64


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


def _candidates(weights: np.ndarray, gauges: np.ndarray) -> tuple:
    """The candidates p = (p1, ..., p6) of each weight of a 1-D array at each
    t of `gauges`: six (len(weights), 4 * len(gauges)) arrays, gauge-major."""
    n = weights.size
    R = weights[:, None]
    Q = 0.5 - R
    # Python's scalar powers, not R * R * R, so a weight's coefficients
    # keep every bit of the one-weight formula
    R2, R3 = (np.array([r ** e for r in weights.tolist()]).reshape(n, 1) for e in (2, 3))
    p6 = gauges * np.sqrt(R + 0.5)
    p6_2 = p6 * p6
    p1 = _quadratic_roots(
        (72 * R - 36) * p6_2 - (72 * R - 48) * p6 - 12,
        (48 - 72 * R) * p6_2 + (72 * R2 - 72 * R - 30) * p6 + 72 * R2 + 24 * R + 6,
        -12 * p6_2 + (72 * R2 + 24 * R + 6) * p6 - 72 * R3 - 36 * R2 - 6 * R - 1)
    p6 = p6[..., None]
    k = (1.0 / 6.0 - p1 * Q[..., None]) / (1.0 / 6.0 - p6 * Q[..., None])
    p2 = _quadratic_roots(-k, 1.0 - p1 + (1.0 - p6) * k, -Q[..., None])
    p2 = p2.reshape(n, 4 * gauges.size)
    # each (gauge, p1 root) pair carries both of its p2 roots
    p1 = np.repeat(p1.reshape(n, 2 * gauges.size), 2, axis=1)
    p5 = np.repeat(k.reshape(n, 2 * gauges.size), 2, axis=1) * p2
    p6 = np.repeat(p6.reshape(n, gauges.size), 4, axis=1)
    return p1, p2, 1.0 - p1 - p5, 1.0 - p6 - p2, p5, p6


def _best_roots(weights: np.ndarray, gauges: np.ndarray) -> tuple:
    """Each weight's root of the smallest largest coefficient among its
    candidates at `gauges`, the first in gauge-major order of equals: that
    max|p| (inf where no candidate is a root), its column, and its six
    coefficients.

    Residuals are taken first on the candidates whose max|p| is at most the
    row's P_OF_R_SCREEN-th smallest; no other candidate can match a root
    among them. Only rows with no root there check the rest; so does a row
    whose P_OF_R_SCREEN-th smallest is NaN, as nothing passes `<= NaN`.
    """
    p = _candidates(weights, gauges)
    largest = functools.reduce(np.maximum, (np.abs(col) for col in p))
    kth = min(P_OF_R_SCREEN, largest.shape[1]) - 1
    screened = largest <= np.partition(largest, kth, axis=1)[:, kth:kth + 1]
    R = np.broadcast_to(weights[:, None], largest.shape)
    # largest at each root found and inf elsewhere
    ranked = np.full(largest.shape, np.inf)

    def rank(check):
        cands, top = tuple(col[check] for col in p), largest[check]
        found = _converged(cands, _p_of_r_residuals(cands, R[check]), top)
        ranked[check] = np.where(found, top, np.inf)

    rank(screened)
    rest = ~screened & np.isinf(ranked).all(axis=1, keepdims=True)
    if rest.any():
        rank(rest)
    best = np.argmin(ranked, axis=1)
    rows = np.arange(weights.size)
    return ranked[rows, best], best, np.stack([col[rows, best] for col in p], axis=1)


def _solve_p_of_r_many(weights) -> tuple[np.ndarray, np.ndarray]:
    """`solve_p_of_r` on each weight of a 1-D array: the chosen roots as rows
    of a (len, 6) array, and their residuals as rows of a (len, 5) array.

    The inner gauges' round, then the outer gauges' round for the weights
    it leaves open; of their roots the smaller max|p| wins, and of equals
    the earlier column. The first weight that fails, in order, raises what
    `solve_p_of_r` would raise on it. `apps.cd.cd_run` calls it on each
    chunk of a ramp's slices.
    """
    weights = np.asarray(weights, dtype=float)
    accepted = (np.abs(weights) <= P_OF_R_MAX_WEIGHT) & (weights > -0.5)
    n = int(np.argmin(accepted)) if not accepted.all() else weights.size
    valid = weights[:n]
    inner = np.abs(P_OF_R_GAUGES) <= P_OF_R_WINDOW
    # an outer candidate's max|p| >= |p6| >= bound, so an inner root below it is final
    bound = P_OF_R_WINDOW * np.sqrt(valid + 0.5)
    largest = np.full(n, np.inf)
    column = np.full(n, 4 * P_OF_R_GAUGES.size)
    roots = np.empty((n, 6))
    with np.errstate(all="ignore"):
        for gauges in (np.flatnonzero(inner), np.flatnonzero(~inner)):
            rows = np.flatnonzero(~(largest < bound))
            if not (gauges.size and rows.size):
                continue
            top, col, root = _best_roots(valid[rows], P_OF_R_GAUGES[gauges])
            col = 4 * gauges[col // 4] + col % 4  # its column among all candidates
            wins = (top < largest[rows]) | (top == largest[rows]) & (col < column[rows])
            rows = rows[wins]
            largest[rows], column[rows], roots[rows] = top[wins], col[wins], root[wins]
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

    Two cuts skip candidates that cannot win, as max|p| >= |p_i| for each
    coefficient, and leave the root the same bit for bit. The gauges with
    |t| <= P_OF_R_WINDOW go first; the rest are built only when the best
    root there is not below fl(P_OF_R_WINDOW * sqrt(R + 1/2)), which every
    outer candidate's |p6| reaches. In each of these two rounds residuals
    are taken first on the P_OF_R_SCREEN candidates of smallest max|p|,
    and on the others only when none of those is a root.
    """
    p, res = _solve_p_of_r_many([float(R)])
    return PofRResult(SixGateParams(*p[0].tolist()), tuple(res[0].tolist()))
