"""Numeric coefficient solvers.

Two jobs live here: the one bracketed scalar root that powers the 4-copy
order-raising scheme, and the exact 6-gate sum-plus-commutator
coefficients at a given commutator weight R, from two quadratics over a
fixed set of gauges.
"""

from __future__ import annotations

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
# spaced on [-3, 3]. On 165 weights in (-1/2, 1e8] each solve found a root
# (best t from 0.09 to 2.25), at most 8e-4 larger than the former Newton
# root (3.41 against 5.02 at R = 10); 25 or 50 gauges did worse at R = 0.66.
P_OF_R_GAUGES = np.linspace(-3.0, 3.0, 240)
# Degree in p of each residual: l, m, q, r, s.
_RESIDUAL_DEGREES = np.array([1, 1, 2, 3, 3])


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


def _converged(p: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Whether each residual (last axis) is within P_OF_R_TOL or the rounding
    of its terms, eps * max|p|^degree, which for r and s passes P_OF_R_TOL
    near R = 1e4. P_OF_R_MAX_FLOOR keeps huge coefficients from passing."""
    floor = np.finfo(float).eps * np.max(np.abs(p), axis=-1)[..., None] ** _RESIDUAL_DEGREES
    return np.all(np.abs(res) <= np.clip(floor, P_OF_R_TOL, P_OF_R_MAX_FLOOR), axis=-1)


def _p_of_r_residuals(p: np.ndarray, R: float) -> np.ndarray:
    """The five residuals over the last axis: shape (..., 6) -> (..., 5)."""
    rp = reparam(SixGateParams(*np.moveaxis(p, -1, 0)))
    return np.stack([
        rp.l - 1.0,
        rp.m - 1.0,
        rp.q + R - 0.5,
        rp.r - 1.0 / 6.0,
        rp.s - 1.0 / 6.0,
    ], axis=-1)


def _quadratic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
    """Both roots of a x^2 + b x + c = 0 on a new last axis, without cancellation.
    A complex pair gives NaN; a = 0 gives the linear root c/w and a non-finite one."""
    w = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return np.stack([w / a, c / w], axis=-1)


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
    the smallest higher-order defects; among equals, the first in order.
    """
    R = float(R)
    if not abs(R) <= P_OF_R_MAX_WEIGHT:
        raise InvalidInputError(
            f"R must be finite and at most {P_OF_R_MAX_WEIGHT:g} in magnitude")
    if R <= -0.5:
        raise DomainError("R must exceed -1/2 for the exact coefficients")
    Q = 0.5 - R
    p6 = P_OF_R_GAUGES * math.sqrt(R + 0.5)
    with np.errstate(all="ignore"):
        p1 = _quadratic_roots(
            (72 * R - 36) * p6**2 - (72 * R - 48) * p6 - 12,
            (48 - 72 * R) * p6**2 + (72 * R**2 - 72 * R - 30) * p6 + 72 * R**2 + 24 * R + 6,
            -12 * p6**2 + (72 * R**2 + 24 * R + 6) * p6 - 72 * R**3 - 36 * R**2 - 6 * R - 1)
        p6 = p6[:, None]
        k = (1.0 / 6.0 - p1 * Q) / (1.0 / 6.0 - p6 * Q)
        p2 = _quadratic_roots(-k, 1.0 - p1 + (1.0 - p6) * k, -Q)
        p1, p6, k = p1[..., None], p6[..., None], k[..., None]
        p5 = k * p2
        p = np.stack(np.broadcast_arrays(p1, p2, 1.0 - p1 - p5, 1.0 - p6 - p2, p5, p6),
                     axis=-1).reshape(-1, 6)
        res = _p_of_r_residuals(p, R)
        roots = np.flatnonzero(_converged(p, res))
    if not roots.size:
        raise SolverError(f"no gauge gave a real root at R={R:.6g}")
    best = roots[np.argmin(np.max(np.abs(p[roots]), axis=1))]
    return PofRResult(SixGateParams(*p[best].tolist()), tuple(res[best].tolist()))
