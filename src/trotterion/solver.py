"""Numeric coefficient solvers.

Two jobs live here: the two-parameter root find that powers the 4-copy
order-raising scheme, and a damped Newton solve for exact 6-gate
sum-plus-commutator coefficients at a given commutator weight R. The
ordered word sums that encode the fourth-order conditions are exposed
as a residual vector as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bases import AccuracyWarning, SixGateParams, f_r_params, reparam
from .errors import InvalidInputError, SolverError
from .formula import ProductFormula, word_sums

SQRT4_BISECT_TOL = 1e-14
SQRT4_RESIDUAL_TOL = 1e-12
# The power conditions carry 2^(n+2), which overflows a double past n = 1021.
SQRT4_MAX_ORDER = 1021
P_OF_R_TOL = 1e-10
# Largest |R| the exact solve takes, and largest rounding floor a residual may
# stand on. The coefficients grow like sqrt(R), so the rounding eps*max|p|^3 of
# the cubic residuals r and s grows like R^1.5: under 1e-3 up to R = 1e8, and
# past their 1/6 target near R = 1e10, where a "root" has no correct digit.
P_OF_R_MAX_WEIGHT = 1e8
P_OF_R_MAX_FLOOR = 1e-3
P_OF_R_MAX_ITER = 100
P_OF_R_MULTISTART = 40
P_OF_R_MULTISTART_ROUNDS = 4
# Backtracking scales 2^0 .. 2^-30 of a Newton step.
_BACKTRACK_SCALES = np.ldexp(1.0, -np.arange(31))
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


def _sqrt4_curves(k: int):
    """The two (eps1 -> eps2) curves whose crossing solves the system."""
    two_2k = 2.0 ** (2 * k)
    two_2k1 = 2.0 ** (2 * k + 1)

    def curve_even(e1: float) -> float:
        return 2.0 - (two_2k - 1.0 + (1.0 - e1) ** (2 * k)) ** (1.0 / (2 * k))

    def curve_odd(e1: float) -> float:
        return 2.0 - (two_2k1 - 1.0 - (1.0 - e1) ** (2 * k + 1)) ** (1.0 / (2 * k + 1))

    return curve_even, curve_odd


def solve_sqrt4(n: int) -> Sqrt4Solution:
    """Solve the 4-copy coefficient conditions for odd source order n >= 3.

    Writing (c, d) = (2 - eps2, -1 + eps1), each power condition becomes
    an explicit curve eps2(eps1); the even-power curve increases and the
    odd-power curve decreases on (0, 1), so their difference has exactly
    one bracketed root. Bisection to 1e-14 plus one Newton polish on
    (c, d) gives the crossing.
    """
    if n < 3 or n % 2 == 0 or n > SQRT4_MAX_ORDER:
        raise InvalidInputError(
            f"the 4-copy solve needs an odd source order 3 <= n <= {SQRT4_MAX_ORDER}")
    k = (n + 1) // 2
    curve_even, curve_odd = _sqrt4_curves(k)

    grid = np.linspace(0.0, 1.0, 1000)
    even_vals = np.array([curve_even(e) for e in grid])
    odd_vals = np.array([curve_odd(e) for e in grid])
    if np.any(np.diff(even_vals) < -1e-15) or np.any(np.diff(odd_vals) > 1e-15):
        raise SolverError("coefficient curves lost monotonicity; cannot bracket")

    gap = lambda e1: curve_even(e1) - curve_odd(e1)
    lo, hi = 0.0, 1.0
    if not (gap(lo) < 0.0 < gap(hi)):
        raise SolverError("curve crossing is not bracketed on (0, 1)")
    while hi - lo > SQRT4_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    e1 = 0.5 * (lo + hi)
    e2 = curve_even(e1)

    c = 2.0 - e2
    d = -1.0 + e1
    rhs_even = 2.0 ** (2 * k) - 1.0
    rhs_odd = 2.0 ** (2 * k + 1) - 1.0
    res = np.array([
        c ** (2 * k) - d ** (2 * k) - rhs_even,
        c ** (2 * k + 1) - d ** (2 * k + 1) - rhs_odd,
    ])
    jac = np.array([
        [2 * k * c ** (2 * k - 1), -2 * k * d ** (2 * k - 1)],
        [(2 * k + 1) * c ** (2 * k), -(2 * k + 1) * d ** (2 * k)],
    ])
    step = np.linalg.solve(jac, -res)
    c += float(step[0])
    d += float(step[1])

    res = np.array([
        c ** (2 * k) - d ** (2 * k) - rhs_even,
        c ** (2 * k + 1) - d ** (2 * k + 1) - rhs_odd,
    ])
    if float(np.max(np.abs(res))) > SQRT4_RESIDUAL_TOL * max(1.0, rhs_odd):
        raise SolverError(f"4-copy polish left residual {np.max(np.abs(res)):.3e}")
    if d >= 0.0:
        raise SolverError("4-copy solve collapsed onto the trivial branch")
    signed_sum = 1.0 - 4.0 + c * c - d * d
    if abs(signed_sum) <= 1e-6:
        raise SolverError("4-copy signed square sum vanished; no commutator weight")
    return Sqrt4Solution(n=n, a=1.0, b=2.0, c=c, d=d, signed_sum=signed_sum)


@dataclass(frozen=True)
class PofRResult:
    """Outcome of the exact 6-gate sum-plus-commutator solve."""

    params: SixGateParams
    residuals: tuple[float, float, float, float, float]
    converged: bool

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


def _p_of_r_jacobians(p: np.ndarray) -> np.ndarray:
    """Partials of (l, m, q, r, s) with respect to p1..p5 (p6 held fixed).

    Shape (k, 6) -> (k, 5, 5), one Jacobian per row of p.
    """
    p1, p2, p3, p4, p5, p6 = p.T
    zero, one = np.zeros_like(p1), np.ones_like(p1)
    rows = [
        [one, zero, one, zero, one],
        [zero, one, zero, one, zero],
        [zero, p3 + p5, p2, p5, p2 + p4],
        [p2 * p3 + p2 * p5 + p4 * p5, p1 * p3 + p1 * p5, p1 * p2 + p4 * p5,
         p1 * p5 + p3 * p5, p1 * p2 + p1 * p4 + p3 * p4],
        [zero, p3 * p4 + p3 * p6 + p5 * p6, p2 * p4 + p2 * p6, p2 * p3 + p5 * p6,
         p2 * p6 + p4 * p6],
    ]
    return np.moveaxis(np.array(rows), -1, 0)


def _newton_steps(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Solve jac @ step = -res row by row; a singular row's step is NaN."""
    try:
        return np.linalg.solve(jac, -res[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(res, np.nan)
        for i in range(len(res)):
            try:
                steps[i] = np.linalg.solve(jac[i], -res[i])
            except np.linalg.LinAlgError:
                pass
        return steps


def _norm(res: np.ndarray) -> np.ndarray:
    """2-norm over the last axis, rounded as np.linalg.norm of each row:
    matmul takes the same dot kernel, a sum over the axis would not."""
    return np.sqrt((res[..., None, :] @ res[..., :, None])[..., 0, 0])


def solve_p_of_r(R: float, seed: SixGateParams | None = None) -> PofRResult:
    """Exact 6-gate coefficients for target exp(x(A+B) + R x^2 [A,B]).

    Damped Newton iteration on the five residuals
    (l-1, m-1, q+R-1/2, r-1/6, s-1/6) over p1..p5; the system is
    underdetermined by one, so p6 stays pinned at its seed value. With
    an explicit seed only that basin is searched and the result reports
    honestly whether it converged. Without a seed the closed-form
    large-R coefficients seed the first attempt; the closed-form branch
    degenerates over a window of moderate R, so on failure a
    deterministic multistart over pinning gauges hunts for any root,
    in rounds of P_OF_R_MULTISTART draws solved as one batch.
    """
    R = float(R)
    if not abs(R) <= P_OF_R_MAX_WEIGHT:
        raise InvalidInputError(
            f"R must be finite and at most {P_OF_R_MAX_WEIGHT:g} in magnitude")
    if seed is not None:
        return _newton_p_of_r(R, np.array([seed.as_tuple()]))[0]
    # The closed form is only a Newton seed here; its small-R accuracy
    # warning does not apply to the corrected output.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        start = np.array([f_r_params(R).as_tuple()])
    result = _newton_p_of_r(R, start)[0]
    rng = np.random.default_rng(1 + abs(hash(round(R, 12))) % (2**32))
    for _ in range(P_OF_R_MULTISTART_ROUNDS):
        if result.converged:
            break
        draws = np.array([(*rng.uniform(-2.0, 2.0, size=5), rng.uniform(0.1, 2.5))
                          for _ in range(P_OF_R_MULTISTART)])
        result = min([result, *_newton_p_of_r(R, draws)], key=_rank)
    return result


def _rank(result: PofRResult) -> tuple[int, float]:
    """Order among multistart draws: roots first, by their largest coefficient
    (small ones carry the smallest higher-order defects), then failures by
    their residual. min keeps the earliest of equals."""
    if result.converged:
        return 0, max(abs(v) for v in result.params.as_tuple())
    return 1, result.max_residual


def _newton_p_of_r(R: float, starts: np.ndarray) -> list[PofRResult]:
    """Damped Newton from every row of a (k, 6) array of starts at once.

    Each row runs on its own for at most P_OF_R_MAX_ITER iterations and
    stops where it converges or where no backtracking scale of its step
    lowers the residual norm; a singular Jacobian gives no step. A row
    returns the p it stopped at.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array(starts, dtype=float)
        res = _p_of_r_residuals(p, R)
        live = np.arange(len(p))
        for _ in range(P_OF_R_MAX_ITER):
            live = live[~_converged(p[live], res[live])]
            if not live.size:
                break
            step = _newton_steps(_p_of_r_jacobians(p[live]), res[live])
            solved = np.all(np.isfinite(step), axis=1)
            live = live[solved][_backtrack(R, p, res, live[solved], step[solved])]
        return [PofRResult(SixGateParams(*row), tuple(r.tolist()), bool(c))
                for row, r, c in zip(p, res, _converged(p, res))]


def _backtrack(R: float, p: np.ndarray, res: np.ndarray, rows: np.ndarray,
               step: np.ndarray) -> np.ndarray:
    """Move each row to the first scale 2^0 .. 2^-30 of its step whose
    residual norm improves, all scales of all rows in one evaluation.

    Updates p and res in place and returns which rows moved.
    """
    trial = np.repeat(p[rows, None, :], len(_BACKTRACK_SCALES), axis=1)
    trial[:, :, :5] = p[rows, None, :5] + _BACKTRACK_SCALES[:, None] * step[:, None, :]
    trial_res = _p_of_r_residuals(trial, R)
    better = _norm(trial_res) < _norm(res[rows])[:, None]
    moved = better.any(axis=1)
    first = better.argmax(axis=1)[moved]
    p[rows[moved]] = trial[moved, first]
    res[rows[moved]] = trial_res[moved, first]
    return moved


def residuals_order4(f: ProductFormula) -> np.ndarray:
    """The eight ordered-word-sum residuals of the fourth-order conditions.

    Vector layout: (A, B, BA + 1, ABA, BAB, AABA, BBAB, ABAB - BABA).
    All eight vanish exactly when the formula equals
    exp(x^2 [A,B]) + O(x^5).
    """
    w = word_sums(f)
    return np.array([
        w.a,
        w.b,
        w.ba + 1.0,
        w.aba,
        w.bab,
        w.a2ba,
        w.b2ab,
        w.abab - w.baba,
    ])
