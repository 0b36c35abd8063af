"""Numeric coefficient solvers.

Two jobs live here: the two-parameter root find that powers the 4-copy
order-raising scheme, and a damped Newton solve for exact 6-gate
sum-plus-commutator coefficients at a given commutator weight R. The
ordered word sums that encode the fourth-order conditions are exposed
as a residual vector as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bases import AccuracyWarning, SixGateParams, f_r_params, reparam
from .errors import InvalidInputError, SolverError
from .formula import ProductFormula, word_sums

SQRT4_BISECT_TOL = 1e-14
SQRT4_RESIDUAL_TOL = 1e-12
P_OF_R_TOL = 1e-10
P_OF_R_MAX_ITER = 100
P_OF_R_MAX_RETRIES = 5
P_OF_R_MULTISTART = 40
P_OF_R_MULTISTART_ROUNDS = 4
# Backtracking scales 2^0 .. 2^-30 of a Newton step.
_BACKTRACK_SCALES = np.ldexp(1.0, -np.arange(31))


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
    if n < 3 or n % 2 == 0:
        raise InvalidInputError("the 4-copy solve needs an odd source order n >= 3")
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


def _r_seed(R: float) -> int:
    return 1 + abs(hash(round(R, 12))) % (2**32)


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
    if not math.isfinite(R):
        raise InvalidInputError("R must be finite for the coefficient solve")
    if seed is not None:
        return _newton_p_of_r(R, np.array([seed.as_tuple()]))[0]
    # The closed form is only a Newton seed here; its small-R accuracy
    # warning does not apply to the corrected output.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        start = np.array([f_r_params(R).as_tuple()])
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(_p_of_r_residuals(start, R))):
            raise InvalidInputError(
                f"R={R:.6g} is too large: the closed-form seed's residuals overflow")
    result = _newton_p_of_r(R, start)[0]
    rng = np.random.default_rng(_r_seed(R))
    for _ in range(P_OF_R_MULTISTART_ROUNDS):
        if result.converged:
            break
        draws = np.array([(*rng.uniform(-2.0, 2.0, size=5), rng.uniform(0.1, 2.5))
                          for _ in range(P_OF_R_MULTISTART)])
        for attempt in _newton_p_of_r(R, draws):
            if attempt.converged:
                # among roots prefer small coefficients: they carry the
                # smallest higher-order defects
                if (not result.converged
                        or _coeff_size(attempt) < _coeff_size(result)):
                    result = attempt
            elif (not result.converged
                    and attempt.max_residual < result.max_residual):
                result = attempt
    return result


def _coeff_size(result: PofRResult) -> float:
    return max(abs(v) for v in result.params.as_tuple())


def _newton_p_of_r(R: float, starts: np.ndarray) -> list[PofRResult]:
    """Damped Newton from every row of a (k, 6) array of starts at once.

    Each row runs on its own: P_OF_R_MAX_ITER iterations, a retry (a
    kick of p1..p5) taking one of them; a row that converges returns its
    current p, any other the best p it reached. The j-th retry of every
    row uses the j-th kick drawn from the R-seeded generator, and a
    Jacobian still singular after P_OF_R_MAX_RETRIES retries raises.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        kicks = np.random.default_rng(_r_seed(R)).normal(
            scale=1e-6, size=(P_OF_R_MAX_RETRIES, 5))
        p = np.array(starts, dtype=float)
        res = _p_of_r_residuals(p, R)
        best_p, best_norm = p.copy(), np.max(np.abs(res), axis=1)
        retries = np.zeros(len(p), dtype=int)
        results: list[PofRResult | None] = [None] * len(p)
        live = np.arange(len(p))
        for _ in range(P_OF_R_MAX_ITER):
            # not `> tol`: a NaN row stays live, as it would alone
            done = np.max(np.abs(res[live]), axis=1) <= P_OF_R_TOL
            for i in live[done]:
                results[i] = PofRResult(SixGateParams(*p[i]), tuple(res[i].tolist()),
                                        converged=True)
            live = live[~done]
            if not live.size:
                break
            step = _newton_steps(_p_of_r_jacobians(p[live]), res[live])
            solved = np.all(np.isfinite(step), axis=1)
            moved = np.zeros_like(solved)
            moved[solved] = _backtrack(R, p, res, live[solved], step[solved])
            rows = live[moved]
            norm = np.max(np.abs(res[rows]), axis=1)
            gain = norm < best_norm[rows]
            best_p[rows[gain]], best_norm[rows[gain]] = p[rows[gain]], norm[gain]
            # Retries: a row that did not move kicks p1..p5; once they run
            # out, a singular Jacobian raises and a stalled row ends.
            retries[live[~moved]] += 1
            over = retries[live] > P_OF_R_MAX_RETRIES
            if np.any(over & ~solved):
                raise SolverError("Newton Jacobian stayed singular after retries")
            kicked = live[~moved & ~over]
            if kicked.size:
                p[kicked, :5] = p[kicked, :5] + kicks[retries[kicked] - 1]
                res[kicked] = _p_of_r_residuals(p[kicked], R)
            live = live[~over]
        # every other row stopped unconverged and returns its best point
        rest = [i for i, r in enumerate(results) if r is None]
        if rest:
            for i, final in zip(rest, _p_of_r_residuals(best_p[rest], R)):
                results[i] = PofRResult(SixGateParams(*best_p[i]), tuple(final.tolist()),
                                        converged=float(np.max(np.abs(final))) <= P_OF_R_TOL)
    return results


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
