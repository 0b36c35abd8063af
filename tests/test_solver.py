"""Coefficient solvers: the 4-copy power conditions and the exact 6-gate solve."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from trotterion import reparam, solve_p_of_r, solve_sqrt4, solver
from trotterion.bases import f_r_params
from trotterion.apps import CDConfig, cd_beta, cd_run
from trotterion.apps import cd as cd_module
from trotterion.errors import DomainError, InvalidInputError, SolverError
from trotterion.formula import EVALUATION_BYTES

from test_apps import REFERENCE_RAMPS

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


def test_sqrt4_power_conditions():
    for n in (3, 5, 7, 9, 11):
        sol = solve_sqrt4(n)
        assert sol.a == 1.0 and sol.b == 2.0
        for p in (n + 1, n + 2):
            resid = sol.a**p - sol.b**p + sol.c**p - sol.d**p
            assert abs(resid) <= 1e-10 * max(1.0, sol.b**p)
        assert abs(sol.signed_sum) > 1e-6
        assert sol.signed_sum == pytest.approx(1.0 - 4.0 + sol.c**2 - sol.d**2,
                                               abs=1e-14)
        # never the trivial branch (c, d) = (2, 1)
        assert not (abs(sol.c - 2.0) < 1e-6 and abs(sol.d - 1.0) < 1e-6)
        assert 1.0 < sol.c < 2.0
        assert -1.0 < sol.d < 0.0


def test_sqrt4_known_first_column():
    sol = solve_sqrt4(3)
    assert sol.c == pytest.approx(1.982590733, abs=5e-9)
    assert sol.d == pytest.approx(-0.8190978288, abs=5e-9)
    assert sol.signed_sum == pytest.approx(0.2597447625, abs=5e-9)


# (n, c, d, signed_sum) of the 4-copy root, computed at 60 digits
SQRT4_REFERENCE = [
    (13, 1.9999945216272035801, -0.93175149916257438206, 0.13181723034712203933),
    (23, 1.9999999968022844203, -0.95790255858334891569, 0.082422675468611489849),
    (41, 1.9999999999999929252, -0.97508626166640253976, 0.049206782309411657915),
    (45, 1.9999999999999995956, -0.97715822073419095568, 0.045161811651588526977),
    (47, 2.0, -0.97807012413115846804, 0.043378832282059877923),
    (101, 2.0, -0.98944620707504084861, 0.020996203304815384931),
    (1021, 2.0, -0.9989272373299692718, 0.002144374520315244947),
]


@pytest.mark.parametrize("n,c,d,signed_sum", SQRT4_REFERENCE)
def test_sqrt4_matches_reference_digits(n, c, d, signed_sum):
    sol = solve_sqrt4(n)
    assert abs(sol.c - c) <= 1e-14
    assert abs(sol.d - d) <= 1e-14
    assert abs(sol.signed_sum - signed_sum) <= 1e-14


def test_sqrt4_every_accepted_order_solves():
    # build_q rescales by 1/sqrt(signed_sum), so every accepted order needs
    # a positive sum; it falls with n, from 0.260 at n = 3 to 0.00214
    sums = []
    for n in range(3, solver.SQRT4_MAX_ORDER + 1, 2):
        sol = solve_sqrt4(n)
        assert sol.d < 0.0 and sol.signed_sum > 1e-6, n
        sums.append(sol.signed_sum)
    assert sums == sorted(sums, reverse=True)
    assert 0.00214 < sums[-1] and sums[0] < 0.2598


def test_sqrt4_rejects_bad_orders():
    with pytest.raises(InvalidInputError):
        solve_sqrt4(4)
    with pytest.raises(InvalidInputError):
        solve_sqrt4(1)
    with pytest.raises(InvalidInputError):
        solve_sqrt4(-3)


def test_p_of_r_converges_and_matches_targets():
    for R in (0.0, 0.3, 2.0, 10.0, 50.0):
        result = solve_p_of_r(R)
        assert result.max_residual <= 1e-10
        rp = reparam(result.params)
        assert rp.l == pytest.approx(1.0, abs=1e-9)
        assert rp.m == pytest.approx(1.0, abs=1e-9)
        assert rp.q == pytest.approx(0.5 - R, abs=1e-9 * max(1.0, abs(R)))
        assert rp.r == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert rp.s == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_p_of_r_fixes_the_closed_form_third_order():
    # the closed form at R=10 has r = -s != 1/6; the exact solve has both
    R = 10.0
    closed_rp = reparam(f_r_params(R))
    u = math.sqrt(R + 0.5)
    want = -(GOLDEN - 1.0) * (R + 0.5 - u)
    assert closed_rp.r == pytest.approx(want, rel=1e-12)
    assert closed_rp.s == pytest.approx(-want, rel=1e-12)
    result = solve_p_of_r(R)
    rp = reparam(result.params)
    assert rp.r == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert rp.s == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_p_of_r_multistart_crosses_seed_degeneracy():
    # the closed-form gauge alone has no root over a window of moderate R
    # (see test_p_of_r_without_a_root_raises); the default solve still finds
    # a small root there, deterministically
    R = 0.5
    first = solve_p_of_r(R)
    again = solve_p_of_r(R)
    assert solver._converged(np.array(first.residuals), np.max(np.abs(first.params.as_tuple())))
    assert first.max_residual <= 1e-10
    assert first.params.as_tuple() == again.params.as_tuple()
    assert max(abs(v) for v in first.params.as_tuple()) < 3.0


# Roots the former damped Newton solve returned. The exact solve may pick
# another root, but never one with a larger coefficient than these.
PINNED_ROOTS = {
    0.35: (1.2310460814320492, -0.38140460477332844, -0.2907375318425695,
           1.0366302075326546, 0.059691450410520416, 0.344774397240674),
    0.45: (0.4630575346231174, 0.8468238129465825, -0.35462151448875573,
           -0.4539165724532513, 0.8915639798656383, 0.6070927595066689),
    0.5: (0.6540039785638672, 0.8882807653464226, -0.5422847439102904,
          -0.3459960214361327, 0.8882807653464231, 0.4577152560897101),
    0.6: (0.5070609374970426, 0.9519496449255647, -0.38185604153459585,
          -0.6507274250761914, 0.8747951040375532, 0.6987777801506269),
    2.0: (0.6354676124543112, 1.970549191594262, -0.5048250663208333,
          -2.5516880216784514, 0.8693574538665222, 1.5811388300841898),
    10.0: (1.7270132632362805, 2.781094412936675, -2.2162415720484825,
           -5.021464762140605, 1.489228308812202, 3.24037034920393),
    50.0: (4.122156965062353, 5.132802196710665, -6.1005515414789,
           -11.239137398486612, 2.9783945764165476, 7.106335201775948),
}


@pytest.mark.parametrize("R", sorted(PINNED_ROOTS))
def test_p_of_r_roots_are_pinned(R):
    result = solve_p_of_r(R)
    p = np.array(result.params.as_tuple())
    assert solver._converged(np.array(result.residuals), np.max(np.abs(p)))
    assert np.max(np.abs(p)) <= max(abs(v) for v in PINNED_ROOTS[R])


def _slice_weights(J, hz, tau, N):
    """The weights of a ramp's slices that the exact solve takes."""
    cfg = CDConfig(J, hz, tau, N)
    dt = tau / N
    weights = []
    for k in range(N):
        try:
            weights.append(cd_beta(cfg, k * dt) / dt)
        except DomainError:
            break
    return [R for R in weights if -0.5 < R <= solver.P_OF_R_MAX_WEIGHT]


# About 100 weights across the window (0.3, 0.68) where the closed-form gauge
# has no root, every slice weight of the README ramp, and 40 weights spaced
# logarithmically in R + 1/2 from R = -0.45 to R = 1e8.
SWEEP_WEIGHTS = sorted({*np.linspace(0.3, 0.68, 102)[1:-1].tolist(),
                        0.5946480095193062, *_slice_weights(-1.0, 5.0, 1.0, 100),
                        *(np.geomspace(0.05, 1e8 + 0.5, 40) - 0.5).tolist()})


def test_p_of_r_sweep_roots_converge_and_repeat():
    for R in SWEEP_WEIGHTS:
        result = solve_p_of_r(R)
        assert solver._converged(np.array(result.residuals),
                                 np.max(np.abs(result.params.as_tuple()))), R
        again = solve_p_of_r(R)
        assert (again.params, again.residuals) == (result.params, result.residuals), R


def test_p_of_r_without_a_root_raises(monkeypatch):
    # the closed-form gauge p6 = sqrt(R + 1/2) alone has no real root at R = 0.5
    monkeypatch.setattr(solver, "P_OF_R_GAUGES", np.array([1.0]))
    with pytest.raises(SolverError):
        solve_p_of_r(0.5)


def _assert_rows_match_the_scalar_solve(weights):
    roots, residuals = solver._solve_p_of_r_many(weights)
    assert roots.shape == (len(weights), 6) and residuals.shape == (len(weights), 5)
    for R, root, res in zip(weights, roots.tolist(), residuals.tolist()):
        result = solve_p_of_r(R)
        assert (tuple(root), tuple(res)) == (result.params.as_tuple(), result.residuals), R


def test_batched_solve_is_the_scalar_solve_row_by_row():
    _assert_rows_match_the_scalar_solve(SWEEP_WEIGHTS)


def test_batched_solve_reads_the_gauges_at_call_time(monkeypatch):
    # the closed-form gauge alone, as in test_p_of_r_without_a_root_raises
    monkeypatch.setattr(solver, "P_OF_R_GAUGES", np.array([1.0]))
    solvable = []
    for R in SWEEP_WEIGHTS:
        try:
            solve_p_of_r(R)
        except SolverError:
            continue
        solvable.append(R)
    assert 0 < len(solvable) < len(SWEEP_WEIGHTS)
    _assert_rows_match_the_scalar_solve(solvable)
    with pytest.raises(SolverError, match="R=0.5$"):
        solver._solve_p_of_r_many([2.0, 0.5, 10.0])


@pytest.mark.parametrize("weights,error", [
    ([2.0, 0.5, math.nan], SolverError),
    ([2.0, math.nan, 0.5], InvalidInputError),
    ([2.0, -0.7, 1e10], DomainError),
    ([1e10, -0.7], InvalidInputError),
])
def test_batched_solve_raises_for_the_first_failing_weight(monkeypatch, weights, error):
    monkeypatch.setattr(solver, "P_OF_R_GAUGES", np.array([1.0]))
    with pytest.raises(error):
        solver._solve_p_of_r_many(weights)


def _unpruned_ranks(weights):
    """Every candidate of each weight, and its max|p| where it passes
    `_converged` (inf elsewhere), as rows in column order."""
    with np.errstate(all="ignore"):
        p = solver._finish(weights[:, None], *solver._pairs(weights))
        largest = functools.reduce(np.maximum, (np.abs(col) for col in p))
        found = solver._converged(solver._p_of_r_residuals(p, weights[:, None, None]), largest)
    ranked = np.where(found, largest, np.inf).reshape(weights.size, -1)
    return tuple(col.reshape(ranked.shape) for col in p), ranked


def _unpruned_solve(weights):
    """The exact solve without its first pass: every candidate, one
    `_converged` pass, then the first smallest max|p| among the roots."""
    weights = np.asarray(weights, dtype=float)
    rows = np.arange(weights.size)
    p, ranked = _unpruned_ranks(weights)
    best = np.argmin(ranked, axis=1)
    assert np.isfinite(ranked[rows, best]).all()
    roots = tuple(col[rows, best] for col in p)
    with np.errstate(all="ignore"):
        residuals = solver._p_of_r_residuals(roots, weights)
    return np.stack(roots, axis=1), np.stack(residuals, axis=1)


# -0.4999, -0.45 and -0.32 finish every pair; at -0.32 a gauge with |t| > 1.5
# wins (t = 2.40)
CUT_WEIGHTS = [-0.4999, -0.45, -0.32, 0.0, 1e8]
EQUIVALENCE_WEIGHTS = [*SWEEP_WEIGHTS, *CUT_WEIGHTS,
                       *(R for ramp in REFERENCE_RAMPS for R in _slice_weights(*ramp))]


def _count_pair_rows(monkeypatch):
    """The weights of each `_pairs` call, as a list the solve appends to."""
    built = []
    pairs = solver._pairs

    def counted(weights):
        built.append(weights.size)
        return pairs(weights)

    monkeypatch.setattr(solver, "_pairs", counted)
    return built


def test_cut_weights_reach_both_rounds(monkeypatch):
    # weights with R < -0.3 finish every pair after the first pass
    built = _count_pair_rows(monkeypatch)
    roots, _ = solver._solve_p_of_r_many(CUT_WEIGHTS)
    assert built == [5, 3]
    R = np.array(CUT_WEIGHTS)
    t = roots[:, 5] / np.sqrt(R + 0.5)
    assert (np.abs(t) > 1.5).tolist() == [False, False, True, False, False]


@pytest.mark.parametrize("cut", [None, ("P_OF_R_FIRST", 1), ("P_OF_R_FIRST", 16),
                                 ("P_OF_R_FIRST", 480), ("P_OF_R_FIRST", 1000)])
def test_cuts_pick_the_unpruned_root_bit_for_bit(monkeypatch, cut):
    # the first pass at one pair, at 16, at the default, at every pair and past it
    if cut is not None:
        monkeypatch.setattr(solver, *cut)
    want = _unpruned_solve(EQUIVALENCE_WEIGHTS)
    got = solver._solve_p_of_r_many(EQUIVALENCE_WEIGHTS)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("R,t", [(-0.45, 0.25), (0.2436363636363636, -2.0),
                                 (0.44181818181818183, 1.1500000000000001)])
def test_tied_roots_pick_the_first_column(monkeypatch, R, t):
    # at the gauges t and -t two distinct roots share the smallest max|p|;
    # the first pass at each size must pick the earlier column
    monkeypatch.setattr(solver, "P_OF_R_GAUGES", np.array([t, -t]))
    ranked = _unpruned_ranks(np.array([R]))[1]
    assert np.count_nonzero(ranked == ranked.min()) > 1
    want = _unpruned_solve([R])
    for first in (1, 2, 3, 4):
        monkeypatch.setattr(solver, "P_OF_R_FIRST", first)
        got = solver._solve_p_of_r_many([R])
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), first


def test_readme_ramp_builds_only_the_inner_gauges(monkeypatch):
    # each weight's pairs are built once: none finishes every pair
    built = _count_pair_rows(monkeypatch)
    cd_run(CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=100), exact_coefficients=True)
    assert sum(built) == 100 and len(built) == -(-100 // cd_module._slices_per_chunk())


@pytest.mark.parametrize("lo,hi", [(0.3215, 0.3257), (-0.4999, -0.4626)])
def test_exact_solve_of_one_chunk_holds_a_quarter_of_the_cap(lo, hi):
    # a ramp chunk near R = 0.32, where about 70 pairs bound below the root,
    # and one where every weight finishes every pair
    weights = np.linspace(lo, hi, cd_module._slices_per_chunk())
    tracemalloc.start()
    try:
        solver._solve_p_of_r_many(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= EVALUATION_BYTES // 4


@pytest.mark.parametrize("R", [4e4, 1e6, 1e8])
def test_p_of_r_converges_at_large_weight(R):
    # the residual's rounding floor grows like max|p|^3 ~ R^1.5 and passes
    # P_OF_R_TOL near R = 1e4; the tolerance follows it
    result = solve_p_of_r(R)
    p_max = max(abs(v) for v in result.params.as_tuple())
    assert result.max_residual <= np.finfo(float).eps * p_max**3
    assert reparam(result.params).q == pytest.approx(0.5 - R, rel=1e-12)


def test_p_of_r_multistart_draws_further_rounds():
    # a weight at which every draw of the former solve's first round of 40
    # Newton starts failed
    result = solve_p_of_r(0.5946480095193062)
    assert solver._converged(np.array(result.residuals), np.max(np.abs(result.params.as_tuple())))
    assert result.max_residual <= 1e-10


# weights past P_OF_R_MAX_WEIGHT, where the rounding of r and s nears their
# 1/6 target, are rejected as well
@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 1e10, 1e14, -1e10])
def test_p_of_r_rejects_non_finite_weight(R):
    with pytest.raises(InvalidInputError):
        solve_p_of_r(R)


def test_p_of_r_rejects_weight_whose_seed_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            solve_p_of_r(1e300)
