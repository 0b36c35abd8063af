"""Coefficient solvers: the 4-copy power conditions and the exact 6-gate solve."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from trotterion import (AccuracyWarning, SixGateParams, f_r_params, reparam,
                        residuals_order4, s3, solve_p_of_r, solve_sqrt4, solver)
from trotterion.errors import InvalidInputError
from trotterion.formula import ProductFormula

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
        assert result.converged
        assert result.max_residual <= 1e-10
        rp = reparam(result.params)
        assert rp.l == pytest.approx(1.0, abs=1e-9)
        assert rp.m == pytest.approx(1.0, abs=1e-9)
        assert rp.q == pytest.approx(0.5 - R, abs=1e-9 * max(1.0, abs(R)))
        assert rp.r == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert rp.s == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_p_of_r_fixes_the_closed_form_third_order():
    # the closed-form seed at R=10 has r = -s != 1/6; the solve repairs both
    R = 10.0
    seed = f_r_params(R)
    seed_rp = reparam(seed)
    u = math.sqrt(R + 0.5)
    want = -(GOLDEN - 1.0) * (R + 0.5 - u)
    assert seed_rp.r == pytest.approx(want, rel=1e-12)
    assert seed_rp.s == pytest.approx(-want, rel=1e-12)
    result = solve_p_of_r(R)
    rp = reparam(result.params)
    assert rp.r == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert rp.s == pytest.approx(1.0 / 6.0, abs=1e-9)
    # p6 is the gauge choice and stays pinned at the seed value
    assert result.params.p6 == pytest.approx(seed.p6, abs=1e-12)


def test_p_of_r_honors_custom_seed():
    R = 1.5
    base = solve_p_of_r(R)
    # moving the gauge parameter p6 selects a different family member
    seed = dataclasses.replace(base.params, p6=1.6)
    result = solve_p_of_r(R, seed=seed)
    assert result.converged
    assert result.params.p6 == pytest.approx(1.6, abs=1e-12)
    assert abs(result.params.p1 - base.params.p1) > 1e-3
    rp = reparam(result.params)
    assert rp.q == pytest.approx(0.5 - R, abs=1e-9)
    assert rp.r == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_p_of_r_reports_failed_basins():
    # a seed far from any solution ends with an honest failure flag, also
    # when one huge coefficient makes eps * max|p|^3 exceed every residual,
    # and when Newton stops among coefficients so large that this floor
    # would pass the 1/6 target of r and s
    for R, seed in ((1.5, (0.5, 1.0, -0.3, -1.2, 0.8, 2.0)),
                    (1.5, (1e60, 1.0, 1.0, 1.0, 1.0, 1.0)),
                    (0.5, (31.0, 12.0, -8200.0, 200.0, 1600.0, 32000.0))):
        result = solve_p_of_r(R, seed=SixGateParams(*seed))
        assert not result.converged
        assert result.max_residual > 1e-10


def test_p_of_r_multistart_crosses_seed_degeneracy():
    # the closed-form seed branch degenerates over a window of moderate R;
    # the default solve still finds a root there, deterministically
    R = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        pinned = solve_p_of_r(R, seed=f_r_params(R))
    assert not pinned.converged
    first = solve_p_of_r(R)
    again = solve_p_of_r(R)
    assert first.converged
    assert first.max_residual <= 1e-10
    assert first.params.as_tuple() == again.params.as_tuple()
    assert max(abs(v) for v in first.params.as_tuple()) < 3.0


# Roots the default solve returns, recorded to the last bit; a change to the
# Newton loop that moves them changes which coefficients `cd` runs with.
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
# solve_p_of_r(1.5, seed=...) with the p6 = 1.6 seed of test_p_of_r_honors_custom_seed
PINNED_CUSTOM_SEED_ROOT = (0.33504993632600416, 2.939398663865198, -0.1698113207540937,
                           -3.539398663865198, 0.8347613844280896, 1.6)


@pytest.mark.parametrize("R", sorted(PINNED_ROOTS))
def test_p_of_r_roots_are_pinned(R):
    result = solve_p_of_r(R)
    assert result.converged
    assert result.params.as_tuple() == pytest.approx(PINNED_ROOTS[R], abs=1e-10)


def test_p_of_r_custom_seed_root_is_pinned():
    seed = dataclasses.replace(solve_p_of_r(1.5).params, p6=1.6)
    result = solve_p_of_r(1.5, seed=seed)
    assert result.converged
    assert result.params.as_tuple() == pytest.approx(PINNED_CUSTOM_SEED_ROOT, abs=1e-10)


def _closed_form(R):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return f_r_params(R).as_tuple()


def _batch_outcome(R, starts):
    results = solver._newton_p_of_r(R, np.array(starts, dtype=float))
    return [(r.params.as_tuple(), r.residuals, r.converged) for r in results]


def test_batched_newton_rows_are_independent():
    # a singular Jacobian at the start, a far basin that fails, a start
    # whose steps soon stop lowering the residual, and two starts that
    # converge after different numbers of steps
    R = 1.5
    gauge_moved = dataclasses.replace(SixGateParams(*_closed_form(R)), p6=1.6).as_tuple()
    starts = [(0.0, 0.0, 0.0, 0.0, 0.0, 1.0), _closed_form(R),
              (0.5, 1.0, -0.3, -1.2, 0.8, 2.0), (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
              gauge_moved]
    alone = [_batch_outcome(R, [s])[0] for s in starts]
    assert [converged for _, _, converged in alone] == [False, True, False, False, True]
    # the singular start gets no step and stops where it began
    assert alone[0][0] == starts[0]
    assert _batch_outcome(R, starts) == alone


def test_batched_newton_nan_start_ends_unconverged():
    # a NaN start has no finite Newton step, so its row stops at once
    R = 1.5
    bad, good = (math.nan, 0.0, 0.0, 0.0, 0.0, 1.0), _closed_form(R)
    lone, good_alone = _batch_outcome(R, [bad])[0], _batch_outcome(R, [good])[0]
    assert not lone[2]
    assert good_alone[2]
    # NaN != NaN, so compare the outcomes by their text
    assert repr(_batch_outcome(R, [good, bad])) == repr([good_alone, lone])
    assert repr(_batch_outcome(R, [bad, good])) == repr([lone, good_alone])


@pytest.mark.parametrize("R", [4e4, 1e6, 1e8])
def test_p_of_r_converges_at_large_weight(R):
    # the residual's rounding floor grows like max|p|^3 ~ R^1.5 and passes
    # P_OF_R_TOL near R = 1e4; the tolerance follows it
    result = solve_p_of_r(R)
    assert result.converged
    p_max = max(abs(v) for v in result.params.as_tuple())
    assert result.max_residual <= np.finfo(float).eps * p_max**3
    assert reparam(result.params).q == pytest.approx(0.5 - R, rel=1e-12)


def test_p_of_r_multistart_draws_further_rounds():
    # every draw of the first round of 40 fails at this weight
    result = solve_p_of_r(0.5946480095193062)
    assert result.converged
    assert result.max_residual <= 1e-10


# weights past P_OF_R_MAX_WEIGHT, where the rounding of r and s nears their
# 1/6 target, are rejected as well
@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 1e10, 1e14, -1e10])
def test_p_of_r_rejects_non_finite_weight(R):
    with pytest.raises(InvalidInputError):
        solve_p_of_r(R)
    with pytest.raises(InvalidInputError):
        solve_p_of_r(R, seed=SixGateParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_p_of_r_rejects_weight_whose_seed_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            solve_p_of_r(1e300)


def test_residuals_order4_s3():
    res = residuals_order4(s3())
    assert res.shape == (8,)
    # S3 is third order: the five low-order residuals vanish, the last
    # three need not
    assert np.all(np.abs(res[:5]) <= 1e-12)


def test_residuals_order4_empty():
    res = residuals_order4(ProductFormula(()))
    assert res == pytest.approx([0, 0, 1, 0, 0, 0, 0, 0], abs=1e-15)


def test_residuals_order4_rejects_c_tags():
    with pytest.raises(InvalidInputError):
        residuals_order4(ProductFormula((("C", 1.0),)))
