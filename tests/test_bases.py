"""Base formulas: S2, S3, the closed-form sum+commutator coefficients."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from trotterion import (AccuracyWarning, GeneratorPair, SixGateParams, f_r, reparam, s2, s3,
                        word_sums)
from trotterion.bases import f_r_params, f_r_with_c
from trotterion.errors import DomainError, InvalidInputError

from conftest import PAULI_PAIR

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


def test_s2_structure():
    f = s2()
    assert f.steps == (("A", 1.0), ("B", 1.0), ("A", -1.0), ("B", -1.0))
    assert f.claimed_order == 2
    assert f.gate_count() == 4


def test_s3_structure():
    f = s3()
    assert f.gate_count() == 6
    assert f.claimed_order == 3
    root5 = math.sqrt(5.0)
    coeffs = [c for _, c in f.steps]
    assert coeffs[0] == pytest.approx((root5 - 1.0) / 2.0)
    assert coeffs[1] == pytest.approx((root5 - 1.0) / 2.0)
    assert coeffs[2] == pytest.approx(-1.0)
    assert coeffs[3] == pytest.approx(-(root5 + 1.0) / 2.0)
    assert coeffs[4] == pytest.approx((3.0 - root5) / 2.0)
    assert coeffs[5] == pytest.approx(1.0)
    tags = [t for t, _ in f.steps]
    assert tags == ["A", "B", "A", "B", "A", "B"]


def test_s3_reparam_is_pure_commutator():
    root5 = math.sqrt(5.0)
    params = SixGateParams((root5 - 1.0) / 2.0, (root5 - 1.0) / 2.0, -1.0,
                           -(root5 + 1.0) / 2.0, (3.0 - root5) / 2.0, 1.0)
    rp = reparam(params)
    assert abs(rp.l) <= 1e-12
    assert abs(rp.m) <= 1e-12
    assert abs(rp.q + 1.0) <= 1e-12
    assert abs(rp.r) <= 1e-12
    assert abs(rp.s) <= 1e-12


def test_s3_approximates_commutator_exponential():
    comm = PAULI_PAIR.a @ PAULI_PAIR.b - PAULI_PAIR.b @ PAULI_PAIR.a
    for x in (0.05, 0.1):
        got = s3().evaluate(PAULI_PAIR, x)
        want = scipy.linalg.expm(x * x * comm)
        assert np.linalg.norm(got - want, 2) <= 3.0 * x**4


def test_reparam_matches_word_sums():
    # for A-leading alternating 6-gate words: ba = q, aba = r, bab = s
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = SixGateParams(*rng.uniform(-2.0, 2.0, size=6))
        rp = reparam(params)
        ws = word_sums(params.as_formula())
        assert ws.a == pytest.approx(rp.l, abs=1e-12)
        assert ws.b == pytest.approx(rp.m, abs=1e-12)
        assert ws.ba == pytest.approx(rp.q, abs=1e-12)
        assert ws.aba == pytest.approx(rp.r, abs=1e-12)
        assert ws.bab == pytest.approx(rp.s, abs=1e-12)


def test_f_r_params_closed_form_identities():
    for R in (4.0, 7.5, 10.0, 50.0):
        params = f_r_params(R)
        rp = reparam(params)
        u = math.sqrt(R + 0.5)
        assert abs(rp.l - 1.0) <= 1e-12
        assert abs(rp.m - 1.0) <= 1e-12
        assert abs(rp.q - (0.5 - R)) <= 1e-12 * max(1.0, R)
        want_r = -(GOLDEN - 1.0) * (R + 0.5 - u)
        assert rp.r == pytest.approx(want_r, rel=1e-12)
        assert rp.s == pytest.approx(-want_r, rel=1e-12)
        assert params.p6 == pytest.approx(u, rel=1e-15)


def test_f_r_params_domain_and_warning():
    with pytest.raises(DomainError):
        f_r_params(-0.5)
    with pytest.raises(DomainError):
        f_r_params(-3.0)
    for R in (math.inf, math.nan):  # an R that overflowed gives no coefficients
        with pytest.raises(InvalidInputError, match="step coefficients must be finite"):
            f_r_params(R)
    with pytest.warns(AccuracyWarning):
        f_r_params(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        f_r_params(4.0)  # at the floor: no warning


def test_f_r_formula_shape():
    f = f_r(10.0)
    assert f.gate_count() == 6
    assert f.claimed_order == 3
    assert "10" in f.label
    tags = [t for t, _ in f.steps]
    assert tags == ["A", "B", "A", "B", "A", "B"]


def test_f_r_one_step_error_is_third_order():
    R = 10.0
    f = f_r(R)
    a, b = PAULI_PAIR.a, PAULI_PAIR.b
    comm = a @ b - b @ a

    def err(x):
        want = scipy.linalg.expm(x * (a + b) + R * x * x * comm)
        return np.linalg.norm(f.evaluate(PAULI_PAIR, x) - want, 2)

    # halving x divides an O(x^3) error by about 8
    ratio = err(2e-3) / err(1e-3)
    assert 6.5 <= ratio <= 9.5


def test_f_r_with_c_prepends_unit_c_step():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        f = f_r_with_c(0.8)
        plain = f_r(0.8)
    assert f.steps[0] == ("C", 1.0)
    assert f.steps[1:] == plain.steps
    assert f.claimed_order == 1
    # with C bound to the zero matrix the two formulas evaluate identically
    zero_c = GeneratorPair(PAULI_PAIR.a, PAULI_PAIR.b, np.zeros((2, 2)))
    x = 0.07
    assert np.allclose(f.evaluate(zero_c, x), plain.evaluate(PAULI_PAIR, x),
                       atol=1e-15)


def test_six_gate_params_round_trip():
    params = SixGateParams(0.1, -0.2, 0.3, -0.4, 0.5, -0.6)
    assert params.as_tuple() == (0.1, -0.2, 0.3, -0.4, 0.5, -0.6)
    f = params.as_formula(label="probe", claimed_order=1)
    assert f.label == "probe"
    assert [c for _, c in f.steps] == list(params.as_tuple())
