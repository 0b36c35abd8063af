"""Certification: scans, log-log fits, BCH extraction, accuracy searches."""

import math
import random
import warnings

import numpy as np
import pytest
import scipy.linalg

from trotterion import (AccuracyWarning, GeneratorPair, ProductFormula, commutator,
                        concat, f_r, pure_commutator_library, s2, s3, repeat)
from trotterion.certify import (DEFAULT_XS, NOISE_FLOOR, BCHCoefficients,
                                _repeat_gate_count, commutator_target, error_scan,
                                extract_bch, fit_loglog, gates_to_accuracy,
                                step_count_scan, sum_commutator_target)
from trotterion.errors import (BudgetExceededError, DegenerateScanError,
                               InvalidInputError)

from conftest import PAULI_PAIR

PAULI_COMM = commutator(PAULI_PAIR.a, PAULI_PAIR.b)
# the upper half of the default grid
UPPER_WINDOW = (DEFAULT_XS[10], DEFAULT_XS[-1])


def test_default_grid_shape():
    assert len(DEFAULT_XS) == 20
    assert DEFAULT_XS[0] == pytest.approx(0.01)
    assert DEFAULT_XS[-1] == pytest.approx(0.1)
    assert all(b > a for a, b in zip(DEFAULT_XS, DEFAULT_XS[1:]))


def test_fit_loglog_exact_power_law():
    xs = np.geomspace(0.01, 0.1, 12)
    rows = [(x, 3.0 * x**4) for x in xs]
    slope, intercept = fit_loglog(rows, None)
    assert slope == pytest.approx(4.0, abs=1e-10)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-10)


def test_fit_loglog_window_and_degenerate():
    rows = [(0.01, 1e-8), (0.02, 1e-7), (0.5, 42.0)]
    slope_all, _ = fit_loglog(rows, None)
    slope_win, _ = fit_loglog(rows, (0.005, 0.1))
    assert slope_win != pytest.approx(slope_all)
    assert fit_loglog([(0.1, 1e-3)], None) == (None, None)
    assert fit_loglog([(0.1, 0.0), (0.2, 0.0)], None) == (None, None)


def test_targets_shapes():
    t = commutator_target(PAULI_PAIR)
    assert np.allclose(t(0.2), scipy.linalg.expm(0.04 * PAULI_COMM), atol=1e-13)
    u = sum_commutator_target(PAULI_PAIR, 2.0)
    want = scipy.linalg.expm(0.2 * (PAULI_PAIR.a + PAULI_PAIR.b)
                             + 2.0 * 0.04 * PAULI_COMM)
    assert np.allclose(u(0.2), want, atol=1e-13)


def test_error_scan_s3_slope():
    result = error_scan(s3(), PAULI_PAIR, window=(0.02, 0.1))
    assert result.slope == pytest.approx(4.001, abs=0.05)
    assert len(result.rows) == 20
    assert result.target == "commutator"
    assert all(e > 0 for _, e in result.rows)


def test_error_scan_validates_grid():
    with pytest.raises(InvalidInputError):
        error_scan(s3(), PAULI_PAIR, xs=[0.1, 0.05])
    with pytest.raises(InvalidInputError):
        error_scan(s3(), PAULI_PAIR, xs=[-0.1, 0.05])
    with pytest.raises(InvalidInputError):
        error_scan(s3(), PAULI_PAIR, xs=[])
    with pytest.raises(InvalidInputError):
        error_scan(s3(), PAULI_PAIR, target="sum-commutator")  # missing R


def test_step_count_scan_noise_floor_grows_with_n():
    # an n-step product accumulates about n roundings
    with pytest.raises(DegenerateScanError):
        step_count_scan(lambda n: 0.9 * n * NOISE_FLOOR)
    assert step_count_scan(lambda n: 2.0 * n * NOISE_FLOOR).slope == pytest.approx(1.0)


def test_fit_stability_under_grid_doubling():
    dense = np.geomspace(0.01, 0.1, 40)
    for name, f in pure_commutator_library().items():
        base = error_scan(f, PAULI_PAIR, window=UPPER_WINDOW)
        doubled = error_scan(f, PAULI_PAIR, xs=dense, window=UPPER_WINDOW)
        assert abs(base.slope - doubled.slope) < 0.02, name


def test_extract_bch_s3_and_s2():
    got = extract_bch(s3(), PAULI_PAIR)
    assert isinstance(got, BCHCoefficients)
    assert np.linalg.norm(got.order1, 2) <= 1e-8
    assert np.linalg.norm(got.order2 - PAULI_COMM, 2) <= 1e-6
    assert np.linalg.norm(got.order3, 2) <= 1e-6
    # S2 is only second order: its x^3 log coefficient survives
    got2 = extract_bch(s2(), PAULI_PAIR)
    assert np.linalg.norm(got2.order2 - PAULI_COMM, 2) <= 1e-6
    assert np.linalg.norm(got2.order3, 2) > 1e-3


def test_extract_bch_linear_in_generators():
    doubled = GeneratorPair(2.0 * PAULI_PAIR.a, PAULI_PAIR.b)
    base = extract_bch(s3(), PAULI_PAIR)
    scaled = extract_bch(s3(), doubled)
    assert np.linalg.norm(scaled.order2 - 2.0 * base.order2, 2) <= 1e-6


def test_extract_bch_f_r_sum_terms():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        f = f_r(6.0)
    got = extract_bch(f, PAULI_PAIR)
    want1 = PAULI_PAIR.a + PAULI_PAIR.b
    assert np.linalg.norm(got.order1 - want1, 2) <= 1e-6
    assert np.linalg.norm(got.order2 - 6.0 * PAULI_COMM, 2) <= 1e-5 * 6.0


def test_extract_bch_rejects_bad_step():
    with pytest.raises(InvalidInputError):
        extract_bch(s3(), PAULI_PAIR, step=0.0)


def test_gates_to_accuracy_monotone_and_sufficient():
    x = 0.2
    f = s3()
    prev_r = 0
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        r, gates = gates_to_accuracy(f, PAULI_PAIR, x, eps)
        assert r >= prev_r
        prev_r = r
        err = np.linalg.norm(repeat(f, r).evaluate(PAULI_PAIR, x)
                             - scipy.linalg.expm(x * x * PAULI_COMM), 2)
        assert err <= eps
        assert gates == repeat(f, r).gate_count()
    with pytest.raises(BudgetExceededError):
        gates_to_accuracy(f, PAULI_PAIR, 0.3, 1e-30, cap=64)
    with pytest.raises(InvalidInputError):
        gates_to_accuracy(f, PAULI_PAIR, 0.3, -1.0)


def test_repeat_gate_count_is_exact():
    rng = random.Random(5)

    def word(length):
        return ProductFormula(tuple((rng.choice("AB"), rng.choice((-1, 1)) * rng.choice(
            (0.5, 1.0, 1.5, rng.uniform(0.1, 2.0)))) for _ in range(length)))

    formulas = list(pure_commutator_library().values()) + [s2(), s3()]
    formulas += [word(rng.randint(1, 8)) for _ in range(150)]
    for _ in range(150):  # P x P^-1: the junctions cancel and the middles merge
        p = word(rng.randint(1, 5))
        formulas.append(concat([p, word(rng.randint(1, 3)), p.inverse()]))
    for f in formulas:
        for r in (1, 2, 3, 4, 5, 7, 16, 33):
            assert _repeat_gate_count(f, r) == repeat(f, r).gate_count(), (f.steps, r)


def test_repeat_error_decreases_at_large_argument():
    # at x = 1 the repeated-formula error falls with r, and at budgets past
    # ~200 gates the 56-gate formula sits at or below the 22-gate baseline's
    # log-log interpolated curve
    target = scipy.linalg.expm(PAULI_COMM)

    def err(f, r):
        return np.linalg.norm(repeat(f, r).evaluate(PAULI_PAIR, 1.0) - target, 2)

    for f in pure_commutator_library().values():
        if f.gate_count() < 20:
            continue  # the low-order bases are not part of the comparison
        errors = [err(f, r) for r in range(1, 9)]
        if f.label in ("Q5", "V4t"):
            # these two are still pre-asymptotic at x = 1: small local bumps
            # appear before the curve settles into its decay, so require a
            # net drop over 1..8 plus clean decay once r is large
            assert errors[-1] < errors[0], f.label
            tail = [err(f, r) for r in (16, 32, 64)]
            assert tail[2] < tail[1] < tail[0] < min(errors), f.label
        else:
            assert all(b < a for a, b in zip(errors, errors[1:])), f.label

    lib = pure_commutator_library()
    v4, g = lib["V4t"], lib["G5"]
    v_budget, v_err = zip(*[(repeat(v4, r).gate_count(), err(v4, r))
                            for r in range(1, 25)])
    for r in range(4, 9):
        budget = repeat(g, r).gate_count()
        if budget < 200:
            continue
        v_at_budget = np.interp(np.log(budget), np.log(v_budget), np.log(v_err))
        assert err(g, r) <= math.exp(v_at_budget) * 1.05


def test_sum_and_commutator_cost_matches_pure_commutator():
    # one-step error of the 6-gate sum+commutator formula falls with n at
    # the same empirical rate as the pure-commutator 6-gate base
    alpha, beta = 1.0, 0.5
    a, b = PAULI_PAIR.a, PAULI_PAIR.b
    rows_sum, rows_pure = [], []
    for n in (16, 32, 64, 128, 256):
        x = alpha / n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            f = f_r(beta * n / alpha**2)
        want = scipy.linalg.expm(x * (a + b) + (beta / n) * PAULI_COMM)
        rows_sum.append((n, np.linalg.norm(f.evaluate(PAULI_PAIR, x) - want, 2)))
        y = math.sqrt(beta / n)
        want_pure = scipy.linalg.expm((beta / n) * PAULI_COMM)
        rows_pure.append((n, np.linalg.norm(s3().evaluate(PAULI_PAIR, y)
                                            - want_pure, 2)))
    slope_sum, _ = fit_loglog(rows_sum, None)
    slope_pure, _ = fit_loglog(rows_pure, None)
    assert abs(slope_sum - slope_pure) <= 0.15
