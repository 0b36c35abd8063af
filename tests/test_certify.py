"""Certification: scans, log-log fits, BCH extraction, accuracy searches."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from trotterion import (AccuracyWarning, GeneratorPair, ProductFormula, commutator,
                        concat, f_r, pure_commutator_library, s2, s3, repeat)
from trotterion import certify, formula, matcore
from trotterion.apps import ChainConfig, KMConfig, chain_hoppings, chain_simulate, km_simulate
from trotterion.apps import chain as chain_module
from trotterion.apps import common as common_module
from trotterion.apps import km as km_module
from trotterion.bases import SixGateParams, f_r_with_c, reparam
from trotterion.certify import (DEFAULT_XS, NOISE_FLOOR, BCHCoefficients, _matrix_powers,
                                _repeat_gate_count, _targets, error_scan, extract_bch,
                                fit_loglog, gates_to_accuracy, step_count_scan, step_grid)
from trotterion.errors import (BudgetExceededError, DegenerateScanError,
                               InvalidInputError)
from trotterion.recursion import apply_scheme

from conftest import PAULI_PAIR, SIGMA_X, SIGMA_Z, word_sum

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
    t = _targets(PAULI_PAIR, [0.2])
    assert t.shape == (1, 2, 2)
    assert np.allclose(t[0], scipy.linalg.expm(0.04 * PAULI_COMM), atol=1e-13)
    u = _targets(PAULI_PAIR, [0.2], R=2.0)
    want = scipy.linalg.expm(0.2 * (PAULI_PAIR.a + PAULI_PAIR.b)
                             + 2.0 * 0.04 * PAULI_COMM)
    assert np.allclose(u[0], want, atol=1e-13)


def test_targets_of_a_vector_stack_the_scalar_targets():
    xs = [0.01, 0.2, 0.75]
    for R in (None, 2.5):
        stack = _targets(PAULI_PAIR, xs, R)
        assert stack.shape == (3, 2, 2)
        for k, x in enumerate(xs):
            assert np.array_equal(stack[k], _targets(PAULI_PAIR, [x], R)[0])


@pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan])
def test_sum_commutator_target_refuses_non_finite_weight(R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="R must be finite"):
            error_scan(f_r(6.0), PAULI_PAIR, target="sum-commutator", R=R)
        # the weight is refused before the grid is read
        with pytest.raises(InvalidInputError, match="R must be finite"):
            error_scan(f_r(6.0), PAULI_PAIR, xs=[0.2, 0.1], target="sum-commutator", R=R)


def test_error_scan_matches_one_point_at_a_time():
    for target, R in (("commutator", None), ("sum-commutator", 6.0)):
        f = pure_commutator_library()["G5"] if R is None else f_r(R)
        result = error_scan(f, PAULI_PAIR, target=target, R=R)
        for x, e in result.rows:
            want = _targets(PAULI_PAIR, [x], R)[0]
            assert e == matcore.spectral_norm(f.evaluate(PAULI_PAIR, x) - want)
    with pytest.raises(InvalidInputError, match="unknown scan target"):
        error_scan(s3(), PAULI_PAIR, target=_targets)


def test_error_scan_fit_leaves_out_rows_at_the_rounding_floor():
    g5 = pure_commutator_library()["G5"]
    twice = apply_scheme("g10", g5)
    thrice = apply_scheme("g10", twice)
    # the library formulas keep every row: G5's lowest error is 6.5 times
    # its floor of 56 eps
    for f in pure_commutator_library().values():
        rows = error_scan(f, PAULI_PAIR).rows
        assert min(e for _, e in rows) > len(f) * np.finfo(float).eps, f.label
    floor = len(twice) * np.finfo(float).eps
    result = error_scan(twice, PAULI_PAIR)
    assert len(result.rows) == 20 and any(e <= floor for _, e in result.rows)
    kept = [(x, e) for x, e in result.rows if e > floor]
    assert result.slope == fit_loglog(kept, result.fit_window)[0]
    assert result.slope == pytest.approx(8.0, abs=0.05)  # order 7, not rounding
    with pytest.raises(DegenerateScanError):
        error_scan(thrice, PAULI_PAIR)
    # a one-point scan has no fit, floor or not
    assert error_scan(thrice, PAULI_PAIR, xs=[0.01]).slope is None


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
    # the commutator target, the default, has no weight: an R is refused, not ignored
    with pytest.raises(InvalidInputError, match="takes no weight R"):
        error_scan(s3(), PAULI_PAIR, R=3.0)
    with pytest.raises(InvalidInputError, match="takes no weight R"):
        error_scan(s3(), PAULI_PAIR, target="commutator", R=3.0)


def test_step_count_scan_noise_floor_grows_with_n():
    # an n-step product accumulates about n roundings
    grid = step_grid()
    with pytest.raises(DegenerateScanError):
        step_count_scan(grid, [0.9 * n * NOISE_FLOOR for n in grid])
    result = step_count_scan(grid, [2.0 * n * NOISE_FLOOR for n in grid])
    assert result.slope == pytest.approx(1.0)


def test_malformed_grids_are_refused_before_any_target_or_step(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built before the grid was checked")

    monkeypatch.setattr(matcore, "expm", fail)
    monkeypatch.setattr(common_module, "expm", fail)
    monkeypatch.setattr(ProductFormula, "evaluate", fail)
    monkeypatch.setattr(chain_module, "f_r_signed", fail)
    monkeypatch.setattr(km_module, "f_r_with_c", fail)
    for xs in ([], [0.1, 0.05], [0.1, 0.1], [0.0, 0.1], [math.nan]):
        for target, R in (("commutator", None), ("sum-commutator", 6.0)):
            with pytest.raises(InvalidInputError, match="scan grid"):
                error_scan(s3(), PAULI_PAIR, xs=xs, target=target, R=R)
    chain = ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0)
    lattice = KMConfig(Lx=4, Ly=4, J=1.0, phi=math.pi / 2, T=1.0)
    for ns in ([], [16, 8], [8, 8], [0, 8], [-1], [10**400]):
        with pytest.raises(InvalidInputError, match="scan grid|float range"):
            step_grid(ns)
        with pytest.raises(InvalidInputError, match="scan grid|float range"):
            chain_simulate(chain, ns=ns)
        with pytest.raises(InvalidInputError, match="scan grid|float range"):
            km_simulate(lattice, ns=ns)


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


def test_extract_bch_is_the_string_keyed_word_sum():
    # the stacked G_w and sums against one word at a time, then the same
    # log terms: equal to the last bit, on two and three letters
    rng = np.random.default_rng(37)
    four = GeneratorPair(*(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                           for _ in range(3)))
    cases = [(f, PAULI_PAIR) for f in pure_commutator_library().values()]
    cases.append((f_r_with_c(1.3), four))
    for f, gens in cases:
        _, p1, p2, p3 = word_sum(f, gens, 3)
        want = (p1, p2 - p1 @ p1 / 2.0, p3 - (p1 @ p2 + p2 @ p1) / 2.0 + p1 @ p1 @ p1 / 3.0)
        got = extract_bch(f, gens)
        for name, w in zip(("order1", "order2", "order3"), want):
            assert np.array_equal(getattr(got, name), w), (f.label, name)


def _random_anti_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g - g.conj().T
    return m / np.linalg.norm(m, 2)


def test_extract_bch_matches_closed_forms_to_rounding():
    # criterion 05's formulas and generators, held to 1e-12 where the
    # criterion asks 1e-6
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        params = SixGateParams(*rng.uniform(-1.5, 1.5, size=6))
        ga, gb = (_random_anti_hermitian(rng, 3) for _ in range(2))
        bch = extract_bch(params.as_formula(), GeneratorPair(ga, gb))
        rp = reparam(params)
        want = (rp.l * ga + rp.m * gb,
                0.5 * (rp.l * rp.m - 2.0 * rp.q) * commutator(ga, gb),
                (rp.l**2 * rp.m / 2.0 - 3.0 * rp.r) / 6.0 * commutator(ga, commutator(ga, gb))
                + (rp.m**2 * rp.l / 2.0 - 3.0 * rp.s) / 6.0 * commutator(gb, commutator(gb, ga)))
        for got, w in zip((bch.order1, bch.order2, bch.order3), want):
            worst = max(worst, np.linalg.norm(got - w, 2) / max(np.linalg.norm(w, 2), 1e-6))
    assert worst <= 1e-12


@pytest.mark.parametrize("scale", [1000.0, 3000.0, 10000.0])
def test_extract_bch_at_large_generator_norm(scale):
    gens = GeneratorPair(scale * PAULI_PAIR.a, scale * PAULI_PAIR.b)
    got = extract_bch(s3(), gens)
    comm = commutator(gens.a, gens.b)
    assert np.linalg.norm(got.order1, 2) <= 1e-12 * scale
    assert np.linalg.norm(got.order2 - comm, 2) <= 1e-12 * np.linalg.norm(comm, 2)


def test_extract_bch_refuses_word_products_that_overflow():
    gens = GeneratorPair(1e200 * SIGMA_X, 1e200 * SIGMA_Z)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match="^BCH word products overflow$"):
            extract_bch(s3(), gens)
    assert caught == []
    # where warnings are errors, the same refusal and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^BCH word products overflow$"):
            extract_bch(s3(), gens)


def test_extract_bch_takes_no_exponential_or_log(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matcore, "expm", counted("expm", matcore.expm))
    monkeypatch.setattr(matcore, "logm_near_identity",
                        counted("logm", matcore.logm_near_identity))
    monkeypatch.setattr(ProductFormula, "evaluate",
                        counted("evaluate", ProductFormula.evaluate))
    general = GeneratorPair([[1, 2], [0, 1]], np.ones((2, 2)), np.diag([1.0, -1.0]))
    got = extract_bch(s3(), general)
    assert np.linalg.norm(got.order2 - commutator(general.a, general.b), 2) <= 1e-13
    got = extract_bch(ProductFormula((("A", 1.0), ("C", 1.0))), general)
    assert np.linalg.norm(got.order1 - general.a - general.c, 2) <= 1e-15
    assert np.linalg.norm(got.order2 - commutator(general.a, general.c) / 2.0, 2) <= 1e-15
    extract_bch(s3(), PAULI_PAIR)
    assert calls == []


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


def reference_gates(f, gens, x, eps, cap=10**6):
    """Doubling, then bisection, one repetition count at a time."""
    target = _targets(gens, [x])[0]

    def err(r):
        step = f.evaluate(gens, x / math.sqrt(r))
        with np.errstate(all="ignore"):
            power = np.linalg.matrix_power(step, r)
        return matcore.spectral_norm(power - target)

    return reference_search(f, err, eps, cap)


def reference_search(f, err, eps, cap):
    """Doubling, then bisection, over the errors err(r), one r at a time."""
    r = 1
    while err(r) > eps:
        r *= 2
        if r > cap:
            raise BudgetExceededError(f"no repetition count up to {cap} reaches eps={eps}")
    lo, hi = max(1, r // 2), r
    while lo < hi:
        mid = (lo + hi) // 2
        if err(mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo, _repeat_gate_count(f, lo)


def outcome(search, *args, **kwargs):
    """What a search returns, or the type and message of what it raises."""
    try:
        return search(*args, **kwargs)
    except (BudgetExceededError, InvalidInputError) as exc:
        return type(exc), str(exc)


def test_gates_search_matches_doubling_and_bisection():
    # near eps = 1e-10 and at large r, rounding makes the error
    # non-monotone in r, so only the same bisection path gives the same r
    formulas = list(pure_commutator_library().values())
    formulas.append(apply_scheme("q4", apply_scheme("q4", s3())))
    found = 0
    for f in formulas:
        for x in np.arange(1, 11) * 0.05:
            for eps in (1e-4, 1e-6, 1e-8, 1e-10):
                want = outcome(reference_gates, f, PAULI_PAIR, x, eps)
                assert outcome(gates_to_accuracy, f, PAULI_PAIR, x, eps) == want, (f.label, x, eps)
                found += isinstance(want[0], int)
    assert found > 250


def test_gates_search_takes_three_passes_for_the_g5_example(monkeypatch):
    # the README's G5 search: each round sends the r it answered from the
    # log-log guess to one power_errors pass, and the fourth round lacks none
    sizes = []
    real = certify.power_errors

    def counted(gens, steps, xs, powers, target):
        sizes.append(len(powers))
        return real(gens, steps, xs, powers, target)

    monkeypatch.setattr(certify, "power_errors", counted)
    f = pure_commutator_library()["G5"]
    assert gates_to_accuracy(f, PAULI_PAIR, 0.3, 1e-8) == reference_gates(f, PAULI_PAIR, 0.3, 1e-8)
    assert sizes == [4, 11, 2]


def test_gates_search_meets_scripted_errors_as_one_r_at_a_time(monkeypatch):
    # errors off a power law by up to 10^3 either way, and refused rows at
    # random r: a guess goes wrong often, yet the rounds give the r, or
    # raise the refusal, that the search one r at a time does
    rng = random.Random(24)
    f = s3()
    for _ in range(300):
        c, p, amp = 10 ** rng.uniform(-3, 3), rng.uniform(0.5, 6), rng.choice([0.1, 1, 3])
        noise = {r: 10 ** rng.uniform(-amp, amp) for r in range(1, 2049)}
        eps, cap = 10 ** rng.uniform(-10, 1), rng.choice([7, 100, 2048])
        # refused rows about where the errors cross eps, or at a rung
        crossing = math.log2(max(c / eps, 1.0)) / p
        bad = {rng.choice([round(2 ** (crossing + rng.uniform(-1, 1))), 2 ** rng.randint(0, 11)])
               for _ in range(rng.randint(0, 3))}

        def err(r):
            if r in bad:
                raise InvalidInputError(f"row {r}")
            return c * r ** -p * noise[r]

        def scripted(gens, steps, xs, powers, target):
            refusals = [InvalidInputError(f"row {n}") if n in bad else None for n in powers]
            return [math.inf if n in bad else err(n) for n in powers], refusals

        monkeypatch.setattr(certify, "power_errors", scripted)
        got = outcome(gates_to_accuracy, f, PAULI_PAIR, 0.1, eps, cap=cap)
        assert got == outcome(reference_search, f, err, eps, cap)


def test_matrix_powers_are_matrix_power_bit_for_bit():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        g = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
        steps = matcore.expm(0.3 * (g - np.swapaxes(g.conj(), -1, -2)))
        ns = [1, 2, 3, 4, 5, 6, 7, 3] + [int(n) for n in rng.integers(1, 5000, size=32)]
        powers = _matrix_powers(steps, ns)
        for step, n, power in zip(steps, ns, powers):
            assert np.array_equal(power, np.linalg.matrix_power(step, n)), (dim, n)


def test_gates_search_at_small_caps():
    f = pure_commutator_library()["G5"]
    r, _ = gates_to_accuracy(f, PAULI_PAIR, 0.3, 1e-8)
    assert 64 < r <= 128
    # the rungs run up to 64 below a cap of 128, and r lies past rung 64
    for cap in (-1, 0, 1, 16, 127):
        with pytest.raises(BudgetExceededError):
            gates_to_accuracy(f, PAULI_PAIR, 0.3, 1e-8, cap=cap)
    assert gates_to_accuracy(f, PAULI_PAIR, 0.3, 1e-8, cap=128) == (r, _repeat_gate_count(f, r))
    assert gates_to_accuracy(f, PAULI_PAIR, 0.1, 1e-3, cap=0)[0] == 1
    # the empty formula is the identity at every r
    for eps in (1.0, 1e-3):
        got = outcome(gates_to_accuracy, ProductFormula(()), PAULI_PAIR, 0.3, eps, cap=64)
        assert got == outcome(reference_gates, ProductFormula(()), PAULI_PAIR, 0.3, eps, cap=64)
    assert got[0] is BudgetExceededError


@pytest.mark.parametrize("eps", [1e30, 1e-3])
def test_gates_search_with_overflowing_later_rungs(eps):
    # e^{x sqrt(r) A} grows without bound in r: from r = 256 the power
    # overflows. At eps = 1e30 r = 1 passes and no later rung may raise; at
    # 1e-3 every rung fails up to the overflowing one, which raises as the
    # search one r at a time does
    gens = GeneratorPair(50.0 * np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = ProductFormula((("A", 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(gates_to_accuracy, f, gens, 1.0, eps)
    assert got == outcome(reference_gates, f, gens, 1.0, eps)
    assert got == ((1, 1) if eps > 1.0 else (InvalidInputError, "matrix contains non-finite entries"))


@pytest.mark.parametrize("scale,f,eps,want", [
    # the step at r = 1 overflows: e^{800 Z} itself, or at scale 400 only
    # the product e^{400 Z} e^X e^{-400 Z} e^{-X}; the pass that holds
    # r = 1 refuses it as r = 1 alone does
    pytest.param(800.0, s2(), 1e30, (InvalidInputError, "matrix exponential overflows"),
                 id="exponential-1e30"),
    pytest.param(800.0, s2(), 1e-3, (InvalidInputError, "matrix exponential overflows"),
                 id="exponential-1e-3"),
    pytest.param(400.0, s2(), 1e30, (InvalidInputError, "product of exponentials overflows"),
                 id="product-1e30"),
    pytest.param(400.0, s2(), 1e-3, (InvalidInputError, "product of exponentials overflows"),
                 id="product-1e-3"),
    # r = 1 passes; the first pass also holds r = 4, whose power e^{800 Z}
    # overflows, but the search never reads it
    pytest.param(400.0, ProductFormula((("A", 1.0),)), 1e300, (1, 1), id="unread-power"),
])
def test_gates_search_raises_only_what_one_r_at_a_time_raises(scale, f, eps, want):
    gens = GeneratorPair(scale * SIGMA_Z, SIGMA_X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(gates_to_accuracy, f, gens, 1.0, eps)
    assert got == outcome(reference_gates, f, gens, 1.0, eps)
    assert got == want


def _chain_pair(L):
    h0, h1 = chain_hoppings(ChainConfig(L=L, t1=1.0, t2=0.5, T=1.0))
    return GeneratorPair(1j * h0, 1j * h1)


def test_scan_and_ladder_memory_stay_under_the_cap():
    # 200 points of 64 modes are 13 MB a stack; the chunks hold a few
    # stacks of 8 points. The 64-mode chain and 8x8 lattice take their
    # default grids of six step counts in one pass
    gens = _chain_pair(64)
    f = s3()
    f.evaluate(gens, 0.1)  # builds and keeps both spectra
    tracemalloc.start()
    try:
        error_scan(f, gens, xs=np.linspace(0.01, 0.5, 200))
        _, scan_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(BudgetExceededError):  # all 20 rungs of the ladder
            gates_to_accuracy(f, gens, 0.3, 1e-300, cap=2**19)
        _, ladder_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        chain_simulate(ChainConfig(L=64, t1=1.0, t2=0.5, T=1.0))
        _, chain_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        km_simulate(KMConfig(Lx=8, Ly=8, J=1.0, phi=math.pi / 2, T=1.0))
        _, km_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan_peak < formula.EVALUATION_BYTES
    assert ladder_peak < formula.EVALUATION_BYTES
    assert chain_peak < formula.EVALUATION_BYTES
    assert km_peak < formula.EVALUATION_BYTES


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
