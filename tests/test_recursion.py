"""Order-raising schemes: gate counts, recurrences, parity rules, promotion."""

import math

import numpy as np
import pytest

from trotterion import (SCHEMES, apply_scheme, error_scan, pure_commutator_library, s2, s3,
                        word_sums)
from trotterion.errors import InvalidInputError
from trotterion.formula import ProductFormula
from trotterion.recursion import (build_cw_sqrt6_baseline, build_g, build_q, build_v, build_w,
                                  childs_wiebe5, jean_koseleff, sum_comm_step, two_copy)

from conftest import PAULI_PAIR

FIT_WINDOW = (0.05, 0.1)


def fitted_order(f):
    result = error_scan(f, PAULI_PAIR, window=FIT_WINDOW)
    return result.slope - 1.0


def test_library_gate_counts():
    counts = {name: f.gate_count() for name, f in pure_commutator_library().items()}
    assert counts == {"S2": 4, "S3": 6, "V4t": 22, "Q5": 21, "W5": 26,
                      "V5": 32, "G5": 56}


def test_library_claimed_orders():
    orders = {name: f.claimed_order for name, f in pure_commutator_library().items()}
    assert orders == {"S2": 2, "S3": 3, "V4t": 4, "Q5": 5, "W5": 5,
                      "V5": 5, "G5": 5}


def test_gate_count_recurrences():
    # q: N -> 4N - 3
    assert build_q(pure_commutator_library()["Q5"]).gate_count() == 4 * 21 - 3
    # w: N -> 5N - 4, i.e. 5^k + 1 for k = 1, 2, 3 starting at S3
    w_counts = [6]
    f = s3()
    for _ in range(2):
        f = build_w(f)
        w_counts.append(f.gate_count())
    assert w_counts == [5**k + 1 for k in (1, 2, 3)]
    # g: N -> 5N - 2 then doubling, i.e. (5 * 10^k + 4) / 9
    g_counts = [6]
    f = s3()
    for _ in range(2):
        f = build_g(f)
        g_counts.append(f.gate_count())
    assert g_counts == [(5 * 10**k + 4) // 9 for k in (1, 2, 3)]
    # v: N -> 3N - 2 then doubling
    assert jean_koseleff(s3()).gate_count() == 3 * 6 - 2
    assert build_v(pure_commutator_library()["V5"]).gate_count() == 2 * (3 * 32 - 2)


def test_composability_g_applied_twice():
    f = build_g(build_g(s3()))
    assert f.claimed_order == 7
    assert f.gate_count() == 556


def test_two_copy_structure():
    f = two_copy(s2())
    assert f.claimed_order == 3
    root = 1.0 / math.sqrt(2.0)
    assert f.steps[0] == ("A", pytest.approx(root))
    # the B/A boundary between the copies leaves all 8 steps distinct
    assert f.gate_count() == 8
    assert fitted_order(f) >= 2.7


def test_parity_rules():
    with pytest.raises(InvalidInputError):
        two_copy(s3())
    with pytest.raises(InvalidInputError):
        childs_wiebe5(s2())
    with pytest.raises(InvalidInputError):
        build_v(s2())
    with pytest.raises(InvalidInputError):
        build_g(s2())
    with pytest.raises(InvalidInputError):
        build_cw_sqrt6_baseline(s3())
    with pytest.raises(InvalidInputError):
        two_copy(ProductFormula((("A", 1.0),)))  # no claimed order


def test_order_promotion_all_schemes():
    # empirical order of the output exceeds the input's by the claimed
    # increment, within 0.3
    base2 = fitted_order(s2())
    base3 = fitted_order(s3())
    single_step = [(two_copy(s2()), base2, 1), (jean_koseleff(s3()), base3, 1),
                   (childs_wiebe5(s3()), base3, 1)]
    double_step = [(build_q(s3()), base3, 2), (build_w(s3()), base3, 2),
                   (build_v(s3()), base3, 2), (build_g(s3()), base3, 2),
                   (build_cw_sqrt6_baseline(s2()), base2, 2)]
    for f, base, inc in single_step + double_step:
        assert fitted_order(f) >= base + inc - 0.3, f.label


def test_library_word_sums_stay_pure():
    for name, f in pure_commutator_library().items():
        ws = word_sums(f)
        assert abs(ws.a) <= 1e-12, name
        assert abs(ws.b) <= 1e-12, name
        assert abs(ws.ba + 1.0) <= 1e-10, name


def test_apply_scheme_dispatch():
    assert apply_scheme("g10", s3()).gate_count() == 56
    assert apply_scheme("q4", s3()).gate_count() == 21
    assert apply_scheme("two-copy", s2()).claimed_order == 3
    assert apply_scheme("cw-sqrt6", s2()).gate_count() == 22


def test_schemes_are_keyed_by_cli_names():
    assert list(SCHEMES) == ["two-copy", "jk", "cw5", "q4", "w5", "v6", "g10", "cw-sqrt6",
                             "sum-comm"]
    with pytest.raises(InvalidInputError):
        apply_scheme("g5", s3())


def test_named_builders_match_labels():
    lib = pure_commutator_library()
    assert {name: f.label for name, f in lib.items()} == {name: name for name in lib}
    assert lib["V4t"].claimed_order == 4


def test_childs_wiebe5_identities():
    # 4 nu^2 - mu^2 = 1 and 4 nu^(n+1) = mu^(n+1) for the n = 3 step
    n = 3
    z2 = 4.0 ** (2.0 / (n + 1))
    sigma = z2 / (4.0 * (4.0 - z2))
    nu = math.sqrt(0.25 + sigma)
    mu = math.sqrt(4.0 * sigma)
    assert 4.0 * nu * nu - mu * mu == pytest.approx(1.0, abs=1e-14)
    assert 4.0 * nu ** (n + 1) == pytest.approx(mu ** (n + 1), abs=1e-14)
    assert childs_wiebe5(s3()).gate_count() == 5 * 6 - 2


def test_sum_comm_step_coefficients():
    for m in (2, 4, 6):
        a = 1.0 / (2.0 - 2.0 ** (1.0 / (m + 1)))
        b = 2.0 ** (1.0 / (m + 1)) * a
        assert 2.0 * a - b == pytest.approx(1.0, abs=1e-14)
    assert 1.0 / (2.0 - 2.0 ** (1.0 / 3.0)) == pytest.approx(1.3512, abs=5e-5)


def test_sum_comm_step_structure():
    import warnings
    from trotterion import AccuracyWarning, f_r

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        f = f_r(10.0)
    g1 = sum_comm_step(f)  # odd order 3: f(-x/2)^(-1) f(x/2)
    assert g1.claimed_order == 4
    # the inverse's trailing A step merges with the forward's leading A step
    assert g1.gate_count() == 11
    g2 = sum_comm_step(g1)  # even order 4: f(ax) f(bx)^(-1) f(ax)
    assert g2.claimed_order == 5
