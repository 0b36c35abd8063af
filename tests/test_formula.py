"""Formula algebra: evaluation order, inverse, simplify, word sums, JSON."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from trotterion import (GeneratorPair, ProductFormula, apply_scheme, concat,
                        from_json, pure_commutator_library, repeat, s2, s3,
                        to_json, word_sums)
from trotterion.bases import f_r_with_c
from trotterion.errors import InvalidInputError
from trotterion.formula import MAX_STEPS, _pairwise_product, copy_product, word_series

from conftest import PAULI_PAIR, bits

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def random_pair(rng, dim, scale=1.0):
    def anti(m):
        k = (m - m.conj().T) / 2.0
        return scale * k / max(np.linalg.norm(k, 2), 1e-30)
    a = anti(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    b = anti(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return GeneratorPair(a, b)


def random_formula(rng, n_steps):
    steps = tuple(("AB"[int(rng.integers(2))], float(rng.uniform(-2, 2)))
                  for _ in range(n_steps))
    return ProductFormula(steps)


def test_evaluate_is_left_to_right():
    f = ProductFormula((("A", 1.0), ("B", 2.0)))
    x = 0.3
    want = scipy.linalg.expm(x * PAULI_PAIR.a) @ scipy.linalg.expm(2 * x * PAULI_PAIR.b)
    assert np.allclose(f.evaluate(PAULI_PAIR, x), want, atol=1e-13)
    # order matters for noncommuting generators
    flipped = ProductFormula((("B", 2.0), ("A", 1.0)))
    assert not np.allclose(flipped.evaluate(PAULI_PAIR, x), want, atol=1e-6)


def test_evaluate_at_zero_is_identity():
    assert np.allclose(s3().evaluate(PAULI_PAIR, 0.0), np.eye(2), atol=1e-15)


def test_inverse_reverses_and_negates():
    f = ProductFormula((("A", 1.0), ("B", -0.5)))
    assert f.inverse().steps == (("B", 0.5), ("A", -1.0))
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = random_formula(rng, int(rng.integers(1, 9)))
        gens = random_pair(rng, int(rng.integers(2, 5)))
        x = float(rng.uniform(-0.5, 0.5))
        prod = g.evaluate(gens, x) @ g.inverse().evaluate(gens, x)
        assert np.linalg.norm(prod - np.eye(gens.dim), 2) <= 1e-11


def test_scale_argument_is_exact_on_steps():
    f = ProductFormula((("A", 0.25), ("B", -1.5)))
    g = f.scale_argument(2.0)
    assert g.steps == (("A", 0.5), ("B", -3.0))
    assert np.allclose(g.evaluate(PAULI_PAIR, 0.1), f.evaluate(PAULI_PAIR, 0.2),
                       atol=1e-15)


def test_simplify_merges_and_drops():
    f = ProductFormula((("A", 1.0), ("A", 0.5), ("B", 1.0), ("B", -1.0), ("A", 2.0)))
    # the cancelled B pair drops out and the merge cascades across it
    assert f.simplify().steps == (("A", 3.5),)
    rng = np.random.default_rng(22)
    for _ in range(30):
        g = random_formula(rng, int(rng.integers(1, 12)))
        gens = random_pair(rng, 3)
        x = float(rng.uniform(-0.5, 0.5))
        dev = np.linalg.norm(g.evaluate(gens, x) - g.simplify().evaluate(gens, x), 2)
        assert dev <= 1e-12


def test_gate_count_counts_merged_steps():
    f = ProductFormula((("A", 1.0), ("A", 1.0), ("B", 1.0)))
    assert f.gate_count() == 2
    assert len(f) == 3
    assert s2().gate_count() == 4
    assert s3().gate_count() == 6


def test_trajectory_partial_sums():
    assert s2().trajectory("A") == pytest.approx([1.0, 0.0])
    want = [(math.sqrt(5.0) - 1.0) / 2.0, (math.sqrt(5.0) - 3.0) / 2.0, 0.0]
    assert s3().trajectory("A") == pytest.approx(want, abs=1e-15)
    assert s3().trajectory("B")[-1] == pytest.approx(0.0, abs=1e-15)


def test_word_sums_s3():
    ws = word_sums(s3())
    assert abs(ws.a) <= 1e-12
    assert abs(ws.b) <= 1e-12
    assert abs(ws.ba + 1.0) <= 1e-12
    assert abs(ws.aba) <= 1e-12
    assert abs(ws.bab) <= 1e-12


def test_word_sums_brute_force():
    # cross-check word_series, which word_sums reads, against direct
    # enumeration of the ordered step pairs and triples
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_formula(rng, int(rng.integers(2, 8)))
        steps = f.steps
        ws = word_sums(f)
        ba = sum(ci * cj
                 for i, (ti, ci) in enumerate(steps) if ti == "B"
                 for j, (tj, cj) in enumerate(steps) if tj == "A" and i < j)
        aba = sum(ci * cj * ck
                  for i, (ti, ci) in enumerate(steps) if ti == "A"
                  for j, (tj, cj) in enumerate(steps) if tj == "B" and i < j
                  for k, (tk, ck) in enumerate(steps) if tk == "A" and j < k)
        assert ws.ba == pytest.approx(ba, abs=1e-12)
        assert ws.aba == pytest.approx(aba, abs=1e-12)


def test_word_series_is_the_expansion_of_the_product():
    # the degree-3 truncation of the series misses f(x) by O(x^4), so each
    # halving of x cuts the remainder about 2^4-fold; C steps included
    rng = np.random.default_rng(31)
    for _ in range(10):
        mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
        gens = GeneratorPair(*mats)
        f = ProductFormula(tuple(("ABC"[int(rng.integers(3))], float(rng.uniform(-2, 2)))
                                 for _ in range(int(rng.integers(3, 9)))))
        words = {"": np.eye(3, dtype=complex)}
        p = [np.zeros((3, 3), dtype=complex) for _ in range(4)]
        for word, coeff in word_series(f, 3).items():
            if word:
                words[word] = words[word[:-1]] @ gens.matrix(word[-1])
            p[len(word)] += coeff * words[word]
        errors = [np.linalg.norm(f.evaluate(gens, x) - sum(x**k * p[k] for k in range(4)), 2)
                  for x in (0.02, 0.01, 0.005, 0.0025)]
        for big, small in zip(errors, errors[1:]):
            assert 15.0 < big / small < 17.0, (f.steps, errors)


def exact_word_series(f, degree):
    """word_series in Fraction arithmetic on the same float coefficients,
    every word updated from its prefixes, longest word first."""
    letters = sorted({tag for tag, _ in f.steps})
    words = [""]
    for length in range(degree):
        words += [w + g for w in words if len(w) == length for g in letters]
    series = dict.fromkeys(words, Fraction(0))
    series[""] = Fraction(1)
    for g, c in f.steps:
        scale = [Fraction(c) ** m / math.factorial(m) for m in range(degree + 1)]
        for w in reversed(words):
            m = 1
            while m <= len(w) and w[-m] == g:
                series[w] += series[w[:-m]] * scale[m]
                m += 1
    return series


def test_word_series_is_exact_arithmetic_up_to_rounding():
    # each coefficient is within len(f) * eps of the series of the same
    # steps with |c_i|, the scale of the sums it cancels through
    cases = list(pure_commutator_library().values())
    cases += [apply_scheme("g10", apply_scheme("g10", s3())), f_r_with_c(5.0)]
    eps = np.finfo(float).eps
    for f in cases:
        exact = exact_word_series(f, 6)
        magnitude = ProductFormula(tuple((g, abs(c)) for g, c in f.steps))
        for degree in range(3, 7):
            series = word_series(f, degree)
            scale = word_series(magnitude, degree)
            assert list(series) == [w for w in exact if len(w) <= degree]
            for word, coeff in series.items():
                error = abs(Fraction(coeff) - exact[word])
                assert error <= len(f) * eps * scale[word], (f.label, degree, word)


def test_word_series_memory_is_words_times_degree():
    # 1093 words over A, B and C; dense word operators took 264 MiB here
    f = f_r_with_c(5.0)
    tracemalloc.start()
    try:
        series = word_series(f, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series) == 1093
    assert peak < 4 << 20


@pytest.mark.parametrize("degree", [-1, 2.5, True, "3", None])
def test_word_series_rejects_a_bad_degree(degree):
    with pytest.raises(InvalidInputError):
        word_series(s3(), degree)


def test_pairwise_product_batches_over_a_leading_axis():
    rng = np.random.default_rng(41)
    stack = rng.normal(size=(3, 7, 4, 4)) + 1j * rng.normal(size=(3, 7, 4, 4))
    got = _pairwise_product(stack)
    assert got.shape == (3, 4, 4)
    for k in range(3):
        assert np.array_equal(got[k], _pairwise_product(stack[k]))
        want = np.linalg.multi_dot(list(stack[k]))
        assert np.linalg.norm(got[k] - want) <= 1e-12 * np.linalg.norm(want)


def test_word_sums_reject_c_steps():
    with pytest.raises(InvalidInputError):
        word_sums(ProductFormula((("C", 1.0),)))


def test_repeat_scales_by_inverse_sqrt():
    rng = np.random.default_rng(24)
    gens = random_pair(rng, 3)
    f = s3()
    for r in (1, 2, 4):
        x = 0.3
        per_copy = f.evaluate(gens, x / math.sqrt(r))
        want = np.linalg.matrix_power(per_copy, r)
        got = repeat(f, r).evaluate(gens, x)
        assert np.linalg.norm(got - want, 2) <= 1e-12
    with pytest.raises(InvalidInputError):
        repeat(f, 0)
    # a count must be an integer; numpy's integers are
    with pytest.raises(InvalidInputError, match="repetition count must be an integer"):
        repeat(f, 2.5)
    assert repeat(f, np.int64(2)) == repeat(f, 2)
    # the step cap of the recursion schemes, checked before any copy is built
    with pytest.raises(InvalidInputError, match="would have 1000002 steps, more than 1000000"):
        repeat(f, MAX_STEPS // len(f) + 1)


def test_repeat_linear_target_keeps_argument():
    f = ProductFormula((("A", 1.0), ("B", 1.0)))
    g = repeat(f, 3, commutator_target=False)
    # no 1/sqrt(r) scaling, and no same-tag boundaries to merge
    assert g.steps == (("A", 1.0), ("B", 1.0)) * 3


def test_concat_chains_steps():
    f = concat([s2(), s2().inverse()], label="pair", claimed_order=2)
    assert len(f.steps) == 8
    assert f.label == "pair"
    got = f.evaluate(PAULI_PAIR, 0.4)
    assert np.linalg.norm(got - np.eye(2), 2) <= 1e-12


# repeat's inputs: the library, and a formula whose copies merge at the
# boundary and whose middle step falls below the merge tolerance
REPEAT_INPUTS = [*pure_commutator_library().values(),
                 ProductFormula((("A", 0.5), ("B", 1e-15), ("A", -0.25), ("B", 2.0), ("A", 0.75)),
                                label="merges", claimed_order=2)]


@pytest.mark.parametrize("commutator_target", [True, False])
@pytest.mark.parametrize("r", range(1, 7))
def test_repeat_is_the_scaled_concat_simplified(r, commutator_target):
    # the one-pass copy product gives, bit for bit, the composition it
    # replaced: scale_argument, concat and simplify
    for f in REPEAT_INPUTS:
        copy = f.scale_argument(1.0 / math.sqrt(r)) if commutator_target else f
        want = concat([copy] * r, label=f.label, claimed_order=f.claimed_order).simplify()
        got = repeat(f, r, commutator_target=commutator_target)
        assert bits(got) == bits(want), (f.label, r)
        assert (got.label, got.claimed_order) == (want.label, want.claimed_order)


def test_copy_product_refuses_an_overflowing_copy():
    # f(1.5x) f(1.5x)^(-1) of a step near the float maximum: each scaled
    # coefficient overflows, as scale_argument refuses, though their
    # merge would cancel to nothing
    f = ProductFormula((("A", 1.7e308),))
    with pytest.raises(InvalidInputError, match="step coefficients must be finite"):
        f.scale_argument(1.5)
    with pytest.raises(InvalidInputError, match="step coefficients must be finite"):
        copy_product(f, [(1.5, False), (1.5, True)], "x", None)
    # a merge that overflows is refused as well
    with pytest.raises(InvalidInputError, match="step coefficients must be finite"):
        copy_product(f, [(1.0, False), (1.0, False)], "x", None)
    assert copy_product(ProductFormula(()), [(2.0, True)], "empty", 1).steps == ()


def json_oracle(f: ProductFormula) -> str:
    """What to_json writes, from the standard library's indented encoder."""
    return json.dumps({"label": f.label, "claimed_order": f.claimed_order,
                       "steps": [[tag, coeff] for tag, coeff in f.steps]}, indent=2)


def _g10_levels(k):
    f = s3()
    for _ in range(k):
        f = apply_scheme("g10", f)
    return f


JSON_CASES = {
    **pure_commutator_library(),
    **{f"g10^{k}(S3)": _g10_levels(k) for k in (1, 2, 3)},
    "empty": ProductFormula(()),
    "empty-ordered": ProductFormula((), label="e", claimed_order=4),
    "no-order": ProductFormula(s3().steps, label="S3"),
    "quotes": ProductFormula(s2().steps, label='say "hi"', claimed_order=2),
    "backslashes": ProductFormula(s2().steps, label="a\\b\\", claimed_order=2),
    "non-ascii": ProductFormula(s2().steps, label="\u00f1 \u2013 \u91cf\u5b50 \U0001f600"),
    "control": ProductFormula(s2().steps, label="tab\tnew\nline\r\x00\x1f\x7f\u2028"),
    "extreme-coefficients": ProductFormula((("A", -0.0), ("B", 5e-324), ("C", 1.7976931348623157e308),
                                            ("A", -1.7976931348623157e308), ("B", -5e-324))),
}


@pytest.mark.parametrize("name", JSON_CASES)
def test_to_json_is_the_standard_indented_encoding(name):
    f = JSON_CASES[name]
    assert to_json(f) == json_oracle(f)
    g = from_json(to_json(f))
    assert bits(g) == bits(f) and (g.label, g.claimed_order) == (f.label, f.claimed_order)


def test_json_round_trip_bit_exact():
    f = ProductFormula((("A", 1.0 / 3.0), ("B", -math.sqrt(2.0))), label="x",
                       claimed_order=2)
    g = from_json(to_json(f))
    assert g.steps == f.steps
    assert g.label == f.label
    assert g.claimed_order == f.claimed_order


def test_json_rejects_malformed_payloads():
    with pytest.raises(InvalidInputError):
        from_json("not json at all {")
    with pytest.raises(InvalidInputError):
        from_json("[1, 2, 3]")
    with pytest.raises(InvalidInputError):
        from_json('{"steps": [["D", 1.0]]}')
    with pytest.raises(InvalidInputError):
        from_json('{"steps": [["A", 1.0]], "claimed_order": "three"}')
    with pytest.raises(InvalidInputError, match="claimed_order must be an integer, got 3.0"):
        from_json('{"steps": [["A", 1.0]], "claimed_order": 3.0}')
    with pytest.raises(InvalidInputError,
                       match="step coefficient must be a real number, got True"):
        from_json('{"steps": [["A", true]]}')
    # text is a str, or bytes json.loads decodes; anything else is refused
    for text in (2.5, None, ["{}"]):
        with pytest.raises(InvalidInputError, match="formula JSON must be text"):
            from_json(text)
    text = to_json(s3())
    assert from_json(text.encode()) == from_json(bytearray(text.encode())) == s3()
    with pytest.raises(InvalidInputError, match="malformed formula JSON"):
        from_json(b"\x80{}")  # bytes that are not UTF-8


def test_formula_validation():
    with pytest.raises(InvalidInputError):
        ProductFormula((("A", math.inf),))
    with pytest.raises(InvalidInputError):
        ProductFormula((("Q", 1.0),))
    with pytest.raises(InvalidInputError):
        ProductFormula((("A", 1.0),), claimed_order=0)


def test_generator_pair_validation():
    with pytest.raises(InvalidInputError):
        GeneratorPair(np.eye(2), np.eye(3))
    with pytest.raises(InvalidInputError):
        GeneratorPair(np.eye(2), np.eye(2), np.eye(3))
    pair = GeneratorPair(np.eye(2), np.eye(2))
    with pytest.raises(InvalidInputError):
        pair.matrix("C")
    with pytest.raises(InvalidInputError):
        pair.matrix("Z")
    assert pair.dim == 2


def test_evaluate_requires_c_generator_only_when_used():
    f = ProductFormula((("C", 1.0),))
    pair = GeneratorPair(np.eye(2), np.eye(2))
    with pytest.raises(InvalidInputError):
        f.evaluate(pair, 0.1)
    with_c = GeneratorPair(np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert np.allclose(f.evaluate(with_c, 0.1), np.eye(2), atol=1e-15)
