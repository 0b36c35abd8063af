"""Blocked pairwise evaluation of product formulas.

`ProductFormula.evaluate` builds each block's factors with one
exponential call per tag and multiplies them pairwise. These tests pin
it to the left-to-right product of one `matcore.expm` per factor, and
bound the memory one evaluation holds.
"""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from trotterion import f_r, formula, matcore, s2, s3
from trotterion.apps import ChainConfig, chain_hoppings
from trotterion.bases import f_r_with_c
from trotterion.errors import InvalidInputError
from trotterion.formula import GeneratorPair, ProductFormula
from trotterion.recursion import SCHEMES, apply_scheme

from conftest import PAULI_PAIR

TOL = 1e-13
XS = (0.1, -0.35, 0.8)


def reference(f: ProductFormula, gens: GeneratorPair, x: float) -> np.ndarray:
    """The steps multiplied left to right, one matcore.expm per factor."""
    out = np.eye(gens.dim, dtype=complex)
    for tag, coeff in f.steps:
        out = out @ matcore.expm((coeff * x) * gens.matrix(tag))
    return out


def assert_matches_reference(f, gens, xs=XS):
    for x in xs:
        got = f.evaluate(gens, x)
        assert got.shape == (gens.dim, gens.dim)
        assert np.linalg.norm(got - reference(f, gens, x), 2) <= TOL, (f.label, x)


def chain_pair(L: int) -> GeneratorPair:
    h0, h1 = chain_hoppings(ChainConfig(L=L, t1=1.0, t2=0.5, T=1.0))
    return GeneratorPair(1j * h0, 1j * h1)


def scheme_outputs():
    """Every scheme that accepts S2 or S3, applied to it."""
    out = []
    for base in (s2(), s3()):
        for name in SCHEMES:
            try:
                out.append(apply_scheme(name, base))
            except InvalidInputError:  # the scheme needs the other parity
                pass
    return out


def test_every_scheme_output_and_fr_match_reference():
    formulas = scheme_outputs()
    assert len(formulas) >= len(SCHEMES)
    for f in formulas + [f_r(10.0)]:
        assert_matches_reference(f, PAULI_PAIR)


def test_c_tagged_formula_matches_reference():
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gens = GeneratorPair(PAULI_PAIR.a, PAULI_PAIR.b, (c - c.conj().T) / 2.0)
    f = f_r_with_c(10.0)
    assert any(tag == "C" for tag, _ in f.steps)
    assert_matches_reference(f, gens)


def test_empty_formula_is_the_identity():
    got = ProductFormula(()).evaluate(chain_pair(8), 0.3)
    assert got.dtype == complex
    assert np.array_equal(got, np.eye(8))


def test_non_anti_hermitian_generators_match_reference():
    rng = np.random.default_rng(11)
    a, b = (0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(2))
    gens = GeneratorPair(a, b)
    assert not gens._spectra  # both generators take the Pade route
    assert_matches_reference(apply_scheme("q4", s3()), gens, xs=(0.1, -0.3))


def test_64_mode_chain_pair_matches_reference():
    gens = chain_pair(64)
    for f in (apply_scheme("g10", s3()), f_r(10.0)):
        assert_matches_reference(f, gens)


@pytest.mark.parametrize("factors", [1, 2, 3, 5, 55, 56])
def test_block_boundaries(monkeypatch, factors):
    # G5 has 56 factors: blocks of 1, 2, 3, 5 and 55 leave short last
    # blocks and odd pairwise levels; 56 is one whole block
    gens = chain_pair(4)
    monkeypatch.setattr(formula, "EVALUATION_BYTES", factors * 3 * 16 * gens.dim**2)
    assert_matches_reference(apply_scheme("g10", s3()), gens)
    # the kernel on a three-row table, whose blocks then hold a third of the
    # factors a row (at least one) over A, B and C steps
    rng = np.random.default_rng(factors)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gens = GeneratorPair(gens.a, gens.b, (c - c.conj().T) / 2.0)
    tags = ("A", "B", "A", "C", "B") * 11
    t = rng.normal(size=(3, len(tags)))
    got = formula._grouped_product(gens, ProductFormula(tuple(zip(tags, t[0]))), t)
    assert got.shape == (3, 4, 4)
    for row, product in zip(t, got):
        want = reference(ProductFormula(tuple(zip(tags, row))), gens, 1.0)
        assert np.linalg.norm(product - want, 2) <= TOL


def test_spectral_exp_of_a_vector_stacks_the_scalar_exps():
    t = np.array([0.0, 0.3, -1.7, 4.0])
    for gens in (PAULI_PAIR, chain_pair(16)):
        stack = gens.exp("A", t)
        assert stack.shape == (len(t), gens.dim, gens.dim)
        for k, tk in enumerate(t):
            assert np.linalg.norm(stack[k] - gens.exp("A", tk), 2) <= 1e-15


def test_pade_exp_of_a_vector_stacks_the_scalar_exps():
    rng = np.random.default_rng(3)
    gens = GeneratorPair(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    t = np.array([0.2, -0.5])
    stack = gens.exp("B", t)
    assert stack.shape == (2, 3, 3)
    for k, tk in enumerate(t):
        assert np.array_equal(stack[k], matcore.expm(tk * gens.b))


def test_evaluation_memory_stays_under_the_cap():
    gens = chain_pair(64)
    f = s3()
    for _ in range(3):
        f = apply_scheme("g10", f)
    assert len(f) == 5556
    f.evaluate(gens, 0.1)  # builds and keeps both spectra
    slot = 16 * gens.dim**2
    tracemalloc.start()
    try:
        f.evaluate(gens, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = formula.EVALUATION_BYTES // (3 * slot)
    assert block * slot < peak < formula.EVALUATION_BYTES + 4 * slot


def test_a_dropped_formula_leaves_nothing_behind():
    # the step layout lives on the formula and goes with it: after a
    # 50 000-step formula of a tag order no other test uses is evaluated
    # (in two blocks) and dropped, nothing built for it is still held
    rng = np.random.default_rng(29)
    steps = tuple(zip(rng.choice(["A", "B"], size=50_000).tolist(),
                      rng.normal(scale=1e-3, size=50_000).tolist()))
    tracemalloc.start()
    try:
        f = ProductFormula(steps)
        f.evaluate(PAULI_PAIR, 0.1)
        del f
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 50_000


UPPER_PAIR = GeneratorPair([[1, 2], [0, 1]], np.ones((2, 2)))


@pytest.mark.parametrize("steps, gens, x", [
    ((("A", 1e300), ("B", 1.0)), PAULI_PAIR, 1e10),
    ((("A", 1e300), ("B", 1.0)), GeneratorPair(np.eye(2), np.ones((2, 2))), 1e10),
    ((("A", 1.0), ("B", 1.0)), UPPER_PAIR, 1e5),  # Pade itself overflows
    ((("A", 1.0), ("B", 1.0)), UPPER_PAIR, 300.0),  # finite factors, overflowing product
], ids=["spectral", "pade", "pade-factor", "pade-product"])
def test_overflowing_exponent_raises_without_warning(steps, gens, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            ProductFormula(steps).evaluate(gens, x)
        with pytest.raises(InvalidInputError):  # one overflowing x refuses the stack
            ProductFormula(steps).evaluate(gens, np.array([0.0, x]))


def test_evaluate_of_a_vector_stacks_the_scalar_evaluations():
    xs = np.array([0.1, -0.35, 0.0, 0.8])
    g5 = apply_scheme("g10", s3())
    rng = np.random.default_rng(7)
    a, b = (0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(2))
    for f, gens in ((g5, PAULI_PAIR), (s3(), GeneratorPair(a, b)), (g5, chain_pair(16))):
        stack = f.evaluate(gens, xs)
        assert stack.shape == (len(xs), gens.dim, gens.dim)
        for k, x in enumerate(xs):
            single = f.evaluate(gens, x)
            if gens.dim == 2:  # one block either way: the same products, bit for bit
                assert np.array_equal(stack[k], single)
            assert np.linalg.norm(stack[k] - single, 2) <= TOL
    assert f.evaluate(gens, np.array([])).shape == (0, gens.dim, gens.dim)
    assert np.array_equal(ProductFormula(()).evaluate(gens, xs[:2]),
                          np.stack([np.eye(gens.dim)] * 2))
    for bad in (np.ones((2, 2)), np.array([0.1, np.nan]), np.array([np.inf])):
        with pytest.raises(InvalidInputError):
            g5.evaluate(PAULI_PAIR, bad)
