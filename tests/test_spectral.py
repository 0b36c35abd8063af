"""The spectral exponential route against scipy's Pade expm.

Anti-Hermitian generators are exponentiated from one cached eigensolve
per generator; every other matrix stays on Pade. These tests pin the
two routes to each other, pin which route each input takes, and guard
the lattice simulators against a silent fallback to Pade.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from trotterion import matcore
from trotterion.apps import (ChainConfig, KMConfig, chain_heff, chain_hoppings,
                             chain_simulate, flat_band_coupling, km_hoppings,
                             km_simulate)
from trotterion.bases import f_r_signed, f_r_with_c
from trotterion.errors import InvalidInputError
from trotterion.formula import GeneratorPair, ProductFormula
from trotterion.recursion import pure_commutator_library

REL_TOL = 1e-10
DIMS = (2, 3, 4, 7, 16, 33, 64)


def random_anti_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = (m - m.conj().T) / 2.0
    return scale * k / np.linalg.norm(k, 2)


def pade_product(f: ProductFormula, gens: GeneratorPair, x: float) -> np.ndarray:
    out = np.eye(gens.dim, dtype=complex)
    for tag, coeff in f.steps:
        out = out @ scipy.linalg.expm((coeff * x) * gens.matrix(tag))
    return out


def rel_diff(got: np.ndarray, want: np.ndarray) -> float:
    return np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)


@pytest.fixture
def pade_calls(monkeypatch):
    """Count scipy.linalg.expm calls; the list grows by one per call."""
    calls = []
    real = scipy.linalg.expm

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


def random_formula(rng, n_steps):
    return ProductFormula(tuple(("AB"[int(rng.integers(2))], float(rng.uniform(-2, 2)))
                                for _ in range(n_steps)))


@pytest.mark.parametrize("dim", DIMS)
def test_expm_of_anti_hermitian_matches_pade(dim):
    rng = np.random.default_rng(100 + dim)
    for scale in (1e-3, 0.7, 40.0):
        g = random_anti_hermitian(rng, dim, scale)
        assert rel_diff(matcore.expm(g), scipy.linalg.expm(g)) <= REL_TOL


@pytest.mark.parametrize("dim", DIMS)
def test_pair_evaluation_matches_pade_product(dim):
    rng = np.random.default_rng(200 + dim)
    gens = GeneratorPair(random_anti_hermitian(rng, dim), random_anti_hermitian(rng, dim))
    f = random_formula(rng, 8)
    for x in (0.01, 2.0):
        assert rel_diff(f.evaluate(gens, x), pade_product(f, gens, x)) <= REL_TOL


def test_pauli_g5_matches_pade_product():
    # 56 factors of small argument: the identity-shifted spectral factor
    # keeps the product's error as small relative to ||f(x) - I|| as Pade's
    gens = GeneratorPair(-1j * np.array([[0, 1], [1, 0]]), -1j * np.diag([1.0, -1.0]))
    f = pure_commutator_library()["G5"]
    for x in (0.01, 0.1):
        got, want = f.evaluate(gens, x), pade_product(f, gens, x)
        assert np.linalg.norm(got - want, 2) <= 1e-6 * np.linalg.norm(want - np.eye(2), 2)


def test_km_generators_and_target_match_pade():
    cfg = KMConfig(4, 4, 1.0, math.pi / 2, 1.0)
    h1, h2, h3, h4 = km_hoppings(cfg)
    gens = GeneratorPair(1j * (h1 - h2), 1j * (h3 - h4), 1j * (2.0 * h2 + 2.0 * h4))
    beta = flat_band_coupling(cfg.J, cfg.phi) * cfg.T
    for n in (32, 64):
        f = f_r_with_c(beta * n / cfg.T**2)
        x = cfg.T / n
        assert rel_diff(f.evaluate(gens, x), pade_product(f, gens, x)) <= REL_TOL
    generator = cfg.T * (gens.a + gens.b + gens.c) + beta * matcore.commutator(gens.a, gens.b)
    assert rel_diff(matcore.expm(generator), scipy.linalg.expm(generator)) <= REL_TOL


def test_chain_generators_and_target_match_pade():
    cfg = ChainConfig(16, 1.0, 0.5, 1.0)
    h0, h1 = chain_hoppings(cfg)
    gens = GeneratorPair(1j * h0, 1j * h1)
    alpha, beta = -cfg.t1 * cfg.T, -cfg.t2 * cfg.T
    for n in (8, 64):
        f = f_r_signed(beta * n / alpha**2)
        x = alpha / n
        assert rel_diff(f.evaluate(gens, x), pade_product(f, gens, x)) <= REL_TOL
    generator = -1j * cfg.T * chain_heff(cfg)
    assert rel_diff(matcore.expm(generator), scipy.linalg.expm(generator)) <= REL_TOL


def test_non_normal_pair_stays_on_pade(pade_calls):
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.3, 0.0], [2.0, -0.1j]], dtype=complex)
    gens = GeneratorPair(a, b)
    f = ProductFormula((("A", 0.5), ("B", -1.0), ("A", 0.25)))
    got = f.evaluate(gens, 0.7)
    assert len(pade_calls) == 3
    assert np.array_equal(got, pade_product(f, gens, 0.7))
    assert np.array_equal(matcore.expm(b), scipy.linalg.expm(b))


def test_pair_perturbed_off_anti_hermiticity_stays_on_pade(pade_calls):
    rng = np.random.default_rng(7)
    hermitian = random_anti_hermitian(rng, 4) * 1j
    a = random_anti_hermitian(rng, 4) + 1e-6 * hermitian
    gens = GeneratorPair(a, random_anti_hermitian(rng, 4))
    f = ProductFormula((("A", 0.5), ("B", -1.0), ("A", 0.25), ("B", 2.0)))
    got = f.evaluate(gens, 0.3)
    assert pade_calls == [(4, 4), (4, 4)]  # the two A factors; B is spectral
    assert rel_diff(got, pade_product(f, gens, 0.3)) <= REL_TOL
    del pade_calls[:]
    assert np.array_equal(matcore.expm(a), scipy.linalg.expm(a))
    assert len(pade_calls) == 2


def test_pairs_of_one_shape_never_share_spectra():
    rng = np.random.default_rng(8)
    f = ProductFormula((("A", 1.0), ("B", -0.5), ("A", 0.3)))
    first = GeneratorPair(random_anti_hermitian(rng, 3), random_anti_hermitian(rng, 3))
    second = GeneratorPair(random_anti_hermitian(rng, 3), random_anti_hermitian(rng, 3))
    for gens in (first, second, first):
        assert rel_diff(f.evaluate(gens, 0.4), pade_product(f, gens, 0.4)) <= REL_TOL
    # the next pair may reuse a freed pair's address: nothing may carry over
    for _ in range(20):
        gens = GeneratorPair(random_anti_hermitian(rng, 3), random_anti_hermitian(rng, 3))
        assert rel_diff(f.evaluate(gens, 0.4), pade_product(f, gens, 0.4)) <= REL_TOL


def test_non_finite_exponent_is_rejected():
    gens = GeneratorPair(random_anti_hermitian(np.random.default_rng(9), 2), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        ProductFormula((("A", 1e300),)).evaluate(gens, 1e300)


def test_lattice_simulators_make_no_pade_call(pade_calls):
    km_simulate(KMConfig(4, 4, 1.0, math.pi / 2, 1.0))
    chain_simulate(ChainConfig(16, 1.0, 0.5, 1.0))
    assert pade_calls == []
    # the counter sees the call matcore makes for a non-normal matrix
    matcore.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert pade_calls == [(2, 2)]
