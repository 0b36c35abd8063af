"""Dense matrix kernel: exponential, principal log, norms, eigh."""

import numpy as np
import pytest

from trotterion import GeneratorPair, matcore
from trotterion.errors import DomainError, InvalidInputError

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z


def random_matrix(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * m / max(np.linalg.norm(m, 2), 1e-30)


def random_anti_hermitian(rng, dim, scale=1.0):
    m = random_matrix(rng, dim)
    k = (m - m.conj().T) / 2.0
    return scale * k / max(np.linalg.norm(k, 2), 1e-30)


def test_expm_identity_and_diagonal():
    assert np.allclose(matcore.expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)
    theta = 0.3
    got = matcore.expm(np.diag([-1j * theta, 1j * theta]))
    want = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    assert np.allclose(got, want, atol=1e-14)


def test_expm_pauli_rotation():
    got = matcore.expm(-1j * (np.pi / 2) * SIGMA_X)
    assert np.allclose(got, -1j * SIGMA_X, atol=1e-13)


def test_expm_unitary_for_anti_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        k = random_anti_hermitian(rng, dim, scale=float(rng.uniform(0.1, 2.0)))
        u = matcore.expm(k)
        dev = np.linalg.norm(u.conj().T @ u - np.eye(dim), 2)
        assert dev <= 1e-11


def test_expm_inverse_pairing():
    rng = np.random.default_rng(12)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        m = random_matrix(rng, dim, scale=float(rng.uniform(0.0, 1.0)))
        prod = matcore.expm(m) @ matcore.expm(-m)
        assert np.linalg.norm(prod - np.eye(dim), 2) <= 1e-11


def test_logm_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        m = random_matrix(rng, dim, scale=float(rng.uniform(0.0, 0.2)))
        back = matcore.logm_near_identity(matcore.expm(m))
        assert np.linalg.norm(back - m, 2) <= 1e-10


def test_logm_rejects_far_from_identity():
    # ||(-I) - I|| = 2: no unambiguous principal branch.
    with pytest.raises(DomainError):
        matcore.logm_near_identity(-np.eye(2))


def test_spectral_norm_known_values():
    assert matcore.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    assert matcore.spectral_norm(np.eye(3)) == pytest.approx(1.0)


def test_spectral_norm_submultiplicative():
    rng = np.random.default_rng(14)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lhs = matcore.spectral_norm(a @ b)
        rhs = matcore.spectral_norm(a) * matcore.spectral_norm(b)
        assert lhs <= rhs + 1e-12


def test_commutator_pauli_and_antisymmetry():
    assert np.allclose(matcore.commutator(SIGMA_X, SIGMA_Z), -2j * SIGMA_Y, atol=1e-15)
    rng = np.random.default_rng(15)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    assert np.allclose(matcore.commutator(a, b), -matcore.commutator(b, a), atol=1e-13)


def test_commutator_shape_mismatch():
    with pytest.raises(InvalidInputError):
        matcore.commutator(np.eye(2), np.eye(3))


def test_as_square_matrix_validation():
    with pytest.raises(InvalidInputError):
        matcore.as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        matcore.as_square_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        matcore.as_square_matrix(np.zeros((0, 0)))


def test_eigh_ordering_and_vectors():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    vals, vecs = matcore.eigh(h)
    assert vals[0] <= vals[1]
    assert vals[0] == pytest.approx(-np.sqrt(2.0))
    assert vals[1] == pytest.approx(np.sqrt(2.0))
    for j in range(2):
        resid = h @ vecs[:, j] - vals[j] * vecs[:, j]
        assert np.linalg.norm(resid) <= 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        matcore.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_of_a_stack_is_each_matrix_eigh():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    h = a + np.swapaxes(a.conj(), -1, -2)
    vals, vecs = matcore.eigh(h)
    assert vals.shape == (5, 4) and vecs.shape == (5, 4, 4)
    for k in range(5):
        want_vals, want_vecs = matcore.eigh(h[k])
        assert np.array_equal(vals[k], want_vals) and np.array_equal(vecs[k], want_vecs)


def test_eigh_of_a_stack_checks_every_matrix():
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    stack[2, 0, 1] = 1e-6
    with pytest.raises(InvalidInputError):
        matcore.eigh(stack)
    for bad in (np.zeros((2, 2, 3)), np.zeros((1, 2, 2, 2)), np.full((2, 2, 2), np.nan)):
        with pytest.raises(InvalidInputError):
            matcore.eigh(bad)


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_expm_and_norm_of_a_stack_are_each_matrix_call(dim):
    rng = np.random.default_rng(40 + dim)
    skew = np.stack([random_anti_hermitian(rng, dim, s) for s in (1e-3, 0.7, 3.0, 40.0)])
    general = np.stack([random_matrix(rng, dim, s) for s in (0.1, 2.0, 5.0)])
    # an anti-Hermitian stack takes one stacked eigensolve; a general or a
    # mixed one takes each matrix by its own route
    for stack in (skew, general, np.concatenate([skew[:2], general[:1], skew[2:]])):
        exps = matcore.expm(stack)
        norms = matcore.spectral_norm(stack)
        assert exps.shape == stack.shape and norms.shape == (len(stack),)
        for k, m in enumerate(stack):
            assert np.array_equal(exps[k], matcore.expm(m))
            assert norms[k] == matcore.spectral_norm(m) == np.linalg.norm(m, 2)
    assert isinstance(matcore.spectral_norm(skew[0]), float)
    bad = skew.copy()
    bad[1, 0, 0] = np.inf
    for fn in (matcore.expm, matcore.spectral_norm):
        with pytest.raises(InvalidInputError):
            fn(bad)


@pytest.mark.parametrize("singular_values,want", [((0.8e-10, 0.8e-10), True),
                                                  ((1.2e-10, 0.3e-10), False)])
def test_is_hermitian_between_the_frobenius_bounds_takes_the_svd(singular_values, want):
    # the defect H - H^dagger = i diag(s) has ||.||_F between TOL and
    # sqrt(2) TOL, so the Frobenius bounds leave it to ||.||_2 = max(s)
    defect = 1j * np.diag(singular_values)
    tol = matcore.HERMITICITY_TOL
    assert tol < np.linalg.norm(defect) <= np.sqrt(2.0) * tol
    h = SIGMA_X + defect / 2.0
    assert matcore.is_hermitian(h) is want
    assert matcore.is_hermitian(np.stack([h, h])) is want


def test_skew_spectrum_refuses_an_overflowing_phase():
    # |t| max|lambda| = 1e310 is past the float range, though t and the
    # generator are finite
    pair = GeneratorPair(-1j * 1e300 * SIGMA_Z, -1j * SIGMA_X)
    with pytest.raises(InvalidInputError, match="exponent contains non-finite entries"):
        pair.exp("A", 1e10)
    assert np.allclose(pair.exp("A", 1e-300), matcore.expm(-1j * SIGMA_Z), atol=1e-15)
