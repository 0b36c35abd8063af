"""Dense complex-matrix kernel used by every other module.

All matrices handled here are small (64x64 at most). The exponential of
an anti-Hermitian G, the generator of every unitary evolution in this
package, is I + V diag(e^{i t lam} - 1) V^dagger from one Hermitian
eigensolve of -iG (`SkewSpectrum`), which a caller can keep for every
later t. `expm` takes that route for any anti-Hermitian input and
scipy's Pade scaling-and-squaring for any other; `is_hermitian` is the
one tolerance rule for that choice and for what `eigh` accepts. The
spectral norm comes from a full SVD, and matrix logarithms from inverse
scaling-and-squaring with an explicit domain check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DomainError, InvalidInputError, SolverError

HERMITICITY_TOL = 1e-10

_LOG_SERIES_TOL = 1e-20
_LOG_SERIES_MAX_TERMS = 64
_SQRT_MAX_PULLS = 64


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a square complex matrix as a fresh ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def is_hermitian(h: np.ndarray) -> bool:
    """Whether ||H - H^dagger||_2 <= HERMITICITY_TOL, for a square ndarray H.

    G is anti-Hermitian when -iG passes. The bounds
    ||D||_F / sqrt(n) <= ||D||_2 <= ||D||_F settle almost every input
    without the SVD.
    """
    with np.errstate(over="ignore"):
        defect = h - h.conj().T
        frobenius = float(np.linalg.norm(defect))
    if frobenius <= HERMITICITY_TOL:
        return True
    if frobenius > math.sqrt(h.shape[0]) * HERMITICITY_TOL:
        return False
    return float(np.linalg.norm(defect, 2)) <= HERMITICITY_TOL


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part of H, eigenvalues ascending."""
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return np.asarray(vals, dtype=float), np.asarray(vecs, dtype=complex)


class SkewSpectrum:
    """Exponentials e^{tG} of one anti-Hermitian G, from one eigensolve.

    Built from H = -iG, which must pass `is_hermitian`; the eigenvalues
    and eigenvectors of H's Hermitian part are kept for every later t.
    """

    __slots__ = ("vals", "vecs", "_vecs_h", "_eye", "_bound")

    def __init__(self, h: np.ndarray):
        self.vals, self.vecs = _hermitian_eigh(h)
        self._vecs_h = np.ascontiguousarray(self.vecs.conj().T)
        self._eye = np.eye(h.shape[0], dtype=complex)
        self._bound = float(np.max(np.abs(self.vals)))

    def exp(self, t) -> np.ndarray:
        """e^{tG} = I + V diag(e^{i t lam} - 1) V^dagger, for a scalar t or
        a 1-D array of k values (then a (k, d, d) stack, one e^{tG} per t).

        The identity is added last, so the rounding of V enters scaled by
        ||e^{tG} - I|| as Pade's does, not in full: V diag(e^{i t lam})
        V^dagger would put the rounding of V V^dagger into every factor.
        """
        t = np.asarray(t, dtype=float)
        # a Python float product: inf on overflow, and no numpy warning
        if not math.isfinite(float(np.abs(t).max(initial=0.0)) * self._bound):
            raise InvalidInputError("exponent contains non-finite entries")
        phases = np.exp(1j * (t[..., None] * self.vals)) - 1.0
        scaled = self.vecs * phases[..., None, :]
        # one (k d, d) x (d, d) product: numpy's stacked matmul against a
        # shared right factor skips BLAS and is many times slower
        out = (scaled.reshape(-1, scaled.shape[-1]) @ self._vecs_h).reshape(scaled.shape)
        out += self._eye
        return out


def expm(m) -> np.ndarray:
    """Matrix exponential e^M: spectral for anti-Hermitian M, Pade otherwise."""
    mat = as_square_matrix(m)
    h = -1j * mat
    if is_hermitian(h):
        return SkewSpectrum(h).exp(1.0)
    return scipy.linalg.expm(mat)


def spectral_norm(m) -> float:
    """Largest singular value of M."""
    return float(np.linalg.norm(as_square_matrix(m), 2))


def commutator(a, b) -> np.ndarray:
    """AB - BA for same-shaped square matrices."""
    ma = as_square_matrix(a, "A")
    mb = as_square_matrix(b, "B")
    if ma.shape != mb.shape:
        raise InvalidInputError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return ma @ mb - mb @ ma


def logm_near_identity(u) -> np.ndarray:
    """Principal logarithm of a matrix close to the identity.

    Requires ||U - I||_2 < 1 so the principal branch is unambiguous.
    Inverse scaling-and-squaring: pull principal square roots until
    ||U - I||_2 < 0.25, sum the log series for log(I + X), then scale
    back by 2^k.
    """
    mat = as_square_matrix(u, "U")
    eye = np.eye(mat.shape[0], dtype=complex)
    if spectral_norm(mat - eye) >= 1.0:
        raise DomainError("matrix is too far from the identity for a principal log")
    pulls = 0
    while spectral_norm(mat - eye) > 0.25:
        mat = np.asarray(scipy.linalg.sqrtm(mat), dtype=complex)
        pulls += 1
        if pulls > _SQRT_MAX_PULLS:
            raise SolverError("square-root reduction failed to contract toward I")
    x = mat - eye
    out = x.copy()
    power = x
    for j in range(2, _LOG_SERIES_MAX_TERMS + 1):
        power = power @ x
        term = power / j
        if j % 2 == 0:
            out -= term
        else:
            out += term
        if spectral_norm(term) < _LOG_SERIES_TOL:
            break
    return out * float(2**pulls)


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, column eigenvectors). The input is
    checked for Hermiticity to 1e-10 and symmetrized before the solve.
    """
    mat = as_square_matrix(h, "H")
    if not is_hermitian(mat):
        raise InvalidInputError("matrix is not Hermitian to within 1e-10")
    return _hermitian_eigh(mat)
