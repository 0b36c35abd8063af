"""Dense complex-matrix kernel used by every other module.

The matrices the package builds are dense and at most 1024x1024: that is
the mode bound `apps.common.MAX_MODES` sets for the chain and flux-lattice
simulators, while the two-spin ramp is 4x4. The exponential of
an anti-Hermitian G, the generator of every unitary evolution in this
package, is I + V diag(e^{i t lam} - 1) V^dagger from one Hermitian
eigensolve of -iG (`SkewSpectrum`), which a caller can keep for every
later t and which refuses a t whose phase no double resolves. `expm`
takes that route for any anti-Hermitian input and scipy's Pade
scaling-and-squaring for any other; `is_hermitian` is the
one tolerance rule for that choice and for what `eigh` accepts. `expm`,
`spectral_norm` and `eigh` also take a (k, n, n) stack, in one call. The
spectral norm comes from an SVD, and matrix logarithms from inverse
scaling-and-squaring with an explicit domain check. scipy is imported only
by the Pade route and the logarithm's square roots, on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInputError, SolverError

HERMITICITY_TOL = 1e-10
# Least phase |t| max|lam| that `SkewSpectrum.exp` refuses: from 2**52 on,
# adjacent doubles lie a radian or more apart, so e^{i t lam} has no correct digit.
PHASE_LIMIT = 2.0**52

_LOG_SERIES_TOL = 1e-20
_LOG_SERIES_MAX_TERMS = 64
_SQRT_MAX_PULLS = 64


def as_square_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate and return a square complex matrix, or with stack=True a
    (k, n, n) stack of them, as a fresh ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 + stack or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def is_hermitian(h: np.ndarray) -> bool:
    """Whether ||H - H^dagger||_2 <= HERMITICITY_TOL, for a square ndarray H
    or for every matrix of a (k, n, n) stack.

    G is anti-Hermitian when -iG passes. The bounds
    ||D||_F / sqrt(n) <= ||D||_2 <= ||D||_F settle almost every input
    without the SVD; a stack whose whole Frobenius norm passes passes.
    """
    with np.errstate(over="ignore"):
        defect = h - np.swapaxes(h.conj(), -1, -2)
        frobenius = float(np.linalg.norm(defect))
    if frobenius <= HERMITICITY_TOL:
        return True
    if h.ndim > 2:
        return all(is_hermitian(m) for m in h)
    if frobenius > math.sqrt(h.shape[0]) * HERMITICITY_TOL:
        return False
    return float(np.linalg.norm(defect, 2)) <= HERMITICITY_TOL


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part of H, or of each matrix of a stack,
    eigenvalues ascending."""
    vals, vecs = np.linalg.eigh((h + np.swapaxes(h.conj(), -1, -2)) / 2.0)
    return np.asarray(vals, dtype=float), np.asarray(vecs, dtype=complex)


class SkewSpectrum:
    """Exponentials e^{tG} of one anti-Hermitian G, from one eigensolve.

    Built from H = -iG, which must pass `is_hermitian`; the eigenvalues
    and eigenvectors of H's Hermitian part are kept for every later t.
    H may also be a (k, n, n) stack, whose spectra then come from one
    stacked eigensolve and serve one scalar t at a time.
    """

    __slots__ = ("vals", "vecs", "_vecs_h", "_eye", "_bound")

    def __init__(self, h: np.ndarray):
        self.vals, self.vecs = _hermitian_eigh(h)
        self._vecs_h = np.ascontiguousarray(np.swapaxes(self.vecs.conj(), -1, -2))
        self._eye = np.eye(h.shape[-1], dtype=complex)
        self._bound = float(np.max(np.abs(self.vals)))

    def exp(self, t) -> np.ndarray:
        """e^{tG} = I + V diag(e^{i t lam} - 1) V^dagger, for a scalar t or,
        for one G, a 1-D array of k values (then a (k, d, d) stack, one
        e^{tG} per t).

        The identity is added last, so the rounding of V enters scaled by
        ||e^{tG} - I|| as Pade's does, not in full: V diag(e^{i t lam})
        V^dagger would put the rounding of V V^dagger into every factor.
        The one check on a spectral exponent refuses a phase |t| max|lam|
        that is not finite (so any NaN or infinite t) or not below PHASE_LIMIT.
        """
        t = np.asarray(t, dtype=float)
        # a Python float product: inf on overflow, and no numpy warning
        phase = float(np.abs(t).max(initial=0.0)) * self._bound
        if not math.isfinite(phase):
            raise InvalidInputError("exponent contains non-finite entries")
        if phase >= PHASE_LIMIT:
            raise InvalidInputError(f"exponent phase {phase:.6g} is at least 2**52: "
                                    "e^(i phase) has no correct digit")
        phases = np.exp(1j * (t[..., None] * self.vals)) - 1.0
        scaled = self.vecs * phases[..., None, :]
        if self.vecs.ndim == 2:
            # one (k d, d) x (d, d) product: numpy's stacked matmul against
            # a shared right factor skips BLAS and is many times slower
            out = (scaled.reshape(-1, scaled.shape[-1]) @ self._vecs_h).reshape(scaled.shape)
        else:
            out = scaled @ self._vecs_h
        out += self._eye
        return out


def expm(m) -> np.ndarray:
    """Matrix exponential e^M, or of each matrix of a (k, n, n) stack:
    spectral for anti-Hermitian M, Pade otherwise.

    An anti-Hermitian stack takes one stacked eigensolve; a stack with any
    other matrix takes each matrix by its own route, so every matrix gets
    what its own call gives. An e^M beyond the float range, or an
    anti-Hermitian M with a phase `SkewSpectrum.exp` refuses, is refused,
    not returned as inf, NaN or digits of rounding.
    """
    return _expm(as_square_matrix(m, stack=np.ndim(m) == 3))


def _expm(mat: np.ndarray) -> np.ndarray:
    h = -1j * mat
    if is_hermitian(h):
        return SkewSpectrum(h).exp(1.0)
    if mat.ndim == 3:
        return np.array([_expm(m) for m in mat])
    import scipy.linalg
    with np.errstate(all="ignore"):
        out = scipy.linalg.expm(mat)
    if not np.isfinite(out).all():
        raise InvalidInputError("matrix exponential overflows")
    return out


def spectral_norm(m):
    """Largest singular value of M, or a 1-D array of them for a (k, n, n)
    stack, from one SVD call: the values `np.linalg.norm(M, 2)` gives."""
    mat = as_square_matrix(m, stack=np.ndim(m) == 3)
    norms = np.linalg.svd(mat, compute_uv=False)[..., 0]
    return float(norms) if mat.ndim == 2 else norms


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
        import scipy.linalg
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
    """Eigen-decomposition of a Hermitian matrix, or of each matrix of a
    (k, n, n) stack in one call.

    Returns (eigenvalues ascending, column eigenvectors), with a leading
    k axis for a stack. Each matrix is checked for Hermiticity to 1e-10
    and symmetrized before the solve.
    """
    mat = as_square_matrix(h, "H", stack=np.ndim(h) == 3)
    if not is_hermitian(mat):
        raise InvalidInputError("matrix is not Hermitian to within 1e-10")
    return _hermitian_eigh(mat)
