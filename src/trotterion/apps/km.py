"""Square-lattice hopping model with flux, flattened by diagonal bonds.

Nearest-neighbor bonds are partitioned into four colors by direction
and sublattice parity; horizontal bonds carry row-dependent phases.
Commutators between the colors generate the diagonal bonds, and a
fine-tuned diagonal coupling flattens the lowest band. The simulator
runs in the single-particle sector on the Lx*Ly mode space, with one
7-gate step per time slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..bases import f_r_with_c
from ..certify import ScanResult, step_count_scan
from ..errors import InvalidInputError
from ..formula import GeneratorPair, as_count, as_real
from ..matcore import commutator, spectral_norm
from .common import MAX_MAGNITUDE, MAX_MODES

BOUNDARIES = ("auto", "torus", "open")

SIN_SINGULAR_TOL = 1e-12
WRAP_PHASE_TOL = 1e-9


@dataclass(frozen=True)
class KMConfig:
    Lx: int
    Ly: int
    J: float
    phi: float
    T: float
    boundary: str = "auto"

    def __post_init__(self) -> None:
        Lx, Ly = (as_count(getattr(self, name), "lattice extent") for name in ("Lx", "Ly"))
        if Lx < 3 or Ly < 3:
            raise InvalidInputError("lattice extents must be at least 3")
        if Lx * Ly > MAX_MODES:
            raise InvalidInputError(f"lattice must have at most {MAX_MODES} sites")
        T = as_real(self.T, "total time", positive=True)
        phi = as_real(self.phi, "flux")
        J = as_real(self.J, "J", limit=MAX_MAGNITUDE)
        for name, value in (("T", T), ("J*T", J * T)):
            as_real(value, name, limit=MAX_MAGNITUDE)
        for name, value in (("Lx", Lx), ("Ly", Ly), ("J", J), ("phi", phi), ("T", T)):
            object.__setattr__(self, name, value)
        if self.boundary not in BOUNDARIES:
            raise InvalidInputError(f"boundary must be one of {BOUNDARIES}")


def phases_wrap_consistently(Ly: int, phi: float) -> bool:
    """Whether the row-phase pattern closes around the periodic y direction."""
    Ly = as_count(Ly, "lattice extent", positive=True)
    turn = as_real(as_real(Ly, "lattice extent") * as_real(phi, "flux"), "Ly*phi")
    return abs(math.remainder(turn, 2.0 * math.pi)) < WRAP_PHASE_TOL


def _wraps(cfg: KMConfig) -> bool:
    # Policy: periodic wrap only where the phase pattern closes, unless
    # the caller forces a boundary.
    if cfg.boundary == "torus":
        return True
    if cfg.boundary == "open":
        return False
    return phases_wrap_consistently(cfg.Ly, cfg.phi)


def _site(cfg: KMConfig, m: int, n: int) -> int:
    """Mode index of site (m, n), both coordinates taken periodically."""
    return (m % cfg.Lx) * cfg.Ly + (n % cfg.Ly)


def _cells(cfg: KMConfig, dm: int, dn: int) -> list[tuple[int, int]]:
    """Sites (m, n), row-major, whose bond to (m + dm, n + dn) exists: every
    site on a torus, otherwise those whose partner is on the lattice."""
    wrap = _wraps(cfg)
    return [(m, n) for m in range(cfg.Lx) for n in range(cfg.Ly)
            if wrap or (m + dm < cfg.Lx and n + dn < cfg.Ly)]


def _phase(cfg: KMConfig, n: int) -> complex:
    """Phase exp(-i*row*phi) of row n, taken periodically."""
    return np.exp(-1j * (n % cfg.Ly) * cfg.phi)


def flat_band_coupling(J: float, phi: float) -> float:
    """Diagonal-bond coupling that flattens the lowest band."""
    J, phi = as_real(J, "J"), as_real(phi, "flux")
    s = math.sin(0.5 * phi)
    if abs(s) < SIN_SINGULAR_TOL:
        raise InvalidInputError("flux must not be a multiple of 2*pi")
    if J == 0.0:
        raise InvalidInputError("hopping amplitude must be nonzero")
    try:
        coupling = math.exp(0.25 * phi - 0.5 * math.pi) / (2.0 * J * s)
    except (OverflowError, ZeroDivisionError):  # 2*J*s can underflow to zero
        coupling = math.inf
    if not math.isfinite(coupling):
        raise InvalidInputError("the flat-band coupling overflows: the flux is too large "
                                "or the hopping amplitude too small")
    return coupling


def km_hoppings(cfg: KMConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four bond-color hopping matrices on the Lx*Ly mode space.

    Horizontal bonds carry the phase exp(-i*row*phi) and split by the
    parity of column+row of their left site; vertical bonds are real
    and split the same way. Wrap bonds appear only when the boundary
    resolves to a torus.
    """
    size = cfg.Lx * cfg.Ly
    h1, h2, h3, h4 = (np.zeros((size, size), dtype=complex) for _ in range(4))
    for (dm, dn), even, odd in (((1, 0), h1, h2), ((0, 1), h4, h3)):
        for m, n in _cells(cfg, dm, dn):
            amp = -cfg.J * _phase(cfg, n) if dm else -cfg.J
            h = even if (m + n) % 2 == 0 else odd
            h[_site(cfg, m + dm, n + dn), _site(cfg, m, n)] += amp
            h[_site(cfg, m, n), _site(cfg, m + dm, n + dn)] += amp.conjugate()
    return h1, h2, h3, h4


def km_nnn_identities(cfg: KMConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Both sides of the diagonal-bond commutator identities.

    Keys h1h3/h1h4/h2h3/h2h4 give -i[.,.] of one bond-color pair against
    its explicit diagonal-bond sum; key "combined" gives -i[H1-H2, H3-H4]
    against the difference form i*J^2*(ph(n) - ph(n+1)) summed over both
    diagonals of every cell, which reduces to a single phase times
    -2*J^2*sin(phi/2) wherever the row index does not wrap.
    """
    h1, h2, h3, h4 = km_hoppings(cfg)
    size = cfg.Lx * cfg.Ly
    jsq = cfg.J**2

    def diagonal(direction: str, weight) -> np.ndarray:
        # cell (m, n)'s "ur" diagonal creates at (m+1, n+1) and annihilates at
        # (m, n), its "dr" one at (m+1, n) and (m, n+1): it creates on row n + up
        up = int(direction == "ur")
        out = np.zeros((size, size), dtype=complex)
        for m, n in _cells(cfg, 1, 1):
            out[_site(cfg, m + 1, n + up), _site(cfg, m, n + 1 - up)] += weight(m, n, up)
        return out + out.conj().T

    def split(parity: int):
        # paired with the vertical color of this parity, cells of the parity carry
        # -i*J^2 times the created row's phase, the others +i*J^2 the annihilated's
        return lambda m, n, up: (-jsq * 1j * _phase(cfg, n + up) if (m + n) % 2 == parity
                                 else jsq * 1j * _phase(cfg, n + 1 - up))

    def combined(m: int, n: int, up: int) -> complex:
        return 1j * jsq * (_phase(cfg, n) - _phase(cfg, n + 1))

    return {
        "h1h3": (-1j * commutator(h1, h3), diagonal("ur", split(1))),
        "h1h4": (-1j * commutator(h1, h4), diagonal("dr", split(0))),
        "h2h3": (-1j * commutator(h2, h3), diagonal("dr", split(1))),
        "h2h4": (-1j * commutator(h2, h4), diagonal("ur", split(0))),
        "combined": (-1j * commutator(h1 - h2, h3 - h4),
                     diagonal("ur", combined) + diagonal("dr", combined)),
    }


def km_commutator_check(cfg: KMConfig) -> float:
    """Largest spectral-norm deviation across all five identities."""
    return max(spectral_norm(lhs - rhs)
               for lhs, rhs in km_nnn_identities(cfg).values())


def km_gate_count(cfg: KMConfig, n: int) -> int:
    """Elementary exponentials for an n-step run: 7 per step."""
    return 7 * as_count(n, "step count", positive=True)


def km_simulate(cfg: KMConfig, ns: Sequence[int] | None = None) -> ScanResult:
    """Error of the n-step 7-gate product against the exact flat-band target.

    Generators are the phase-carrying bond-color differences plus a
    commuting-cost term; the per-step commutator weight grows with n so
    the composite converges like 1/n. Either sign of the weight works,
    so any nonzero J and any flux off the multiples of 2*pi run. The
    grid ns is the only step-count input; its check, its default and the
    fit are step_count_scan's, as in chain_simulate.
    """
    h1, h2, h3, h4 = km_hoppings(cfg)
    gens = GeneratorPair(1j * (h1 - h2), 1j * (h3 - h4), 1j * (2.0 * h2 + 2.0 * h4))
    beta = flat_band_coupling(cfg.J, cfg.phi) * cfg.T
    return step_count_scan(f_r_with_c, gens, cfg.T, beta, ns)
