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
from ..certify import ScanResult
from ..errors import InvalidInputError
from ..formula import GeneratorPair, as_count, as_real
from ..matcore import commutator, spectral_norm
from .common import MAX_MAGNITUDE, MAX_MODES, n_step_scan

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
    return abs(math.remainder(Ly * phi, 2.0 * math.pi)) < WRAP_PHASE_TOL


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


def flat_band_coupling(J: float, phi: float) -> float:
    """Diagonal-bond coupling that flattens the lowest band."""
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
    wrap = _wraps(cfg)
    size = cfg.Lx * cfg.Ly
    mats = [np.zeros((size, size), dtype=complex) for _ in range(4)]
    h1, h2, h3, h4 = mats
    for m in range(cfg.Lx):
        for n in range(cfg.Ly):
            parity = (m + n) % 2
            if wrap or m + 1 < cfg.Lx:
                amp = -cfg.J * np.exp(-1j * n * cfg.phi)
                h = h1 if parity == 0 else h2
                h[_site(cfg, m + 1, n), _site(cfg, m, n)] += amp
                h[_site(cfg, m, n), _site(cfg, m + 1, n)] += np.conj(amp)
            if wrap or n + 1 < cfg.Ly:
                h = h3 if parity == 1 else h4
                h[_site(cfg, m, n + 1), _site(cfg, m, n)] += -cfg.J
                h[_site(cfg, m, n), _site(cfg, m, n + 1)] += -cfg.J
    return h1, h2, h3, h4


def km_nnn_identities(cfg: KMConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Both sides of the diagonal-bond commutator identities.

    Keys h1h3/h1h4/h2h3/h2h4 give -i[.,.] of one bond-color pair against
    its explicit diagonal-bond sum; key "combined" gives
    -i[H1-H2, H3-H4] against the
    difference form i*J^2*(ph(n) - ph(n+1)) summed over both diagonals
    of every cell, which reduces to a single phase times
    -2*J^2*sin(phi/2) wherever the row index does not wrap.
    """
    wrap = _wraps(cfg)
    h1, h2, h3, h4 = km_hoppings(cfg)
    size = cfg.Lx * cfg.Ly
    jsq = cfg.J**2

    def ph(k: int) -> complex:
        row = k % cfg.Ly if wrap else k
        return np.exp(-1j * row * cfg.phi)

    def cells(direction: str):
        # direction "ur": creation at (m+1, n+1), annihilation at (m, n).
        # direction "dr": creation at (m+1, n), annihilation at (m, n+1).
        for m in range(cfg.Lx):
            for n in range(cfg.Ly):
                if not wrap and (m + 1 >= cfg.Lx or n + 1 >= cfg.Ly):
                    continue
                if direction == "ur":
                    yield m, n, _site(cfg, m + 1, n + 1), _site(cfg, m, n)
                else:
                    yield m, n, _site(cfg, m + 1, n), _site(cfg, m, n + 1)

    def assemble(direction: str, weight) -> np.ndarray:
        out = np.zeros((size, size), dtype=complex)
        for m, n, row, col in cells(direction):
            out[row, col] += weight(m, n)
        return out + out.conj().T

    def minus_i_comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -1j * commutator(x, y)

    def parity_weight(direction_parity_neg: int, neg_row_shift: int,
                      pos_row_shift: int):
        # One parity class contributes -J^2*i*ph(n+shift), the other +.
        def weight(m: int, n: int) -> complex:
            if (m + n) % 2 == direction_parity_neg:
                return -jsq * 1j * ph(n + neg_row_shift)
            return jsq * 1j * ph(n + pos_row_shift)
        return weight

    identities = {
        "h1h3": (minus_i_comm(h1, h3), assemble("ur", parity_weight(1, 1, 0))),
        "h1h4": (minus_i_comm(h1, h4), assemble("dr", parity_weight(0, 0, 1))),
        "h2h3": (minus_i_comm(h2, h3), assemble("dr", parity_weight(1, 0, 1))),
        "h2h4": (minus_i_comm(h2, h4), assemble("ur", parity_weight(0, 1, 0))),
    }

    def combined_weight(m: int, n: int) -> complex:
        return 1j * jsq * (ph(n) - ph(n + 1))

    combined_rhs = assemble("ur", combined_weight) + assemble("dr", combined_weight)
    identities["combined"] = (minus_i_comm(h1 - h2, h3 - h4), combined_rhs)
    return identities


def km_commutator_check(cfg: KMConfig) -> float:
    """Largest spectral-norm deviation across all five identities."""
    return max(spectral_norm(lhs - rhs)
               for lhs, rhs in km_nnn_identities(cfg).values())


def km_gate_count(cfg: KMConfig, n: int) -> int:
    """Elementary exponentials for an n-step run: 7 per step."""
    return 7 * n


def km_simulate(cfg: KMConfig, ns: Sequence[int] | None = None) -> ScanResult:
    """Error of the n-step 7-gate product against the exact flat-band target.

    Generators are the phase-carrying bond-color differences plus a
    commuting-cost term; the per-step commutator weight grows with n so
    the composite converges like 1/n. Either sign of the weight works,
    so any nonzero J and any flux off the multiples of 2*pi run. The
    grid ns is the only step-count input; its check, its default and the
    fit are n_step_scan's, as in chain_simulate.
    """
    h1, h2, h3, h4 = km_hoppings(cfg)
    gens = GeneratorPair(1j * (h1 - h2), 1j * (h3 - h4), 1j * (2.0 * h2 + 2.0 * h4))
    beta = flat_band_coupling(cfg.J, cfg.phi) * cfg.T
    return n_step_scan(f_r_with_c, gens, cfg.T, beta, ns)
