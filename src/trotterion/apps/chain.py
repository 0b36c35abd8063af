"""Periodic 1d hopping chain with commutator-generated diagonal bonds.

Nearest-neighbor bonds split into two mutually commuting halves (even
and odd bonds); their commutator produces the alternating imaginary
next-nearest-neighbor bonds of the effective Hamiltonian. Everything
runs in the single-particle sector, where each Hamiltonian is an LxL
matrix on modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..bases import f_r_signed
from ..certify import ScanResult, step_count_scan
from ..errors import InvalidInputError
from ..formula import GeneratorPair, as_count, as_real
from ..matcore import commutator, expm  # noqa: F401 -- perfbench's tracer tests read chain.expm
from .common import MAX_MAGNITUDE, MAX_MODES


@dataclass(frozen=True)
class ChainConfig:
    L: int
    t1: float
    t2: float
    T: float

    def __post_init__(self) -> None:
        L = as_count(self.L, "chain length")
        if L < 4 or L % 2 != 0:
            raise InvalidInputError("chain length must be even and at least 4")
        if L > MAX_MODES:
            raise InvalidInputError(f"chain length must be at most {MAX_MODES}")
        T = as_real(self.T, "total time", positive=True)
        t1 = as_real(self.t1, "t1", limit=MAX_MAGNITUDE)
        if t1 == 0.0:
            raise InvalidInputError("nearest-neighbor amplitude must be nonzero")
        t2 = as_real(self.t2, "t2", limit=MAX_MAGNITUDE)
        for name, value in (("T", T), ("t1*T", t1 * T), ("t2*T", t2 * T)):
            as_real(value, name, limit=MAX_MAGNITUDE)
        for name, value in (("L", L), ("t1", t1), ("t2", t2), ("T", T)):
            object.__setattr__(self, name, value)


def chain_hoppings(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Even-bond and odd-bond halves of the nearest-neighbor hopping.

    Each half is a real-symmetric permutation-like matrix whose 2x2
    bond blocks have disjoint support, so its terms pairwise commute.
    The odd half carries the periodic wrap bond.
    """
    L = cfg.L
    h0 = np.zeros((L, L), dtype=complex)
    h1 = np.zeros((L, L), dtype=complex)
    for j in range(0, L, 2):
        h0[j, j + 1] = h0[j + 1, j] = 1.0
    for j in range(1, L, 2):
        k = (j + 1) % L
        h1[j, k] = h1[k, j] = 1.0
    return h0, h1


def chain_heff(cfg: ChainConfig) -> np.ndarray:
    """Effective Hamiltonian: both bond halves plus their weighted commutator."""
    h0, h1 = chain_hoppings(cfg)
    return cfg.t1 * (h0 + h1) + 1j * cfg.t2 * commutator(h0, h1)


def chain_gate_count(cfg: ChainConfig, n: int) -> int:
    """Elementary bond exponentials for an n-step run: 6 blocks of L/2 each."""
    return 3 * as_count(n, "step count", positive=True) * cfg.L


def chain_simulate(cfg: ChainConfig, ns: Sequence[int] | None = None) -> ScanResult:
    """Error of the n-step product over the grid ns of step counts.

    One step is the signed 6-gate sum-plus-commutator formula at argument
    -t1*T/n whose n-fold product targets exp(-i*T*Heff). ns is the run's
    only step-count input; its check, its default and the log-log fit are
    step_count_scan's, and the expected slope is -1.
    """
    h0, h1 = chain_hoppings(cfg)
    return step_count_scan(f_r_signed, GeneratorPair(1j * h0, 1j * h1), -cfg.t1 * cfg.T,
                           -cfg.t2 * cfg.T, ns)
