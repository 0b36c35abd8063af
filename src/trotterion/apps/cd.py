"""Digital counterdiabatic driving of a two-qubit ramp.

A two-qubit Hamiltonian is ramped by a smooth schedule; the
counterdiabatic correction is a commutator term whose weight follows
the schedule rate, so one 6-gate sum-plus-commutator step per time
slice implements the corrected evolution. A first-order splitting with
the same per-step exponential budget serves as the comparison
protocol; one pass over the ramp evolves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..bases import f_r
from ..errors import DomainError, InvalidInputError
from ..formula import GeneratorPair, ProductFormula
from ..matcore import eigh
from ..solver import solve_p_of_r
from .common import check_magnitudes, quiet_small_r

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# The ramped field Z(x)I + I(x)Z and the fixed coupling X(x)X + Z(x)Z.
FIELD = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
COUPLING = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Z, SIGMA_Z)

GAP_TOL = 1e-10

# The comparison protocol: a first-order splitting of one slice into three
# (A, 1/3)(B, 1/3) pairs, the corrected step's exponential budget.
TROTTER_STEP = ProductFormula((("A", 1.0 / 3.0), ("B", 1.0 / 3.0)) * 3)
EXPONENTIALS_PER_STEP = len(TROTTER_STEP)

# Most slices of one ramp: a slice costs about 0.25 ms (0.65 ms with the
# exact coefficients) and adds one CDPoint of about 200 bytes, so a ramp at
# the cap runs for half a minute to a minute and holds 20 MB of points, 500x
# the longest tested ramp (N = 200).
MAX_SLICES = 100_000


@dataclass(frozen=True)
class CDConfig:
    J: float
    hz: float
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise InvalidInputError("ramp time tau must be positive and finite")
        if not 1 <= self.n_steps <= MAX_SLICES:
            raise InvalidInputError(f"step count must be at least 1 and at most {MAX_SLICES}")
        if self.tau / self.n_steps == 0.0:
            raise InvalidInputError("time step tau/N underflows to zero")
        check_magnitudes({"J": self.J, "hz": self.hz, "tau": self.tau,
                          "J*tau": self.J * self.tau, "hz*tau": self.hz * self.tau})
        if self.J == 0.0 and self.hz == 0.0:
            raise InvalidInputError("J and hz must not both be zero")


def schedule(t: float, tau: float) -> float:
    """Smooth ramp from 0 at t=0 to 1 at t=tau with vanishing endpoint rate."""
    v = 0.5 * math.pi * t / tau
    inner = math.sin(v) ** 2
    return math.sin(0.5 * math.pi * inner) ** 2


def schedule_rate(t: float, tau: float) -> float:
    """Analytic time derivative of the ramp.

    schedule(tau - t) = 1 - schedule(t), so the rate is symmetric about
    mid-ramp. Past it the rate is taken at tau - t, which is exact there,
    so neither sine is evaluated near pi, where it would cancel.
    """
    if 2.0 * t > tau:
        t = tau - t
    v = 0.5 * math.pi * t / tau
    u = 0.5 * math.pi * math.sin(v) ** 2
    return (math.pi**2 / (4.0 * tau)) * math.sin(2.0 * u) * math.sin(2.0 * v)


def cd_hamiltonians(cfg: CDConfig, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The ramped single-site field term and the fixed coupling term."""
    return cfg.hz * (lam - 1.0) * FIELD, cfg.J * COUPLING


def cd_beta(cfg: CDConfig, t: float) -> float:
    """Commutator weight of the counterdiabatic correction at time t.

    Defined for t in [0, tau); the weight is an indeterminate limit at
    the endpoint, which the left-sampled step grid never touches. The
    distance 1 - schedule(t) is taken as schedule(tau - t), which stays
    positive and accurate where schedule(t) rounds to 1.
    """
    if not (0.0 <= t < cfg.tau):
        raise DomainError("counterdiabatic weight is defined on [0, tau)")
    gap = schedule(cfg.tau - t, cfg.tau)
    denom = 4.0 * gap * (cfg.J**2 + 4.0 * gap**2 * cfg.hz**2)
    beta = schedule_rate(t, cfg.tau) / denom if denom > 0.0 else math.inf
    if not math.isfinite(beta):  # J^2 and hz^2 underflow
        raise DomainError("counterdiabatic weight overflows: J and hz are too small")
    return beta


class CDPoint(NamedTuple):
    """Both protocols' fidelities at time t, and the weight of the slice
    starting there (NaN at the endpoint, where no slice starts)."""

    t: float
    fidelity_trotter: float
    fidelity_cd: float
    beta: float
    degenerate: bool


def _ground_state(cfg: CDConfig, t: float) -> tuple[np.ndarray, bool]:
    """Ramp ground state at time t, and whether it is nearly degenerate."""
    vals, vecs = eigh(sum(cd_hamiltonians(cfg, schedule(t, cfg.tau))))
    return vecs[:, 0], float(vals[1] - vals[0]) < GAP_TOL


def cd_run(cfg: CDConfig, exact_coefficients: bool = False) -> list[CDPoint]:
    """Evolve the initial ground state under both protocols in one pass.

    Starts in the ground state of the ramp-start Hamiltonian and applies
    one step per time slice, sampling the ramp at the left endpoint: the
    corrected step, and TROTTER_STEP on the same generators. After each
    step both overlaps with the instantaneous ground state at the right
    endpoint are recorded. Rows where the reference ground state is
    nearly degenerate are flagged.

    With exact_coefficients=True the corrected step's coefficients come
    from the exact solve `solve_p_of_r` instead of the closed form.
    """
    dt = cfg.tau / cfg.n_steps
    psi_tr, degenerate = _ground_state(cfg, 0.0)
    psi_cd = psi_tr
    t, fid_tr, fid_cd = 0.0, 1.0, 1.0
    points = []
    for k in range(cfg.n_steps):
        beta = cd_beta(cfg, t)
        points.append(CDPoint(t, fid_tr, fid_cd, beta, degenerate))
        h_a, h_b = cd_hamiltonians(cfg, schedule(t, cfg.tau))
        gens = GeneratorPair(-1j * h_a, -1j * h_b)
        psi_tr = TROTTER_STEP.evaluate(gens, dt) @ psi_tr
        R = beta / dt
        if exact_coefficients:  # each slice's own smallest root, not the last one's
            formula = solve_p_of_r(R).params.as_formula(label=f"fR*[R={R:.12g}]", claimed_order=3)
        else:
            with quiet_small_r():
                formula = f_r(R)
        psi_cd = formula.evaluate(gens, dt) @ psi_cd
        t = (k + 1) * dt
        gs, degenerate = _ground_state(cfg, t)
        fid_tr = float(abs(np.vdot(gs, psi_tr)) ** 2)
        fid_cd = float(abs(np.vdot(gs, psi_cd)) ** 2)
    points.append(CDPoint(t, fid_tr, fid_cd, math.nan, degenerate))
    return points
