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

from .. import solver
from ..bases import SIX_GATE_TAGS, f_r_params
from ..errors import DomainError, InvalidInputError
from ..formula import (GeneratorPair, ProductFormula, _grouped_product, _items_per_cap,
                       _tag_columns, as_count, as_flag, as_real)
from ..matcore import eigh
from .common import MAX_MAGNITUDE

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# The ramped field Z(x)I + I(x)Z and the fixed coupling X(x)X + Z(x)Z.
FIELD = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
COUPLING = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Z, SIGMA_Z)

GAP_TOL = 1e-10

# The comparison protocol: a first-order splitting of one slice into three
# (A, 1/3)(B, 1/3) pairs, on the corrected step's tags and so its budget.
TROTTER_STEP = ProductFormula(tuple((tag, 1.0 / 3.0) for tag in SIX_GATE_TAGS))
EXPONENTIALS_PER_STEP = len(TROTTER_STEP)

# Most slices of one ramp: a slice costs about 0.02 ms (0.08 ms with the
# exact coefficients; best of 3 ramps of N = 20 000 on a 2-vCPU Xeon) and
# adds one CDPoint of about 200 bytes, so a ramp at the cap runs for 2 to
# 8 seconds and holds 20 MB of points, 5x the longest tested ramp.
MAX_SLICES = 100_000


@dataclass(frozen=True)
class CDConfig:
    J: float
    hz: float
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        # Python numbers (`as_real`, `as_count`): a ramp's arithmetic in
        # numpy scalars would warn where a Python float overflows to inf,
        # for its checks to refuse
        tau = as_real(self.tau, "ramp time tau", positive=True)
        n = as_count(self.n_steps, "step count")
        if not 1 <= n <= MAX_SLICES:
            raise InvalidInputError(f"step count must be at least 1 and at most {MAX_SLICES}")
        if tau / n == 0.0:
            raise InvalidInputError("time step tau/N underflows to zero")
        J, hz = (as_real(getattr(self, name), name, limit=MAX_MAGNITUDE) for name in ("J", "hz"))
        for name, value in (("tau", tau), ("J*tau", J * tau), ("hz*tau", hz * tau)):
            as_real(value, name, limit=MAX_MAGNITUDE)
        if J == 0.0 and hz == 0.0:
            raise InvalidInputError("J and hz must not both be zero")
        for name, value in (("J", J), ("hz", hz), ("tau", tau), ("n_steps", n)):
            object.__setattr__(self, name, value)


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


def _slices_per_chunk() -> int:
    """Slices `cd_run` takes in one chunk, 35 by default: their exact solve,
    `solver.bytes_per_weight()` a slice (58 KB, over the 51 KB tracemalloc
    measures), then holds at most a quarter of EVALUATION_BYTES."""
    return _items_per_cap(4 * solver.bytes_per_weight())


def _ground_states(cfg: CDConfig, field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground states, as rows, of the ramp Hamiltonians f FIELD + J COUPLING
    for each field strength f = hz (lambda - 1), from one eigensolve, and
    whether each is nearly degenerate."""
    vals, vecs = eigh(field[:, None, None] * FIELD + cfg.J * COUPLING)
    return vecs[:, :, 0], vals[:, 1] - vals[:, 0] < GAP_TOL


def cd_run(cfg: CDConfig, exact_coefficients: bool = False) -> list[CDPoint]:
    """Evolve the initial ground state under both protocols in one pass.

    Starts in the ground state of the ramp-start Hamiltonian and applies
    one step per time slice, sampling the ramp at the left endpoint: the
    corrected step, and TROTTER_STEP on the same generators. After each
    step both overlaps with the instantaneous ground state at the right
    endpoint are recorded. Rows where the reference ground state is
    nearly degenerate are flagged.

    With exact_coefficients=True the corrected step's coefficients come
    from the exact solve of `solve_p_of_r` instead of the closed form.

    The slices run in chunks. One GeneratorPair of FIELD and COUPLING
    serves the whole ramp. A chunk stacks its Trotter rows over its
    corrected rows in one table of exponents on SIX_GATE_TAGS (coefficient
    times dt times the slice's field strength on A-steps or J on B-steps)
    for one `_grouped_product` call, on their step layout, built once a
    ramp; only the two state updates run slice by slice. A failing ramp
    raises what the first failing slice raises.
    """
    exact_coefficients = as_flag(exact_coefficients, "exact_coefficients")
    dt = cfg.tau / cfg.n_steps
    gens = GeneratorPair(-1j * FIELD, -1j * COUPLING)
    on_a = np.array(SIX_GATE_TAGS) == "A"
    layout = _tag_columns(SIX_GATE_TAGS)
    trotter_t = dt * np.array([coeff for _, coeff in TROTTER_STEP.steps])
    chunk = _slices_per_chunk()
    gs, degenerate = _ground_states(cfg, np.array([cfg.hz * (schedule(0.0, cfg.tau) - 1.0)]))
    psi = np.stack([gs[0], gs[0]])  # the Trotter state and the corrected one
    prev = (1.0, 1.0, bool(degenerate[0]))
    points = []
    for start in range(0, cfg.n_steps, chunk):
        ts = [k * dt for k in range(start, min(start + chunk, cfg.n_steps) + 1)]
        betas, failure = [], None
        for t in ts[:-1]:
            try:
                betas.append(cd_beta(cfg, t))
            except DomainError as exc:  # raised once the slices before it ran
                failure = exc
                break
        n = len(betas)
        if n:
            field = cfg.hz * (np.array([schedule(t, cfg.tau) for t in ts[:n + 1]]) - 1.0)
            weights = np.array([beta / dt for beta in betas])
            if exact_coefficients:  # each slice's own smallest root
                coeffs = solver._solve_p_of_r_many(weights)[0]
            else:  # f_r_params refuses an R that overflowed
                coeffs = np.array([f_r_params(R).as_tuple() for R in weights.tolist()])
            exponents = np.concatenate([np.tile(trotter_t, (n, 1)), coeffs * dt])
            exponents *= np.where(on_a, np.tile(field[:n], 2)[:, None], cfg.J)
            u = _grouped_product(gens, layout, exponents).reshape(2, n, 4, 4)
            states = np.empty((2, n, 4), dtype=complex)
            for i in range(n):
                states[:, i] = psi = (u[:, i] @ psi[:, :, None])[:, :, 0]
            gs, degenerate = _ground_states(cfg, field[1:])
            fid_tr, fid_cd = (np.abs(np.sum(gs.conj() * states, axis=-1)) ** 2).tolist()
            after = list(zip(fid_tr, fid_cd, degenerate.tolist()))
            for t, beta, (f_tr, f_cd, deg) in zip(ts, betas, [prev] + after[:-1]):
                points.append(CDPoint(t, f_tr, f_cd, beta, deg))
            prev = after[-1]
        if failure is not None:
            raise failure
    points.append(CDPoint(cfg.n_steps * dt, *prev[:2], math.nan, prev[2]))
    return points
