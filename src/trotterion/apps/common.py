"""Shared plumbing for the application simulators."""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

from ..bases import AccuracyWarning
from ..errors import InvalidInputError

# Largest mode space of the chain and the flux lattice: a run builds about a
# dozen dense complex matrices of this side, 16 MB each at 1024 modes, 16x
# the side of the largest benchmarked lattice (64 modes).
MAX_MODES = 1024
# Largest coupling, time and evolution phase (a coupling times a time) the
# simulators accept: a double holds a phase near 1e15 rad only to about
# 0.2 rad, and the cap keeps the squares in the commutator weights far from
# overflow.
MAX_MAGNITUDE = 1e15


def check_magnitudes(values: dict[str, float]) -> None:
    """Reject any non-finite value, or one beyond MAX_MAGNITUDE in magnitude."""
    for name, value in values.items():
        if not abs(value) <= MAX_MAGNITUDE:
            raise InvalidInputError(f"{name} must be finite and at most {MAX_MAGNITUDE:g}")


def step_weight(alpha: float, beta: float, n: int) -> float:
    """Commutator weight beta*n/alpha^2 of one step of an n-step run.

    Divided one factor of alpha at a time, so a step scale whose square
    underflows gives an overflowing weight, which is rejected like a
    step scale that underflows to zero itself, rather than a division
    by zero.
    """
    weight = (beta / alpha) * (n / alpha) if alpha != 0.0 else math.inf
    if not math.isfinite(weight):
        raise InvalidInputError("per-step commutator weight overflows; the step scale is too small")
    return weight


@contextmanager
def quiet_small_r():
    """Silence the small-R accuracy warning inside n-step repetitions.

    The repetition loops deliberately drive the per-step commutator
    weight through the small-R regime; the 1/n convergence of the
    composite is what the simulators measure, so the single-shot
    accuracy warning is noise there.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        yield
