"""Shared plumbing for the application simulators.

Input bounds, and the one n-step scan of the chain and the flux lattice:
the error of the n-fold product of one sum-plus-commutator step, whose
weight grows with n, against the exact evolution, over step counts n.
n_step_target is that exact evolution.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from ..bases import AccuracyWarning
from ..certify import ScanResult, power_errors, step_count_scan, step_grid
from ..errors import InvalidInputError
from ..formula import GeneratorPair, ProductFormula
from ..matcore import commutator, expm

# Largest mode space of the chain and the flux lattice: a run holds at most
# about 22 dense complex matrices of this side at once, 16 MB each at 1024
# modes, 16x the side of the largest benchmarked lattice (64 modes). The
# count includes a formula evaluation's stack, which is one factor and its
# two working arrays from 296 modes up (formula.EVALUATION_BYTES).
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


def n_step_target(gens: GeneratorPair, alpha: float, beta: float) -> np.ndarray:
    """exp(alpha (A + B + C) + beta [A, B]), with C left out when gens has none."""
    total = gens.a + gens.b if gens.c is None else gens.a + gens.b + gens.c
    return expm(alpha * total + beta * commutator(gens.a, gens.b))


def n_step_scan(step: Callable[[float], ProductFormula], gens: GeneratorPair, alpha: float,
                beta: float, ns: Sequence[int] | None) -> ScanResult:
    """Error of the n-fold product of one step against n_step_target, over n.

    One step is step(R) at argument alpha/n with R = step_weight(alpha,
    beta, n), so the n-fold product targets n_step_target(gens, alpha,
    beta); R grows linearly with n, which limits the composite to 1/n
    convergence. The grid ns, the only step-count input, is `step_grid`'s
    (its default when None), checked before the target or any step is
    built. The errors come from one `power_errors` pass; a power that
    overflows is refused as bad input, at the first such n.
    """
    grid = step_grid(ns)
    target = n_step_target(gens, alpha, beta)
    with quiet_small_r():
        steps = [step(step_weight(alpha, beta, n)) for n in grid]
    errors, refused = power_errors(gens, steps, [alpha / n for n in grid], grid, target)
    for exc in filter(None, refused):
        raise exc
    return step_count_scan(grid, errors)
