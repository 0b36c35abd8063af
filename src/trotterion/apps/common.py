"""Shared plumbing for the application simulators."""

from __future__ import annotations

import warnings
from contextlib import contextmanager

from ..bases import AccuracyWarning


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
