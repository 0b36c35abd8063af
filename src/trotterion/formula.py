"""Product formulas as explicit exponential sequences, plus their algebra.

A product formula is an ordered tuple of (tag, coefficient) steps; the
step (g, c) stands for the factor exp(c * x * G_g), where G_g is the
generator bound to tag "A", "B" or "C" at evaluation time and x is the
overall argument. The first step in the tuple is the leftmost factor of
the product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import matcore
from .errors import InvalidInputError

TAGS = ("A", "B", "C")
MERGE_TOL = 1e-14


@dataclass(frozen=True)
class GeneratorPair:
    """The concrete matrices bound to the step tags.

    `c` is optional; it is only consulted when a formula contains
    "C"-tagged steps. Construction decides for each generator whether it
    is anti-Hermitian (to matcore.HERMITICITY_TOL); such a generator's
    eigendecomposition is built on its first exponential and kept on
    this object, so each factor e^{tG} after that costs one product.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None
    # tag -> its SkewSpectrum once built; holds the anti-Hermitian tags only
    _spectra: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ma = matcore.as_square_matrix(self.a, "generator A")
        mb = matcore.as_square_matrix(self.b, "generator B")
        if ma.shape != mb.shape:
            raise InvalidInputError("generators A and B must share a dimension")
        object.__setattr__(self, "a", ma)
        object.__setattr__(self, "b", mb)
        if self.c is not None:
            mc = matcore.as_square_matrix(self.c, "generator C")
            if mc.shape != ma.shape:
                raise InvalidInputError("generator C must match A and B in dimension")
            object.__setattr__(self, "c", mc)
        bound = {"A": self.a, "B": self.b, "C": self.c}
        object.__setattr__(self, "_spectra", {
            tag: None for tag, g in bound.items()
            if g is not None and matcore.is_hermitian(-1j * g)})

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def matrix(self, tag: str) -> np.ndarray:
        if tag == "A":
            return self.a
        if tag == "B":
            return self.b
        if tag == "C":
            if self.c is None:
                raise InvalidInputError("formula uses tag C but no C generator was supplied")
            return self.c
        raise InvalidInputError(f"unknown generator tag {tag!r}")

    def exp(self, tag: str, t: float) -> np.ndarray:
        """e^{t G} for the generator bound to `tag`.

        Spectral for an anti-Hermitian generator, from its kept
        decomposition; matcore.expm (Pade) for any other.
        """
        g = self.matrix(tag)
        if tag not in self._spectra:
            return matcore.expm(t * g)
        spectrum = self._spectra[tag]
        if spectrum is None:
            spectrum = self._spectra[tag] = matcore.SkewSpectrum(-1j * g)
        return spectrum.exp(t)


@dataclass(frozen=True)
class WordSums:
    """Ordered-subsequence coefficient sums of a two-generator formula.

    Field `ba`, for example, is the sum of c_i * c_j over pairs of step
    positions i < j where step i is B-tagged and step j is A-tagged.
    `a2ba` and `b2ab` include the squared-first-index convention: the
    leading repeated tag contributes c_i**2 / 2.
    """

    a: float
    b: float
    ba: float
    aba: float
    bab: float
    a2ba: float
    b2ab: float
    abab: float
    baba: float


@dataclass(frozen=True)
class ProductFormula:
    """An ordered list of (tag, coefficient) exponential steps."""

    steps: tuple[tuple[str, float], ...]
    label: str = ""
    claimed_order: int | None = None

    def __post_init__(self):
        clean = []
        for step in self.steps:
            try:
                tag, coeff = step
            except (TypeError, ValueError):
                raise InvalidInputError(f"step {step!r} is not a (tag, coefficient) pair")
            if tag not in TAGS:
                raise InvalidInputError(f"unknown step tag {tag!r}")
            try:
                coeff = float(coeff)
            except (TypeError, ValueError):
                raise InvalidInputError(f"step coefficient {coeff!r} is not a number")
            except OverflowError:  # an int beyond the float range
                coeff = math.inf
            if not math.isfinite(coeff):
                raise InvalidInputError("step coefficients must be finite")
            clean.append((tag, coeff))
        object.__setattr__(self, "steps", tuple(clean))
        if self.claimed_order is not None and self.claimed_order < 1:
            raise InvalidInputError("claimed_order must be a positive integer or None")

    def __len__(self) -> int:
        return len(self.steps)

    def evaluate(self, gens: GeneratorPair, x: float) -> np.ndarray:
        """Multiply out the steps at argument x, first step leftmost."""
        x = float(x)
        if not math.isfinite(x):
            raise InvalidInputError("argument x must be finite")
        out = np.eye(gens.dim, dtype=complex)
        for tag, coeff in self.steps:
            out = out @ gens.exp(tag, coeff * x)
        return out

    def inverse(self) -> "ProductFormula":
        """Reverse the steps and negate every coefficient."""
        rev = tuple((tag, -coeff) for tag, coeff in reversed(self.steps))
        return replace(self, steps=rev)

    def scale_argument(self, v: float) -> "ProductFormula":
        """Multiply every coefficient by v, so f.scale(v)(x) = f(v*x)."""
        v = float(v)
        if not math.isfinite(v):
            raise InvalidInputError("scale factor must be finite")
        return replace(self, steps=tuple((tag, coeff * v) for tag, coeff in self.steps))

    def simplify(self) -> "ProductFormula":
        """Merge adjacent same-tag steps and drop coefficients below 1e-14."""
        merged: list[tuple[str, float]] = []
        for tag, coeff in self.steps:
            if merged and merged[-1][0] == tag:
                coeff = merged.pop()[1] + coeff
            if abs(coeff) >= MERGE_TOL:
                merged.append((tag, coeff))
        return replace(self, steps=tuple(merged))

    def gate_count(self) -> int:
        """Number of elementary exponentials after simplification."""
        return len(self.simplify().steps)

    def trajectory(self, tag: str) -> list[float]:
        """Running cumulative sums of the coefficients carrying one tag."""
        if tag not in TAGS:
            raise InvalidInputError(f"unknown generator tag {tag!r}")
        sums: list[float] = []
        acc = 0.0
        for t, coeff in self.steps:
            if t == tag:
                acc += coeff
                sums.append(acc)
        return sums


def concat(formulas: Sequence[ProductFormula], label: str = "",
           claimed_order: int | None = None) -> ProductFormula:
    """Chain several formulas into one product, left to right."""
    steps: list[tuple[str, float]] = []
    for f in formulas:
        steps.extend(f.steps)
    return ProductFormula(tuple(steps), label=label, claimed_order=claimed_order)


def repeat(f: ProductFormula, r: int, commutator_target: bool = True) -> ProductFormula:
    """r-fold repetition, simplified.

    For a commutator target each copy is argument-scaled by 1/sqrt(r),
    so the repeated formula approximates the same exp(x^2 [A,B]); for a
    linear target the copies are left unscaled.
    """
    if r < 1:
        raise InvalidInputError("repetition count must be >= 1")
    copy = f.scale_argument(1.0 / math.sqrt(r)) if commutator_target else f
    out = concat([copy] * r, label=f.label, claimed_order=f.claimed_order)
    return out.simplify()


def _pattern_sum(steps: tuple[tuple[str, float], ...],
                 pattern: Sequence[tuple[str, int, float]]) -> float:
    """Sum of weighted coefficient products over ordered tag subsequences.

    Each pattern element (tag, power, factor) contributes
    factor * coeff**power when a step of that tag extends a partial
    match. Runs in O(len(steps) * len(pattern)).
    """
    partial = [1.0] + [0.0] * len(pattern)
    for tag, coeff in steps:
        for j in range(len(pattern), 0, -1):
            ptag, power, factor = pattern[j - 1]
            if tag == ptag:
                partial[j] += partial[j - 1] * factor * coeff**power
    return partial[-1]


def word_sums(f: ProductFormula) -> WordSums:
    """All ordered word sums needed for the fourth-order conditions."""
    if any(tag == "C" for tag, _ in f.steps):
        raise InvalidInputError("word sums are defined for two-generator formulas only")
    steps = f.steps
    one = lambda tag: (tag, 1, 1.0)
    half_sq = lambda tag: (tag, 2, 0.5)
    return WordSums(
        a=_pattern_sum(steps, [one("A")]),
        b=_pattern_sum(steps, [one("B")]),
        ba=_pattern_sum(steps, [one("B"), one("A")]),
        aba=_pattern_sum(steps, [one("A"), one("B"), one("A")]),
        bab=_pattern_sum(steps, [one("B"), one("A"), one("B")]),
        a2ba=_pattern_sum(steps, [half_sq("A"), one("B"), one("A")])
        + _pattern_sum(steps, [one("A"), one("A"), one("B"), one("A")]),
        b2ab=_pattern_sum(steps, [half_sq("B"), one("A"), one("B")])
        + _pattern_sum(steps, [one("B"), one("B"), one("A"), one("B")]),
        abab=_pattern_sum(steps, [one("A"), one("B"), one("A"), one("B")]),
        baba=_pattern_sum(steps, [one("B"), one("A"), one("B"), one("A")]),
    )


def to_json(f: ProductFormula) -> str:
    """Serialize to the on-disk JSON schema; floats round-trip bit-exactly."""
    payload = {
        "label": f.label,
        "claimed_order": f.claimed_order,
        "steps": [[tag, coeff] for tag, coeff in f.steps],
    }
    return json.dumps(payload, indent=2)


def from_json(text: str) -> ProductFormula:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed formula JSON: {exc}") from exc
    if not isinstance(payload, dict) or "steps" not in payload:
        raise InvalidInputError("formula JSON must be an object with a 'steps' list")
    label = payload.get("label", "")
    order = payload.get("claimed_order")
    if not isinstance(label, str):
        raise InvalidInputError("'label' must be a string")
    if order is not None and type(order) is not int:
        raise InvalidInputError("'claimed_order' must be an integer or null")
    steps = payload["steps"]
    if not isinstance(steps, list):
        raise InvalidInputError("'steps' must be a list")
    for step in steps:
        if isinstance(step, list) and len(step) == 2 and type(step[1]) not in (int, float):
            raise InvalidInputError(f"step coefficient {step[1]!r} is not a JSON number")
    return ProductFormula(tuple(steps), label=label, claimed_order=order)
