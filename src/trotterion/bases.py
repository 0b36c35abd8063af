"""Base product formulas.

Two-generator commutator formulas (4-gate second order, 6-gate third
order), the reparameterization of a general 6-gate coefficient set, and
the 6-gate family that carries a sum-plus-commutator target with a
tunable commutator weight R.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, InvalidInputError
from .formula import ProductFormula

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0

R_ACCURACY_FLOOR = 4.0
# Tags of the six factors of a SixGateParams product, leftmost first.
SIX_GATE_TAGS = ("A", "B", "A", "B", "A", "B")


class AccuracyWarning(UserWarning):
    """Closed-form coefficients used outside their accurate regime."""


@dataclass(frozen=True)
class SixGateParams:
    """Coefficients of e^{p1 xA} e^{p2 xB} e^{p3 xA} e^{p4 xB} e^{p5 xA} e^{p6 xB}."""

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    p6: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.p1, self.p2, self.p3, self.p4, self.p5, self.p6)

    def as_formula(self, label: str = "", claimed_order: int | None = None) -> ProductFormula:
        steps = tuple(zip(SIX_GATE_TAGS, self.as_tuple()))
        return ProductFormula(steps, label=label, claimed_order=claimed_order)


@dataclass(frozen=True)
class Reparam:
    """Elementary reparameterization of a 6-gate coefficient set.

    With these five combinations the product equals
    exp( x(l A + m B)
       + (x^2/2)(l m - 2 q)[A, B]
       + (x^3/6)((l^2 m / 2 - 3 r)[A,[A,B]] + (m^2 l / 2 - 3 s)[B,[B,A]])
       + O(x^4) ).
    """

    l: float
    m: float
    q: float
    r: float
    s: float


def reparam(p: SixGateParams) -> Reparam:
    p1, p2, p3, p4, p5, p6 = p.as_tuple()
    return Reparam(
        l=p1 + p3 + p5,
        m=p2 + p4 + p6,
        q=p2 * p3 + p2 * p5 + p4 * p5,
        r=p1 * p2 * p3 + p1 * p2 * p5 + p1 * p4 * p5 + p3 * p4 * p5,
        s=p2 * p3 * p4 + p2 * p3 * p6 + p2 * p5 * p6 + p4 * p5 * p6,
    )


def s2() -> ProductFormula:
    """4-gate group commutator: exp(x^2 [A,B]) + O(x^3)."""
    steps = (("A", 1.0), ("B", 1.0), ("A", -1.0), ("B", -1.0))
    return ProductFormula(steps, label="S2", claimed_order=2)


def s3() -> ProductFormula:
    """6-gate third-order commutator formula: exp(x^2 [A,B]) + O(x^4)."""
    root5 = math.sqrt(5.0)
    params = SixGateParams(
        p1=(root5 - 1.0) / 2.0,
        p2=(root5 - 1.0) / 2.0,
        p3=-1.0,
        p4=-(root5 + 1.0) / 2.0,
        p5=(3.0 - root5) / 2.0,
        p6=1.0,
    )
    return params.as_formula(label="S3", claimed_order=3)


def f_r_params(R: float) -> SixGateParams:
    """Closed-form 6-gate coefficients for the sum-plus-commutator target.

    Satisfies l = m = 1 and q = -R + 1/2 exactly; the third-order
    conditions r = s = 1/6 hold only approximately, with the residual
    shrinking as R grows. Accurate use therefore wants R >= 4 or so.
    """
    R = float(R)
    if R <= -0.5:
        raise DomainError("R must exceed -1/2 for the closed-form coefficients")
    if not math.isfinite(R):
        raise InvalidInputError("step coefficients must be finite")
    if R < R_ACCURACY_FLOOR:
        warnings.warn(
            "closed-form sum+commutator coefficients requested below the "
            "large-R regime; third-order residuals are O(1)",
            AccuracyWarning,
            stacklevel=2,
        )
    g = GOLDEN
    u = math.sqrt(R + 0.5)
    return SixGateParams(
        p1=(g - 1.0) * u,
        p2=(g - 1.0) * u + 1.0,
        p3=-u + 1.0,
        p4=-g * u,
        p5=(2.0 - g) * u,
        p6=u,
    )


def f_r(R: float) -> ProductFormula:
    """6-gate formula approximating exp(x(A+B) + R x^2 [A,B])."""
    params = f_r_params(R)
    return params.as_formula(label=f"fR[R={R:.12g}]", claimed_order=3)


def f_r_signed(R: float) -> ProductFormula:
    """Sum-plus-commutator step valid for either sign of the weight R.

    For R > -1/2 this is the closed-form 6-gate step. Otherwise the
    factor order of the weight -R step is reversed without negating the
    coefficients: that product equals the inverse of the original
    evaluated at -x, which flips the sign of every even-order term of
    its logarithm. The result approximates exp(x(A+B) + R x^2 [A,B])
    with the same third-order defect as the positive-weight step.
    """
    R = float(R)
    if R > -0.5:
        return f_r(R)
    base = f_r(-R)
    steps = tuple(reversed(base.steps))
    return ProductFormula(steps, label=f"fR[R={R:.12g}][reflected]",
                          claimed_order=base.claimed_order)


def f_r_with_c(R: float) -> ProductFormula:
    """7-gate step exp(xC) * f_R(x) for a third commuting-cost term.

    One step of this approximates exp(x(A+B+C) + R x^2 [A,B]) with an
    O(x^2) defect at fixed R x, which repetition suppresses. Either sign
    of R is accepted, through f_r_signed.
    """
    base = f_r_signed(R)
    steps = (("C", 1.0),) + base.steps
    return ProductFormula(steps, label=f"fRC[R={R:.12g}]", claimed_order=1)
