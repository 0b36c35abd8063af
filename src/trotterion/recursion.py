"""Recursive schemes that raise the order of a commutator formula.

Every builder takes an order-n formula approximating exp(x^2 [A,B]) and
returns a higher-order one for the same target, assembled from scaled
copies and inverses of the input. Gate counts follow the copy count
minus whatever boundary merges fire, and are asserted by tests rather
than assumed here. SCHEMES names each builder as `build --scheme` does,
and pure_commutator_library() is the one place that builds and labels
the named formulas Q5, W5, V5, G5 and V4t.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .bases import s2, s3
from .errors import InvalidInputError
from .formula import ProductFormula, check_steps, copy_product
from .solver import solve_sqrt4


def _require_order(f: ProductFormula, parity: str | None = None, what: str = "") -> int:
    """f's claimed order; with parity "even" or "odd", also that it has it."""
    n = f.claimed_order
    if n is None:
        raise InvalidInputError("input formula carries no claimed order")
    if parity not in (None, ("even", "odd")[n % 2]):
        raise InvalidInputError(f"{what} needs an {parity}-order input")
    return n


def _assemble(f: ProductFormula, name: str, gain: int, copies: list[tuple[float, bool]],
              label: str | None = None) -> ProductFormula:
    """`copy_product` of f over the (s, inverted) copies, labelled `label`
    (name(f) by default) and of order n + gain. A product of more than
    formula.MAX_STEPS steps is refused before it is built."""
    check_steps(name, f, len(copies))
    return copy_product(f, copies, f"{name}({f.label})" if label is None else label,
                        f.claimed_order + gain)


# the 2-copy step's copies: f(x/sqrt2) f(-x/sqrt2)
_TWO_COPIES = [(1.0 / math.sqrt(2.0), False), (-1.0 / math.sqrt(2.0), False)]


def two_copy(f: ProductFormula) -> ProductFormula:
    """f(x/sqrt2) f(-x/sqrt2): raises an even order 2k to 2k+1."""
    _require_order(f, "even", "the 2-copy step")
    return _assemble(f, "two_copy", 1, _TWO_COPIES)


def _jk_copies(n: int) -> list[tuple[float, bool]]:
    """The triple-copy step's copies for an order-n input."""
    if n % 2 == 0:
        t = (2.0 + 2.0 ** (2.0 / (n + 1))) ** -0.5
        s = -(2.0 ** (1.0 / (n + 1))) * t
        return [(t, False), (s, False), (t, False)]
    u = (2.0 - 2.0 ** (2.0 / (n + 1))) ** -0.5
    v = (2.0 ** (1.0 / (n + 1))) * u
    return [(u, False), (v, True), (u, False)]


def jean_koseleff(f: ProductFormula) -> ProductFormula:
    """Triple-copy step raising order n to n+1, valid for either parity.

    Even n: f(tx) f(sx) f(tx) with t = (2 + 2^(2/(n+1)))^(-1/2) and
    s = -2^(1/(n+1)) t. Odd n: f(ux) f(vx)^(-1) f(ux) with
    u = (2 - 2^(2/(n+1)))^(-1/2) and v = 2^(1/(n+1)) u.
    """
    return _assemble(f, "jk", 1, _jk_copies(_require_order(f)))


def childs_wiebe5(f: ProductFormula) -> ProductFormula:
    """5-copy step f(vx)^2 f(mx)^(-1) f(vx)^2 raising odd order n to n+1.

    With z = 4^(1/(n+1)), sigma = z^2 / (4 (4 - z^2)), v = sqrt(1/4 + sigma)
    and m = sqrt(4 sigma); then 4 v^2 - m^2 = 1 preserves the commutator
    weight and 4 v^(n+1) - m^(n+1) = 0 cancels the leading error.
    """
    n = _require_order(f, "odd", "the 5-copy step")
    z2 = 4.0 ** (2.0 / (n + 1))
    sigma = z2 / (4.0 * (4.0 - z2))
    nu = math.sqrt(0.25 + sigma)
    mu = math.sqrt(4.0 * sigma)
    assert abs(4.0 * nu * nu - mu * mu - 1.0) < 1e-12
    assert abs(4.0 * nu ** (n + 1) - mu ** (n + 1)) < 1e-12
    return _assemble(f, "cw5", 1, [(nu, False), (nu, False), (mu, True), (nu, False), (nu, False)])


def build_q(f: ProductFormula) -> ProductFormula:
    """4-copy scheme raising order n to n+2 with sqrt(4 n) copies per level.

    f(a x/s) f(b x/s)^(-1) f(c x/s) f(d x/s)^(-1) with (a, b, c, d) from
    the power-condition solve and s = sqrt(a^2 - b^2 + c^2 - d^2).
    """
    sol = solve_sqrt4(_require_order(f))
    scale = 1.0 / math.sqrt(sol.signed_sum)
    return _assemble(f, "q4", 2, [(sol.a * scale, False), (sol.b * scale, True),
                                  (sol.c * scale, False), (sol.d * scale, True)])


def build_w(f: ProductFormula) -> ProductFormula:
    """5-copy scheme raising order n to n+2 with sqrt(5 n) copies per level.

    f(-s'x/r) f(x/r)^(-1) f(sx/r) f(-x/r)^(-1) f(-s'x/r) with
    s = (2 / (1 + 2^(1/(n+2))))^(1/(n+1)), s' = 2^(-1/(n+2)) s and
    r = sqrt(s^2 + 2 s'^2 - 2). The two cancellation identities behind
    the +2 jump hold for odd n, which is every order this package feeds
    it; other n > 1 are accepted and built as printed.
    """
    n = _require_order(f)
    if n <= 1:
        raise InvalidInputError("the 5-copy squared scheme needs order n > 1")
    s = (2.0 / (1.0 + 2.0 ** (1.0 / (n + 2)))) ** (1.0 / (n + 1))
    s_prime = 2.0 ** (-1.0 / (n + 2)) * s
    r = math.sqrt(s * s + 2.0 * s_prime * s_prime - 2.0)
    return _assemble(f, "w5", 2, [(-s_prime / r, False), (1.0 / r, True), (s / r, False),
                                  (-1.0 / r, True), (-s_prime / r, False)])


def build_v(f: ProductFormula) -> ProductFormula:
    """6-copy scheme raising odd order n to n+2: the odd triple-copy step
    at x/sqrt2 composed with its negated-argument twin."""
    _require_order(f, "odd", "the 6-copy scheme")
    return _assemble(jean_koseleff(f), "two_copy", 1, _TWO_COPIES, f"v6({f.label})")


def build_g(f: ProductFormula) -> ProductFormula:
    """10-copy scheme raising odd order n to n+2: the 5-copy step followed
    by the 2-copy step."""
    _require_order(f, "odd", "the 10-copy scheme")
    return _assemble(childs_wiebe5(f), "two_copy", 1, _TWO_COPIES, f"g10({f.label})")


def build_cw_sqrt6_baseline(f: ProductFormula) -> ProductFormula:
    """6-copy baseline raising even order n to n+2: 2-copy then the
    triple-copy step. Applied to the 4-gate base this is the 22-gate
    fourth-order benchmark formula."""
    _require_order(f, "even", "the 6-copy baseline")
    g = two_copy(f)
    return _assemble(g, "jk", 1, _jk_copies(g.claimed_order), f"cw6({f.label})")


def sum_comm_step(f: ProductFormula) -> ProductFormula:
    """Order-raising step for sum-plus-commutator formulas.

    Even m: f(ax) f(bx)^(-1) f(ax) with a = (2 - 2^(1/(m+1)))^(-1) and
    b = 2^(1/(m+1)) a, so 2a - b = 1. Odd m: f(-x/2)^(-1) f(x/2). The
    step acts on the stored coefficients; the order bookkeeping follows
    the family in which the commutator weight scales linearly with x.
    """
    m = _require_order(f)
    if m % 2 == 0:
        a = 1.0 / (2.0 - 2.0 ** (1.0 / (m + 1)))
        b = 2.0 ** (1.0 / (m + 1)) * a
        return _assemble(f, "sumcomm", 1, [(a, False), (b, True), (a, False)])
    return _assemble(f, "sumcomm", 1, [(-0.5, True), (0.5, False)])


# The order-raising schemes, keyed by their `build --scheme` names.
SCHEMES = {
    "two-copy": two_copy,
    "jk": jean_koseleff,
    "cw5": childs_wiebe5,
    "q4": build_q,
    "w5": build_w,
    "v6": build_v,
    "g10": build_g,
    "cw-sqrt6": build_cw_sqrt6_baseline,
    "sum-comm": sum_comm_step,
}


def apply_scheme(name: str, f: ProductFormula) -> ProductFormula:
    """The scheme registered under `name` in SCHEMES, applied to f."""
    if not isinstance(name, str) or name not in SCHEMES:
        raise InvalidInputError(f"unknown scheme {name!r}; known: {', '.join(SCHEMES)}")
    if not isinstance(f, ProductFormula):
        raise InvalidInputError(f"scheme {name!r} needs a ProductFormula, got {type(f).__name__}")
    return SCHEMES[name](f)


def pure_commutator_library() -> dict[str, ProductFormula]:
    """Named formulas shipped with the package, all targeting exp(x^2 [A,B]).

    The bases S2 and S3; V4t, the 6-copy baseline on S2; and Q5, W5, V5
    and G5, the 4-, 5-, 6- and 10-copy schemes on S3.
    """
    built = {"V4t": build_cw_sqrt6_baseline(s2()), "Q5": build_q(s3()), "W5": build_w(s3()),
             "V5": build_v(s3()), "G5": build_g(s3())}
    return {"S2": s2(), "S3": s3(), **{name: replace(f, label=name) for name, f in built.items()}}
