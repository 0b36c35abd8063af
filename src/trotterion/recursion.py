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
from .formula import ProductFormula, concat
from .solver import solve_sqrt4


def _require_order(f: ProductFormula) -> int:
    if f.claimed_order is None:
        raise InvalidInputError("input formula carries no claimed order")
    return f.claimed_order


def two_copy(f: ProductFormula) -> ProductFormula:
    """f(x/sqrt2) f(-x/sqrt2): raises an even order 2k to 2k+1."""
    n = _require_order(f)
    if n % 2 != 0:
        raise InvalidInputError("the 2-copy step needs an even-order input")
    root = 1.0 / math.sqrt(2.0)
    out = concat([f.scale_argument(root), f.scale_argument(-root)],
                 label=f"two_copy({f.label})", claimed_order=n + 1)
    return out.simplify()


def jean_koseleff(f: ProductFormula) -> ProductFormula:
    """Triple-copy step raising order n to n+1, valid for either parity.

    Even n: f(tx) f(sx) f(tx) with t = (2 + 2^(2/(n+1)))^(-1/2) and
    s = -2^(1/(n+1)) t. Odd n: f(ux) f(vx)^(-1) f(ux) with
    u = (2 - 2^(2/(n+1)))^(-1/2) and v = 2^(1/(n+1)) u.
    """
    n = _require_order(f)
    if n % 2 == 0:
        t = (2.0 + 2.0 ** (2.0 / (n + 1))) ** -0.5
        s = -(2.0 ** (1.0 / (n + 1))) * t
        parts = [f.scale_argument(t), f.scale_argument(s), f.scale_argument(t)]
    else:
        u = (2.0 - 2.0 ** (2.0 / (n + 1))) ** -0.5
        v = (2.0 ** (1.0 / (n + 1))) * u
        parts = [f.scale_argument(u), f.scale_argument(v).inverse(), f.scale_argument(u)]
    out = concat(parts, label=f"jk({f.label})", claimed_order=n + 1)
    return out.simplify()


def childs_wiebe5(f: ProductFormula) -> ProductFormula:
    """5-copy step f(vx)^2 f(mx)^(-1) f(vx)^2 raising odd order n to n+1.

    With z = 4^(1/(n+1)), sigma = z^2 / (4 (4 - z^2)), v = sqrt(1/4 + sigma)
    and m = sqrt(4 sigma); then 4 v^2 - m^2 = 1 preserves the commutator
    weight and 4 v^(n+1) - m^(n+1) = 0 cancels the leading error.
    """
    n = _require_order(f)
    if n % 2 == 0:
        raise InvalidInputError("the 5-copy step needs an odd-order input")
    z2 = 4.0 ** (2.0 / (n + 1))
    sigma = z2 / (4.0 * (4.0 - z2))
    nu = math.sqrt(0.25 + sigma)
    mu = math.sqrt(4.0 * sigma)
    assert abs(4.0 * nu * nu - mu * mu - 1.0) < 1e-12
    assert abs(4.0 * nu ** (n + 1) - mu ** (n + 1)) < 1e-12
    fwd = f.scale_argument(nu)
    parts = [fwd, fwd, f.scale_argument(mu).inverse(), fwd, fwd]
    out = concat(parts, label=f"cw5({f.label})", claimed_order=n + 1)
    return out.simplify()


def build_q(f: ProductFormula) -> ProductFormula:
    """4-copy scheme raising order n to n+2 with sqrt(4 n) copies per level.

    f(a x/s) f(b x/s)^(-1) f(c x/s) f(d x/s)^(-1) with (a, b, c, d) from
    the power-condition solve and s = sqrt(|a^2 - b^2 + c^2 - d^2|). A
    negative signed square sum would flip the target to exp(-x^2 [A,B]);
    the result is then tagged in its label and callers wanting the
    positive target take the inverse.
    """
    n = _require_order(f)
    sol = solve_sqrt4(n)
    scale = 1.0 / math.sqrt(abs(sol.signed_sum))
    parts = [
        f.scale_argument(sol.a * scale),
        f.scale_argument(sol.b * scale).inverse(),
        f.scale_argument(sol.c * scale),
        f.scale_argument(sol.d * scale).inverse(),
    ]
    label = f"q4({f.label})"
    if sol.signed_sum < 0.0:
        label += "[inverse-target]"
    out = concat(parts, label=label, claimed_order=n + 2)
    return out.simplify()


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
    outer = f.scale_argument(-s_prime / r)
    parts = [
        outer,
        f.scale_argument(1.0 / r).inverse(),
        f.scale_argument(s / r),
        f.scale_argument(-1.0 / r).inverse(),
        outer,
    ]
    out = concat(parts, label=f"w5({f.label})", claimed_order=n + 2)
    return out.simplify()


def build_v(f: ProductFormula) -> ProductFormula:
    """6-copy scheme raising odd order n to n+2: the odd triple-copy step
    at x/sqrt2 composed with its negated-argument twin."""
    n = _require_order(f)
    if n % 2 == 0:
        raise InvalidInputError("the 6-copy scheme needs an odd-order input")
    out = two_copy(jean_koseleff(f))
    return replace(out, label=f"v6({f.label})")


def build_g(f: ProductFormula) -> ProductFormula:
    """10-copy scheme raising odd order n to n+2: the 5-copy step followed
    by the 2-copy step."""
    n = _require_order(f)
    if n % 2 == 0:
        raise InvalidInputError("the 10-copy scheme needs an odd-order input")
    out = two_copy(childs_wiebe5(f))
    return replace(out, label=f"g10({f.label})")


def build_cw_sqrt6_baseline(f: ProductFormula) -> ProductFormula:
    """6-copy baseline raising even order n to n+2: 2-copy then the
    triple-copy step. Applied to the 4-gate base this is the 22-gate
    fourth-order benchmark formula."""
    n = _require_order(f)
    if n % 2 != 0:
        raise InvalidInputError("the 6-copy baseline needs an even-order input")
    out = jean_koseleff(two_copy(f))
    return replace(out, label=f"cw6({f.label})")


def sum_comm_step(f: ProductFormula) -> ProductFormula:
    """Order-raising step for sum-plus-commutator formulas.

    Even m: f(ax) f(bx)^(-1) f(ax) with a = (2 - 2^(1/(m+1)))^(-1) and
    b = 2^(1/(m+1)) a, so 2a - b = 1. Odd m: f(-x/2)^(-1) f(x/2). The
    step acts on the stored coefficients; the order bookkeeping follows
    the family in which the commutator weight scales linearly with x.
    """
    m = _require_order(f)
    if m < 1:
        raise InvalidInputError("source order must be a positive integer")
    if m % 2 == 0:
        a = 1.0 / (2.0 - 2.0 ** (1.0 / (m + 1)))
        b = 2.0 ** (1.0 / (m + 1)) * a
        parts = [f.scale_argument(a), f.scale_argument(b).inverse(), f.scale_argument(a)]
    else:
        parts = [f.scale_argument(-0.5).inverse(), f.scale_argument(0.5)]
    out = concat(parts, label=f"sumcomm({f.label})", claimed_order=m + 1)
    return out.simplify()


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
    if name not in SCHEMES:
        raise InvalidInputError(f"unknown scheme {name!r}; known: {', '.join(SCHEMES)}")
    return SCHEMES[name](f)


def pure_commutator_library() -> dict[str, ProductFormula]:
    """Named formulas shipped with the package, all targeting exp(x^2 [A,B]).

    The bases S2 and S3; V4t, the 6-copy baseline on S2; and Q5, W5, V5
    and G5, the 4-, 5-, 6- and 10-copy schemes on S3.
    """
    built = {"V4t": build_cw_sqrt6_baseline(s2()), "Q5": build_q(s3()), "W5": build_w(s3()),
             "V5": build_v(s3()), "G5": build_g(s3())}
    return {"S2": s2(), "S3": s3(), **{name: replace(f, label=name) for name, f in built.items()}}
