"""Product formulas as explicit exponential sequences, plus their algebra.

A product formula is an ordered tuple of (tag, coefficient) steps; the
step (g, c) stands for the factor exp(c * x * G_g), where G_g is the
generator bound to tag "A", "B" or "C" at evaluation time and x is the
overall argument. The first step in the tuple is the leftmost factor of
the product.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import matcore
from .errors import InvalidInputError

TAGS = ("A", "B", "C")
MERGE_TOL = 1e-14
# Most steps a product of copies may have, before simplification: `repeat`
# and every recursion scheme refuse more before building a copy. Each g10
# level multiplies the steps by about 10: five levels on S3 make 555556
# steps, a sixth would make millions.
MAX_STEPS = 10**6
# Most words `word_layers` builds, and most updates one step of a one-letter
# series makes, degree * (degree + 1) / 2, so one letter reaches degree 361.
# S3 to degree 16 is 131071 words, 0.2 s and a 68 MB process peak on a
# 2-vCPU Xeon, and each degree doubles all three. Three g10 levels on S3 need
# degree 11, 4095 words.
MAX_WORDS = 2**16


@dataclass(frozen=True)
class GeneratorPair:
    """The concrete matrices bound to the step tags.

    `c` is optional; it is only consulted when a formula contains
    "C"-tagged steps. Construction decides for each generator whether it
    is anti-Hermitian (to matcore.HERMITICITY_TOL) and builds each such
    generator's eigendecomposition, so each factor e^{tG} costs one
    product. Nothing on the pair changes after construction.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None
    # tag -> its matrix, over the tags bound to a generator
    _matrices: dict = field(init=False, repr=False, compare=False)
    # tag -> its SkewSpectrum, over the anti-Hermitian tags
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
        bound = {tag: g for tag, g in zip(TAGS, (self.a, self.b, self.c)) if g is not None}
        with np.errstate(all="ignore"):  # a spectrum that overflows is NaN, which exp refuses
            spectra = {tag: matcore.SkewSpectrum(-1j * g) for tag, g in bound.items()
                       if matcore.is_hermitian(-1j * g)}
        object.__setattr__(self, "_matrices", bound)
        object.__setattr__(self, "_spectra", spectra)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def matrix(self, tag: str) -> np.ndarray:
        if tag not in TAGS:
            raise InvalidInputError(f"unknown generator tag {tag!r}")
        if tag not in self._matrices:
            raise InvalidInputError("formula uses tag C but no C generator was supplied")
        return self._matrices[tag]

    def exp(self, tag: str, t) -> np.ndarray:
        """e^{t G} for the generator bound to `tag`, for a real scalar t or a
        1-D array of k reals (then a (k, d, d) stack), read by
        `matcore.as_numeric`, so a bool or a string is refused on either route.

        Spectral for an anti-Hermitian generator, from its decomposition;
        one matcore.expm of the stack t G for any other, which gives each
        value what its own call gives.
        """
        t = matcore.as_numeric(t, "exponent t", float)
        g = self.matrix(tag)
        if tag in self._spectra:
            return self._spectra[tag].exp(t)
        return matcore.expm(t[..., None, None] * g)


@dataclass(frozen=True)
class WordSums:
    """Word coefficients of a two-generator formula, from `word_series`.

    Field `ba`, for example, is the coefficient of x^2 BA in the expansion
    of the product: the sum of c_i * c_j over step positions i < j where
    step i is B-tagged and step j is A-tagged. `a2ba` is the coefficient
    of AABA and `b2ab` that of BBAB.
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


# Most bytes of factor matrices one `_grouped_product` call holds at once
# (8 MiB). A factor takes three d x d complex slots: its place in the
# block's stack and the two working arrays of the exponential that fills
# it. Blocks are sized to fit over all rows: for one row, 42 factors at 64
# modes and one from 296 modes up. Beyond 418 modes that one factor's three
# slots exceed the cap.
EVALUATION_BYTES = 1 << 23


def _items_per_cap(item_bytes: int) -> int:
    """The chunk rule: items of item_bytes that fit EVALUATION_BYTES, >= 1."""
    return max(1, EVALUATION_BYTES // item_bytes)


def _pairwise_product(stack: np.ndarray) -> np.ndarray:
    """stack[..., 0, :, :] @ stack[..., 1, :, :] @ ... over the factor axis,
    the third from last, in about log2(len) batched products of
    neighbouring pairs; an odd last factor joins the last pair. A leading
    batch axis gives one product per entry."""
    while stack.shape[-3] > 1:
        n = stack.shape[-3]
        paired = stack[..., 0:n - 1:2, :, :] @ stack[..., 1::2, :, :]
        if n % 2:
            paired[..., -1, :, :] = paired[..., -1, :, :] @ stack[..., -1, :, :]
        stack = paired
    return stack[..., 0, :, :]


def _grouped_product(gens: GeneratorPair, f: "ProductFormula", t: np.ndarray) -> np.ndarray:
    """Each row's product, first step leftmost, of the exponentials
    e^{t[i, j] G_g} over the steps j that f tags g, for a (rows, steps)
    table t of exponents, on f's step layout (`ProductFormula._by_tag`).

    The one home of product-of-exponential evaluation: `ProductFormula.
    evaluate` and `certify.power_errors` call it through `_products`, and
    `apps.cd.cd_run` on both protocols of a chunk of ramp slices. The
    steps are taken in blocks whose factors,
    over all rows, fit EVALUATION_BYTES. A block's factors come from one
    exponential call per tag into a stack, whose pairwise product is
    folded into the running product. A block's columns of a tag are the
    slice of its positions that two binary searches find.
    """
    rows, n = t.shape
    d = gens.dim
    if not t.size:  # no rows, or no steps: each product is the identity
        return np.broadcast_to(np.eye(d, dtype=complex), (rows, d, d)).copy()
    block = min(n, _items_per_cap(3 * 16 * d * d * rows))
    out = None
    for start in range(0, n, block):
        part = t[:, start:start + block]
        stack = np.empty(part.shape + (d, d), dtype=complex)
        for tag, at in f._by_tag[2]:
            if block < n:
                first, last = np.searchsorted(at, (start, start + block))
                at = at[first:last] - start
            if len(at):
                stack[:, at] = gens.exp(tag, part[:, at].ravel()).reshape(rows, len(at), d, d)
        product = _pairwise_product(stack)
        out = product if out is None else out @ product
    return out


def _products(gens: GeneratorPair, f: "ProductFormula", coeffs: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_grouped_product` of the exponents coeffs * x[:, None], a row per
    entry of the 1-D x, and which rows are finite. An exponent the
    exponential cannot take is refused there; a product that overflows is
    left for the caller to refuse."""
    with np.errstate(all="ignore"):
        out = _grouped_product(gens, f, coeffs * x[:, None])
    return out, np.isfinite(out).all(axis=(1, 2))


@dataclass(frozen=True)
class ProductFormula:
    """An ordered list of (tag, coefficient) exponential steps."""

    steps: tuple[tuple[str, float], ...]
    label: str = ""
    claimed_order: int | None = None

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise InvalidInputError(f"label must be a string, got {self.label!r}")
        clean = []
        try:
            steps = iter(self.steps)
        except TypeError:
            raise InvalidInputError(f"steps {self.steps!r} are not a sequence") from None
        for step in steps:
            try:
                tag, coeff = step
            except (TypeError, ValueError):
                raise InvalidInputError(f"step {step!r} is not a (tag, coefficient) pair")
            if tag not in TAGS:
                raise InvalidInputError(f"unknown step tag {tag!r}")
            # a finite Python float, as nearly every step is, needs no rule
            if type(coeff) is not float or not math.isfinite(coeff):
                coeff = as_real(coeff, "step coefficient",
                                message="step coefficients must be finite")
            clean.append((tag, coeff))
        object.__setattr__(self, "steps", tuple(clean))
        if self.claimed_order is not None:
            order = as_count(self.claimed_order, "claimed_order")
            if order < 1:
                raise InvalidInputError("claimed_order must be a positive integer or None")
            object.__setattr__(self, "claimed_order", order)

    def __len__(self) -> int:
        return len(self.steps)

    @functools.cached_property
    def _by_tag(self) -> tuple[tuple[str, ...], np.ndarray, tuple]:
        """The step tags, the coefficients as a (1, steps) array and the
        step layout `_grouped_product` reads: for each tag, in order of
        first use, the sorted positions of its steps. Built on the first
        evaluation, since most formulas the recursion makes are never
        evaluated, and freed with the formula."""
        tags = tuple(tag for tag, _ in self.steps)
        tagged = np.array(tags)
        layout = tuple((tag, np.flatnonzero(tagged == tag)) for tag in dict.fromkeys(tags))
        return tags, np.array([[coeff for _, coeff in self.steps]]), layout

    def evaluate(self, gens: GeneratorPair, x) -> np.ndarray:
        """Multiply out the steps at argument x, first step leftmost, with
        `_products`, for a scalar x or a 1-D array of k values (then a
        (k, d, d) stack, one product per x, in blocks sized over all k).
        An exponent or a product that overflows is refused.
        """
        xs = matcore.as_numeric(x, "argument x", float)
        if xs.ndim > 1:
            raise InvalidInputError("argument x must be a scalar or a 1-D array")
        if not np.isfinite(xs).all():
            raise InvalidInputError("argument x must be finite")
        out, finite = _products(gens, self, self._by_tag[1], xs.reshape(-1))
        if not finite.all():
            raise InvalidInputError("product of exponentials overflows")
        return out if xs.ndim else out[0]

    def inverse(self) -> "ProductFormula":
        """Reverse the steps and negate every coefficient."""
        rev = tuple((tag, -coeff) for tag, coeff in reversed(self.steps))
        return replace(self, steps=rev)

    def scale_argument(self, v: float) -> "ProductFormula":
        """Multiply every coefficient by v, so f.scale(v)(x) = f(v*x)."""
        v = as_real(v, "scale factor")
        return replace(self, steps=tuple((tag, coeff * v) for tag, coeff in self.steps))

    def simplify(self) -> "ProductFormula":
        """Merge adjacent same-tag steps and drop coefficients below 1e-14."""
        return replace(self, steps=tuple(merged_steps(self.steps)))

    def gate_count(self) -> int:
        """Number of elementary exponentials after simplification."""
        return len(merged_steps(self.steps))

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


def merged_steps(steps: Sequence[tuple[str, float]]) -> list[tuple[str, float]]:
    """The steps with adjacent same-tag steps merged and coefficients below
    MERGE_TOL dropped, as `ProductFormula.simplify` takes them. A NaN,
    which only a merge of opposite overflows makes, is kept, for the
    formula built from the result to refuse."""
    merged: list[tuple[str, float]] = []
    top = None  # the tag of merged[-1]
    for step in steps:
        if step[0] == top:
            step = (top, merged.pop()[1] + step[1])
        if abs(step[1]) < MERGE_TOL:
            top = merged[-1][0] if merged else None
        else:
            merged.append(step)
            top = step[0]
    return merged


def concat(formulas: Sequence[ProductFormula], label: str = "",
           claimed_order: int | None = None) -> ProductFormula:
    """Chain several formulas into one product, left to right."""
    steps: list[tuple[str, float]] = []
    for f in formulas:
        steps.extend(f.steps)
    return ProductFormula(tuple(steps), label=label, claimed_order=claimed_order)


def as_count(value, what: str, positive: bool = False) -> int:
    """The one count rule: value as a Python int, from any integer type
    (numpy's included). A bool, a float (2.0 among them), a string or a
    value of any other type is refused, and so is a value < 1 with `positive`."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if positive and count < 1:
                raise InvalidInputError(f"{what} must be positive, got {count}")
            return count
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def as_flag(value, what: str) -> bool:
    """The one on/off rule: value as a Python bool, from a bool or a numpy
    bool. Any other value, a truthy string or 1 among them, is refused."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{what} must be True or False, got {value!r}")
    return bool(value)


def as_real(value, what: str, positive: bool = False, limit: float | None = None,
            message: str | None = None) -> float:
    """The one real-number rule: value as a Python float, from any real
    scalar type (numpy's included). A bool, a string, a complex value, a
    sequence or a value of any other type is refused, and so is a NaN, an
    infinity (an int beyond the float range counts as one), a value <= 0
    with `positive`, and one beyond `limit` in magnitude. `limit=math.inf`
    lets the infinities through. A refused value's message is `message`
    when given, otherwise "<what> must be [positive and] finite [and at
    most <limit>]"; a refused type's names the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{what} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf if value > 0 else -math.inf
    largest = sys.float_info.max if limit is None else limit
    if not (out > 0.0 if positive else out == out) or abs(out) > largest:
        if message is None:
            bound = "" if limit is None else f" and at most {limit:g}"
            message = f"{what} must be {'positive and ' if positive else ''}finite{bound}"
        raise InvalidInputError(message)
    return out


def copy_product(f: ProductFormula, copies: Sequence[tuple[float, bool]], label: str,
                 claimed_order: int | None) -> ProductFormula:
    """The simplified product of f(s x), or of its inverse where flagged,
    over the (s, inverted) copies, labelled `label` and of order
    `claimed_order`: the steps f.scale_argument(s) (then .inverse())
    give each copy, chained and merged in one pass into one formula. A
    scaled coefficient that overflows stays non-finite through the merge,
    and the formula refuses it as scale_argument does."""
    steps: list[tuple[str, float]] = []
    for s, inverted in copies:
        if inverted:
            steps += [(tag, -(coeff * s)) for tag, coeff in reversed(f.steps)]
        else:
            steps += [(tag, coeff * s) for tag, coeff in f.steps]
    return ProductFormula(tuple(merged_steps(steps)), label=label, claimed_order=claimed_order)


def check_steps(name: str, f: ProductFormula, copies: int) -> None:
    """Refuse a product of `copies` copies of f with more than MAX_STEPS
    steps, before any copy is built; `name` names the product."""
    if copies * len(f) > MAX_STEPS:
        raise InvalidInputError(f"{name} of a {len(f)}-step formula would have "
                                f"{copies * len(f)} steps, more than {MAX_STEPS}")


def repeat(f: ProductFormula, r: int, commutator_target: bool = True) -> ProductFormula:
    """r-fold repetition, simplified.

    For a commutator target each copy is argument-scaled by 1/sqrt(r),
    so the repeated formula approximates the same exp(x^2 [A,B]); for a
    linear target the copies are left unscaled.
    """
    r = as_count(r, "repetition count", positive=True)
    check_steps("repeat", f, r)
    scale = 1.0 / math.sqrt(r) if as_flag(commutator_target, "commutator_target") else 1.0
    return copy_product(f, [(scale, False)] * r, f.label, f.claimed_order)


def word_layers(f: ProductFormula, degree: int) -> tuple[str, list[list[float]]]:
    """The letters f uses, sorted, and for each length k <= degree the
    coefficients of the words w_1 ... w_k (G_{w_1} ... G_{w_k} x^k) in the
    formal expansion of the product of exp(c_i x G_i), numbered in base L
    over the L letters: word u of length k followed by letter g is entry
    u * L + g of the next layer.

    One pass over the steps builds them in one list, word u of length k at
    first[k] + u, first[k] counting the shorter words. A step (g, c) adds
    coeff(u) c^m / m! to each word u g^m, number first[m] (g + 1) + u L**m,
    longest word first, m rising, so each prefix is read before the step
    changes it. The memory is O(words * degree), built per call: at most
    MAX_WORDS words, and for one letter at most MAX_WORDS updates a step. A
    c^m / m! or a coefficient beyond the float range is refused.
    """
    degree = as_count(degree, "degree")
    if degree < 0:
        raise InvalidInputError(f"degree must be a non-negative integer, got {degree!r}")
    letters = "".join(sorted({tag for tag, _ in f.steps}))
    n = len(letters)
    # the word count, the sum of n**k over k <= degree: for n >= 2 summed to
    # degree 64 at most, which already passes 2**64
    count = 1 if n == 0 else degree + 1 if n == 1 else (n ** (min(degree, 64) + 1) - 1) // (n - 1)
    if count > MAX_WORDS:
        raise InvalidInputError(f"a word series to degree {degree} over an alphabet of size {n} "
                                f"has at least {count} words, more than {MAX_WORDS}")
    if n == 1 and degree * (degree + 1) // 2 > MAX_WORDS:
        raise InvalidInputError(f"a one-letter word series to degree {degree} makes "
                                f"{degree * (degree + 1) // 2} updates a step, "
                                f"more than {MAX_WORDS}")
    if n == 0:  # only the empty word
        return letters, [[1.0]] + [[] for _ in range(degree)]
    first = [k if n == 1 else (n**k - 1) // (n - 1) for k in range(degree + 2)]
    # letter g -> (u g^m, u, m) over the numbers u, longest word first, m rising
    updates = {g: [(first[m] * (i + 1) + u * n**m, u, m) for k in range(degree, 0, -1)
                   for m in range(1, k + 1) for u in range(first[k - m], first[k - m + 1])]
               for i, g in enumerate(letters)}
    # c**m / m! as written while m! is a float, to m = 170; from one to the next after
    low, high = range(min(degree, 170) + 1), range(171, degree + 1)
    factorials = [math.factorial(m) for m in low]
    overflow = f"word series to degree {degree} overflows"
    series = [1.0] + [0.0] * (first[-1] - 1)
    for g, c in f.steps:
        try:
            scale = [c**m / factorials[m] for m in low]
        except OverflowError:  # from c**m
            raise InvalidInputError(overflow) from None
        for m in high:
            scale.append(scale[-1] * c / m)
        for i, j, m in updates[g]:
            series[i] += series[j] * scale[m]
    if not all(map(math.isfinite, series)):
        raise InvalidInputError(overflow)
    return letters, [series[first[k]:first[k + 1]] for k in range(degree + 1)]


def word_series(f: ProductFormula, degree: int) -> dict[str, float]:
    """`word_layers` as one dict keyed by words such as "BA", shortest first."""
    letters, layers = word_layers(f, degree)
    words = ("".join(w) for k, layer in enumerate(layers) if layer
             for w in itertools.product(letters, repeat=k))
    return dict(zip(words, itertools.chain.from_iterable(layers)))


def word_sums(f: ProductFormula) -> WordSums:
    """The nine word coefficients the fourth-order conditions use."""
    if any(tag == "C" for tag, _ in f.steps):
        raise InvalidInputError("word sums are defined for two-generator formulas only")
    letters, layers = word_layers(f, 4)
    digits = str.maketrans(letters, "01"[:len(letters)])  # a number in base 2: A, B or both
    words = ("A", "B", "BA", "ABA", "BAB", "AABA", "BBAB", "ABAB", "BABA")
    return WordSums(*(layers[len(w)][int(w.translate(digits), 2)] if set(w) <= set(letters)
                      else 0.0 for w in words))


def to_json(f: ProductFormula) -> str:
    """Serialize to the on-disk JSON schema; floats round-trip bit-exactly.

    The text is json.dumps({"label", "claimed_order", "steps"}, indent=2)
    byte for byte, written directly: with an indent the standard library
    encodes in pure Python, about four times slower on a deep formula.
    Each coefficient is a finite float, which both write as its repr."""
    if not isinstance(f, ProductFormula):
        raise InvalidInputError(f"to_json needs a ProductFormula, got {type(f).__name__}")
    head = (f'{{\n  "label": {json.dumps(f.label)},\n'
            f'  "claimed_order": {json.dumps(f.claimed_order)},\n  "steps": ')
    if not f.steps:
        return head + "[]\n}"
    body = ",\n".join([f'    [\n      "{tag}",\n      {coeff!r}\n    ]' for tag, coeff in f.steps])
    return head + "[\n" + body + "\n  ]\n}"


def from_json(text: str | bytes | bytearray) -> ProductFormula:
    if not isinstance(text, (str, bytes, bytearray)):
        raise InvalidInputError(f"formula JSON must be text, got {type(text).__name__}")
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"malformed formula JSON: {exc}") from exc
    if not isinstance(payload, dict) or "steps" not in payload:
        raise InvalidInputError("formula JSON must be an object with a 'steps' list")
    steps = payload["steps"]
    if not isinstance(steps, list):
        raise InvalidInputError("'steps' must be a list")
    return ProductFormula(tuple(steps), label=payload.get("label", ""),
                          claimed_order=payload.get("claimed_order"))
