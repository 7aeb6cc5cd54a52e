"""Exact multivariate polynomials over the rationals, in packed form.

The coefficient ring for everything symbolic in this package: polynomials in
the generators ``a_m``, ``abar_m`` (m >= 1), ``lambda`` (the highest weight)
and ``c`` (the central charge), with exact rational coefficients.  No
floating point enters this module.

Representation (packed exponent vectors, after Monagan & Pearce, CASC 2007):

* A monomial is one Python int made of 16-bit fields, one per generator:
  15 bits of exponent under a guard bit.  Each generator owns a fixed
  field (its slot): ``lambda -> 0``, ``c -> 1``, ``a_m -> 2m`` and
  ``abar_m -> 2m + 1``, for m up to ``MAX_INDEX``.  The product of two
  monomials is the sum of their ints; a guard bit set in the sum means an
  exponent passed ``MAX_EXPONENT``, which raises ``OverflowError`` and
  never wraps into the next field.
* A polynomial holds ``{monomial: numerator}`` with int numerators over one
  positive shared denominator, reduced so that the denominator and all
  numerators have gcd 1.  That form is canonical, so equality and hashing
  compare it directly, and the arithmetic loops touch only ints.

A first-order operator ``sum_g d_g * d/dg + s`` acts through ``first_order``,
and a sum of products ``sum a * b`` is taken by ``sum_of_products``, each in
one pass: every product term goes into one accumulator over one common
denominator, and only the result is reduced.  One schoolbook loop serves
both and ``__mul__``.  The operator is one operand, a ``Derivation``
prepared once: each coefficient's terms, denominator and reach, keyed by
the bit offset of its generator's field.  ``Derivation.with_scalar`` adds
the multiplication part ``s`` and shares those prepared parts.  A call ORs
its input's monomials once and visits only the fields the two share, with
no ``Generator`` built or hashed.  ``derivative`` is the one-generator
case of the same kernel.

Only the public boundary decodes (memoized per monomial): ``terms()``, the
constant accessors, the grading query and the canonical text.  There a
coefficient is a ``fractions.Fraction`` and a monomial is a tuple of
``(kind, index, exponent)`` triples in the canonical generator order, fixed
once and for all: the a-block sorts before the abar-block, and the two
scalar symbols trail (``a1 < a2 < ... < abar1 < abar2 < ... < lambda < c``).
Serialization ("canonical text") is graded-lexicographic in that order, so
equal polynomials always print identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import or_
from typing import Collection, Iterable, Iterator, Mapping

__all__ = [
    "Generator",
    "CoeffPoly",
    "Derivation",
    "LAMBDA",
    "CC",
    "a",
    "abar",
]

# Generator kinds.  The integer values define the canonical block order.
_KIND_A = 0
_KIND_ABAR = 1
_KIND_LAMBDA = 2
_KIND_CC = 3

_KIND_NAMES = {_KIND_A: "a", _KIND_ABAR: "abar", _KIND_LAMBDA: "lambda", _KIND_CC: "c"}

# The decoded (public) monomial: (kind, index, exponent) triples sorted by
# (kind, index), all exponents > 0; the empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int, int], ...]
# A polynomial as the first-order kernel reads it: ((packed monomial, numerator), ...),
# the denominator, and the OR of the monomials (see _prepared).
Prepared = tuple[tuple[tuple[int, int], ...], int, int]

_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1
MAX_INDEX = (1 << 12) - 1
_SLOTS = 2 * MAX_INDEX + 2
# One guard bit on top of every field: a geometric series, summed in closed form.
_GUARD = ((1 << (_FIELD * _SLOTS)) - 1) // _FIELD_MASK << (_FIELD - 1)
# The a_m fields (m >= 1), i.e. the low field of every 32-bit pair but the scalars'.
_A_FIELDS = (((1 << (2 * _FIELD * (MAX_INDEX + 1))) - 1) // ((1 << 2 * _FIELD) - 1) - 1) * _FIELD_MASK
_SCALAR_FIELDS = (1 << 2 * _FIELD) - 1


@dataclass(frozen=True, slots=True)
class Generator:
    """A formal generator of the coefficient ring.

    ``kind`` is one of the module-level block tags; ``index`` is the
    coefficient index for the a/abar families and 0 for the scalars.
    """

    kind: int
    index: int

    def __post_init__(self) -> None:
        if self.kind in (_KIND_A, _KIND_ABAR):
            if self.index < 1:
                raise ValueError(f"coefficient generators need index >= 1, got {self.index}")
        elif self.kind in (_KIND_LAMBDA, _KIND_CC):
            if self.index != 0:
                raise ValueError("scalar generators carry no index")
        else:
            raise ValueError(f"unknown generator kind {self.kind}")

    @property
    def name(self) -> str:
        base = _KIND_NAMES[self.kind]
        return base if self.index == 0 else f"{base}{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"Generator({self.name})"


def a(m: int) -> Generator:
    """The interior coefficient generator ``a_m``."""
    return Generator(_KIND_A, m)


def abar(m: int) -> Generator:
    """The conjugate coefficient generator ``abar_m``."""
    return Generator(_KIND_ABAR, m)


LAMBDA = Generator(_KIND_LAMBDA, 0)
CC = Generator(_KIND_CC, 0)


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# -- packed monomials ----------------------------------------------------


def _shift(kind: int, index: int) -> int | None:
    """Bit offset of a generator's field, None past the packed range."""
    if kind == _KIND_LAMBDA:
        return 0
    if kind == _KIND_CC:
        return _FIELD
    if index > MAX_INDEX:
        return None
    return _FIELD * (2 * index + (kind == _KIND_ABAR))


def _encode(mono: Monomial) -> int:
    packed = 0
    for kind, index, exp in mono:
        shift = _shift(kind, index)
        if shift is None:
            raise OverflowError(f"generator index {index} exceeds the packed range {MAX_INDEX}")
        if exp > MAX_EXPONENT:
            raise OverflowError(f"exponent {exp} exceeds the packed field {MAX_EXPONENT}")
        if exp < 1:
            raise ValueError(f"monomial exponents must be positive, got {exp}")
        packed += exp << shift
    if packed & _GUARD:
        raise OverflowError(f"exponent exceeds the packed field {MAX_EXPONENT}")
    return packed


@lru_cache(maxsize=None)
def _decode(mono: int) -> Monomial:
    left: list[tuple[int, int, int]] = []
    right: list[tuple[int, int, int]] = []
    rest = mono >> 2 * _FIELD
    index = 1
    while rest:
        exp = rest & _FIELD_MASK
        if exp:
            left.append((_KIND_A, index, exp))
        exp = (rest >> _FIELD) & _FIELD_MASK
        if exp:
            right.append((_KIND_ABAR, index, exp))
        rest >>= 2 * _FIELD
        index += 1
    if mono & _FIELD_MASK:
        right.append((_KIND_LAMBDA, 0, mono & _FIELD_MASK))
    if (mono >> _FIELD) & _FIELD_MASK:
        right.append((_KIND_CC, 0, (mono >> _FIELD) & _FIELD_MASK))
    return tuple(left + right)


@lru_cache(maxsize=None)
def _shifts_of(mono: int) -> tuple[int, ...]:
    """The bit offsets of the generators present, in canonical order."""
    return tuple(_shift(kind, index) for kind, index, _ in _decode(mono))


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, _, e in mono)


def _mono_lex_key(mono: int) -> tuple:
    """Sort key realizing graded-lex order, heaviest term first.

    Grading is total (unweighted) degree; ties break lexicographically on the
    exponent vector read along the canonical generator order, larger exponent
    first.  Encoding: earlier generators and bigger exponents must compare
    *smaller*, so we negate degrees and exponents.
    """
    decoded = _decode(mono)
    return (-_mono_degree(decoded), tuple((k, x, -e) for k, x, e in decoded))


def _reach(monos: Iterable[int]) -> int:
    """Bitwise OR of the monomials: each field bounds that generator's exponents."""
    return reduce(or_, monos, 0)


def _check_products(short: Iterable[int], long: Collection[int]) -> None:
    for m1 in short:
        for m2 in long:
            if (m1 + m2) & _GUARD:
                raise OverflowError(f"product exponent exceeds the packed field {MAX_EXPONENT}")


def _products(
    pairs: Iterable[tuple[Collection[tuple[int, int]], Collection[tuple[int, int]]]], bound: int
) -> dict[int, int]:
    """The schoolbook product loop: c1 * c2 summed at m1 + m2 over every term pair.

    Each (left, right) pair holds two collections of (monomial, numerator)
    terms, and every pair's products go into one fresh dict (zero sums are
    dropped).  ``bound`` is a reach of every left monomial plus a reach of
    every right one (each field at least the largest exponent there); where
    it sets a guard bit every pair is checked exactly, and an exponent past
    ``MAX_EXPONENT`` raises ``OverflowError``.
    """
    out = None
    for left, right in pairs:
        if bound & _GUARD:
            _check_products((m for m, _ in left), [m for m, _ in right])
        if out is None and len(left) == 1:
            # one term meets distinct monomials, so nothing collides
            ((m1, c1),) = left
            out = {m1 + m2: c1 * c2 for m2, c2 in right}
            continue
        if out is None:
            out = {}
        get = out.get
        for m1, c1 in left:
            for m2, c2 in right:
                mono = m1 + m2
                acc = get(mono)
                if acc is None:
                    out[mono] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
    return out


def _prepared(poly: "CoeffPoly") -> Prepared:
    return tuple(poly._nums.items()), poly._den, _reach(poly._nums)


def _poly(nums: dict[int, int], den: int) -> "CoeffPoly":
    poly = object.__new__(CoeffPoly)
    poly._nums = nums
    poly._den = den
    return poly


def _reduced(nums: dict[int, int], den: int) -> "CoeffPoly":
    """Cancel the common factor of the denominator and every numerator."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return _poly(nums, den)


def _plus(x: "CoeffPoly", y: "CoeffPoly", sign: int) -> "CoeffPoly":
    """x + sign * y, sign 1 or -1: y's terms summed into a copy of x over the common denominator."""
    if not y._nums:
        return x
    if not x._nums:
        return y if sign == 1 else -y
    den = x._den
    if y._den == den:
        out = dict(x._nums)
        factor = sign
    else:
        den = lcm(den, y._den)
        mine, factor = den // x._den, sign * (den // y._den)
        out = {m: c * mine for m, c in x._nums.items()}
    get = out.get
    for mono, coef in y._nums.items():
        coef *= factor
        acc = get(mono)
        if acc is None:
            out[mono] = coef
        else:
            acc += coef
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return _reduced(out, den)


class CoeffPoly:
    """Immutable-by-convention exact polynomial.

    Stored as ``{packed monomial: int numerator}`` with no zero numerators,
    over the shared positive denominator ``_den``.  All operations return
    fresh instances; nothing mutates ``_nums`` after construction.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        pairs = [(_encode(mono), _as_fraction(coef)) for mono, coef in (terms or {}).items()]
        den = lcm(*(coef.denominator for _, coef in pairs))
        nums: dict[int, int] = {}
        for mono, coef in pairs:
            num = nums.get(mono, 0) + coef.numerator * (den // coef.denominator)
            if num:
                nums[mono] = num
            else:
                nums.pop(mono, None)
        g = gcd(den, *nums.values())
        self._nums = {m: c // g for m, c in nums.items()} if g != 1 else nums
        self._den = den // g

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "CoeffPoly":
        return _poly({}, 1)

    @staticmethod
    def one() -> "CoeffPoly":
        return _poly({0: 1}, 1)

    @staticmethod
    def constant(value: object) -> "CoeffPoly":
        v = _as_fraction(value)
        return _poly({0: v.numerator} if v else {}, v.denominator)

    @staticmethod
    def generator(gen: Generator, exponent: int = 1) -> "CoeffPoly":
        if exponent < 0:
            raise ValueError("negative exponents are not polynomial")
        if exponent == 0:
            return CoeffPoly.one()
        return _poly({_encode(((gen.kind, gen.index, exponent),)): 1}, 1)

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        den = self._den
        return ((_decode(m), Fraction(c, den)) for m, c in self._nums.items())

    def constant_part(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; raises if generators are present."""
        if self._nums.keys() <= {0}:
            return self.constant_part()
        raise ValueError(f"not a constant polynomial: {self.canonical_text()}")

    def max_coefficient_index(self) -> int:
        """Largest index appearing among a/abar generators (0 if none)."""
        # the largest packed int holds the highest occupied field
        top = max(self._nums, default=0).bit_length()
        return (top - 1) // (2 * _FIELD) if top > 2 * _FIELD else 0

    # -- ring operations ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.constant(other)
        if isinstance(other, CoeffPoly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        if self._nums.keys() <= {0}:
            # == says a constant equals its Fraction, so it hashes as one
            return hash(self.constant_part())
        return hash((self._den, frozenset(self._nums.items())))

    def __add__(self, other: "CoeffPoly | int | Fraction") -> "CoeffPoly":
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.constant(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CoeffPoly":
        return _poly({m: -c for m, c in self._nums.items()}, self._den)

    def __sub__(self, other: "CoeffPoly | int | Fraction") -> "CoeffPoly":
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.constant(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return _plus(self, other, -1)

    def __rsub__(self, other: "CoeffPoly | int | Fraction") -> "CoeffPoly":
        return (-self) + other

    def __mul__(self, other: "CoeffPoly | int | Fraction") -> "CoeffPoly":
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            if not scalar:
                return CoeffPoly.zero()
            num = scalar.numerator
            return _reduced({m: c * num for m, c in self._nums.items()}, self._den * scalar.denominator)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        if not self._nums or not other._nums:
            return CoeffPoly.zero()
        shorter, longer = self._nums, other._nums
        if len(shorter) > len(longer):
            shorter, longer = longer, shorter
        return _reduced(
            _products([(shorter.items(), longer.items())], _reach(shorter) + _reach(longer)),
            self._den * other._den,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CoeffPoly":
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        result = CoeffPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and structure ----------------------------------------

    def derivative(self, gen: Generator) -> "CoeffPoly":
        """Exact partial derivative with respect to one generator.

        The one-generator case of :meth:`first_order`.  The product path
        calls that kernel itself; this name stays because
        ``perfbench/tracer.py`` wraps it for its ``poly.derivative`` counters.
        """
        return self.first_order(Derivation({gen: CoeffPoly.one()}))

    def first_order(self, op: "Derivation") -> "CoeffPoly":
        """The first-order operator ``op`` (a derivation plus a scalar) applied to self.

        One pass, one reduction: a monomial m of exponent e in g, with
        numerator c, meets every term (m', c') of g's coefficient at
        m - unit_g + m' with numerator c * e * c'; the scalar part puts c * c'
        at m + m'.  Only the generators present in both self and the
        derivation are visited, found from the OR of self's monomials.
        Everything is summed into one accumulator over the operand's common
        denominator and only the result is reduced.  An exponent past
        ``MAX_EXPONENT`` raises ``OverflowError`` as in ``__mul__``.
        """
        nums = self._nums
        reach = _reach(nums)
        den = op.den
        pairs = []
        for shift in _shifts_of(reach & op.fields):
            terms, part_den, _ = op.parts[shift]
            unit, factor = 1 << shift, den // part_den
            lowered = [
                (m - unit, c * exp * factor)
                for m, c in nums.items()
                if (exp := m >> shift & MAX_EXPONENT)
            ]
            pairs.append((lowered, terms))
        if op.scalar is not None:
            terms, scalar_den, _ = op.scalar
            factor = den // scalar_den
            pairs.append(([(m, c * factor) for m, c in nums.items()], terms))
        if not pairs:
            return CoeffPoly.zero()
        # lowering only lowers exponents, so self's reach bounds every source
        return _reduced(_products(pairs, reach + op.reach), self._den * den)

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["CoeffPoly", "CoeffPoly"]]) -> "CoeffPoly":
        """The sum of a * b over the (a, b) pairs, in one accumulator.

        Pairs with a zero factor are skipped.  Every term product of every
        pair is summed into one ``{monomial: int}`` dict over one common
        denominator, the lcm of the pair denominators ``a._den * b._den``
        (each pair's numerators are rescaled to it), and only the result is
        reduced: one reduction in all, where ``sum(a * b)`` makes a product
        and a sum per pair and reduces each.  An exponent past
        ``MAX_EXPONENT`` raises ``OverflowError`` as in ``__mul__``.
        """
        live = [(x, y) for x, y in pairs if x._nums and y._nums]
        if not live:
            return CoeffPoly.zero()
        den = lcm(*(x._den * y._den for x, y in live))
        # one bound for every pair: the reach of all first factors plus that of all second ones
        bound = _reach(chain.from_iterable(x._nums for x, _ in live))
        bound += _reach(chain.from_iterable(y._nums for _, y in live))
        pairs = []
        for x, y in live:
            shorter, longer = x._nums, y._nums
            if len(shorter) > len(longer):
                shorter, longer = longer, shorter
            factor = den // (x._den * y._den)
            left = shorter.items() if factor == 1 else [(m, c * factor) for m, c in shorter.items()]
            pairs.append((left, longer.items()))
        out = _products(pairs, bound)
        return _reduced(out, den)

    def substitute(self, assignment: Mapping[Generator, Fraction | int]) -> "CoeffPoly":
        """Eliminate the assigned generators by exact evaluation.

        Partial maps are fine: untouched generators survive. Values must be
        exact rationals.
        """
        if not assignment:
            return self
        # Over the common denominator den * prod q^top, a term with exponent
        # e of the value p/q gains the factor p^e q^(top - e).
        den = self._den
        fields: list[tuple[int, list[int]]] = []
        for gen, value in assignment.items():
            value = _as_fraction(value)
            shift = _shift(gen.kind, gen.index)
            if shift is None:
                continue
            top = max(((m >> shift) & MAX_EXPONENT for m in self._nums), default=0)
            if top:
                p, q = value.numerator, value.denominator
                fields.append((shift, [p**e * q ** (top - e) for e in range(top + 1)]))
                den *= q**top
        if not fields:
            return self
        out: dict[int, int] = {}
        get = out.get
        for mono, coef in self._nums.items():
            for shift, factors in fields:
                exp = (mono >> shift) & MAX_EXPONENT
                coef *= factors[exp]
                mono -= exp << shift
            if not coef:
                continue
            acc = get(mono)
            if acc is None:
                out[mono] = coef
            else:
                acc += coef
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return _reduced(out, den)

    def swap_bars(self) -> "CoeffPoly":
        """The a <-> abar involution (lambda and c are fixed)."""
        return _poly(
            {
                (m & _SCALAR_FIELDS) | ((m & _A_FIELDS) << _FIELD) | ((m >> _FIELD) & _A_FIELDS): c
                for m, c in self._nums.items()
            },
            self._den,
        )

    def weighted_monomial_degrees(self) -> set[tuple[int, int]]:
        """The set of per-monomial weighted (left, right) degrees, lambda/c ignored."""
        return {_weighted_degree(mono) for mono in self._nums}

    # -- canonical text ------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic serialization: graded-lex monomial order, num/den rationals."""
        if not self._nums:
            return "0/1"
        pieces: list[str] = []
        for mono in sorted(self._nums, key=_mono_lex_key):
            coef = Fraction(self._nums[mono], self._den)
            factors = [f"{coef.numerator}/{coef.denominator}"]
            for kind, index, exp in _decode(mono):
                name = _KIND_NAMES[kind] + (str(index) if index else "")
                factors.append(name if exp == 1 else f"{name}^{exp}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"CoeffPoly({self.canonical_text()})"


class Derivation:
    """sum_g coeffs[g] * d/dg, prepared once for :meth:`CoeffPoly.first_order`.

    ``parts`` maps the bit offset of each generator's field to its nonzero
    coefficient in prepared form (no polynomial holds a generator past the
    packed range, so those are dropped); ``fields``, ``den`` and ``reach``
    are the OR of those fields, the lcm of the denominators and the OR of
    the reaches.  ``scalar`` is the prepared multiplication part, which
    only :meth:`with_scalar` sets; ``den`` and ``reach`` then cover it too.
    """

    __slots__ = ("parts", "fields", "den", "reach", "scalar")

    def __init__(self, coeffs: Mapping[Generator, CoeffPoly]):
        self.parts: dict[int, Prepared] = {}
        for gen, coeff in coeffs.items():
            shift = _shift(gen.kind, gen.index)
            if shift is not None and coeff._nums:
                self.parts[shift] = _prepared(coeff)
        self.fields = sum(_FIELD_MASK << shift for shift in self.parts)
        self.den = lcm(*(den for _, den, _ in self.parts.values()))
        self.reach = _reach(reach for _, _, reach in self.parts.values())
        self.scalar: Prepared | None = None

    def with_scalar(self, scalar: CoeffPoly | None) -> "Derivation":
        """This derivation plus multiplication by ``scalar``, as one operand.

        The operand shares this one's prepared parts and folds the scalar's
        denominator and reach into this one's ``den`` and ``reach``, so the
        cost is the scalar's own terms.  A zero or absent scalar gives this
        derivation back; one that already has a scalar takes no second.
        """
        if self.scalar is not None:
            raise ValueError("this operand already has a scalar part")
        if scalar is None or not scalar._nums:
            return self
        op = object.__new__(Derivation)
        op.parts, op.fields = self.parts, self.fields
        op.scalar = _prepared(scalar)
        op.den = lcm(self.den, scalar._den)
        op.reach = self.reach | op.scalar[2]
        return op


def _weighted_degree(mono: int) -> tuple[int, int]:
    left = right = 0
    for kind, index, exp in _decode(mono):
        if kind == _KIND_A:
            left += index * exp
        elif kind == _KIND_ABAR:
            right += index * exp
    return (left, right)

