"""Truncated formal Laurent series over the exact coefficient ring.

The vehicle for every contour/residue computation in the package.  A series
knows three things: its ``valuation`` (lowest possibly-nonzero power), a
finite window of stored coefficients, and an exclusive ``order`` up to which
its coefficients are *reliable*.  Powers between the stored window and the
order are reliably zero; powers at or above the order are unknown.

Order propagation is deliberately pessimistic, and every accessor that would
touch an unreliable coefficient raises :class:`InsufficientOrderError`
instead of silently returning truncated garbage.  ``order=None`` marks an
exact series (a Laurent polynomial known in full).

The propagation rules, for inputs with valuations ``v`` and orders ``o``:

* add/sub: ``min(o1, o2)``
* mul: ``min(o1 + v2, o2 + v1)``
* power ``k``: ``o + (k-1)v``; the lowest coefficient must be a nonzero
  rational constant, the only units of the coefficient ring, except that
  the zero series powers to zero with order ``k o`` for ``k > 0``; the
  multiplicative inverse is ``k = -1`` with order ``o - 2v``
* derivative: ``o - 1``
* reversion: same order as the input

A product coefficient, and each step of the power recurrence, is one
Cauchy sum taken by ``CoeffPoly.sum_of_products``: one accumulator and one
reduction per output coefficient, not a product and a sum per term pair.

Every nonzero power k of ``lead * z^v * (1 + u)``, the inverse k = -1
among them, comes from J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2,
4.7): g = (1 + u)^k has g_0 = 1 and
g_j = (1/j) sum_{i=1..j} ((k+1) i - j) u_i g_{j-i}, one fused sum per
coefficient, with no series product.

Reversion is Lagrange inversion (ibid.) through the same recurrence: the
compositional inverse of f = z + ... is g = sum_k b_k z^k with
b_k = (1/k) [z^(k-1)] (f/z)^(-k).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .poly import CoeffPoly

__all__ = [
    "LaurentSeries",
    "InsufficientOrderError",
    "schwarzian",
    "pre_schwarzian",
    "series_reversion",
]

_INF = math.inf


class InsufficientOrderError(ValueError):
    """An operation needed coefficients beyond the reliable truncation order."""


def _as_poly(value: object) -> CoeffPoly:
    if isinstance(value, CoeffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return CoeffPoly.constant(value)
    raise TypeError(f"cannot use {type(value).__name__} as a series coefficient")


class LaurentSeries:
    """A truncated Laurent series with tracked reliability order."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(
        self,
        valuation: int,
        coeffs: Sequence[object] = (),
        order: int | float | None = None,
    ):
        polys = [_as_poly(c) for c in coeffs]
        if order is None:
            order = _INF
        # strip leading zeros (raising the valuation), then trailing zeros
        start = 0
        while start < len(polys) and polys[start].is_zero:
            start += 1
        end = len(polys)
        while end > start and polys[end - 1].is_zero:
            end -= 1
        polys = polys[start:end]
        valuation += start
        if polys and valuation + len(polys) > order:
            raise ValueError("stored coefficients extend beyond the declared order")
        if not polys:
            # canonical zero: the valuation rides at the order (known zero below it)
            valuation = order if order != _INF else 0
        self.valuation = valuation
        self.coeffs = tuple(polys)
        self.order = order

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(order: int | float | None = None) -> "LaurentSeries":
        return LaurentSeries(0, (), order)

    @staticmethod
    def monomial(power: int, coeff: object = 1, order: int | float | None = None) -> "LaurentSeries":
        return LaurentSeries(power, (coeff,), order)

    @staticmethod
    def from_coefficients(
        pairs: Iterable[tuple[int, object]], order: int | float | None = None
    ) -> "LaurentSeries":
        items = [(p, _as_poly(c)) for p, c in pairs]
        if not items:
            return LaurentSeries.zero(order)
        lo = min(p for p, _ in items)
        hi = max(p for p, _ in items)
        coeffs: list[CoeffPoly] = [CoeffPoly.zero()] * (hi - lo + 1)
        for p, c in items:
            coeffs[p - lo] = coeffs[p - lo] + c
        return LaurentSeries(lo, coeffs, order)

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return self.order == _INF

    def coefficient(self, power: int) -> CoeffPoly:
        """The coefficient of z**power; raises if that power is unreliable."""
        if power >= self.order:
            raise InsufficientOrderError(
                f"coefficient of z^{power} requested but series is only reliable below z^{self.order}"
            )
        idx = power - self.valuation
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        return CoeffPoly.zero()

    def coefficients(self) -> Iterator[tuple[int, CoeffPoly]]:
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                yield (self.valuation + i, c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.coeffs == other.coeffs
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.valuation, self.coeffs, self.order))

    def __repr__(self) -> str:
        parts = [f"({c.canonical_text()})*z^{p}" for p, c in self.coefficients()] or ["0"]
        tail = "" if self.is_exact else f" + O(z^{self.order})"
        return " + ".join(parts) + tail

    # -- arithmetic ---------------------------------------------------------

    def truncate(self, order: int) -> "LaurentSeries":
        """Restrict to coefficients below ``order`` (may only lower the order)."""
        if order > self.order:
            raise InsufficientOrderError(
                f"cannot extend reliability from O(z^{self.order}) to O(z^{order})"
            )
        kept = [c for i, c in enumerate(self.coeffs) if self.valuation + i < order]
        start = self.valuation if kept else 0
        return LaurentSeries(start, kept, order)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        pairs = [(p, c) for p, c in self.coefficients() if p < order]
        pairs += [(p, c) for p, c in other.coefficients() if p < order]
        return LaurentSeries.from_coefficients(pairs, order)

    def __neg__(self) -> "LaurentSeries":
        if self.is_zero:
            return self
        return LaurentSeries(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, scalar: object) -> "LaurentSeries":
        """Multiply by a scalar from the coefficient ring (order unchanged)."""
        s = _as_poly(scalar)
        if s.is_zero or self.is_zero:
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.valuation, [c * s for c in self.coeffs], self.order)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        v1 = self.valuation if not self.is_zero else self.order
        v2 = other.valuation if not other.is_zero else other.order
        order = min(self.order + v2, other.order + v1)
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(order)
        width = len(self.coeffs) + len(other.coeffs) - 1
        if order != _INF:
            width = min(width, order - v1 - v2)
        if width <= 0:
            return LaurentSeries.zero(order)
        left, right = self.coeffs, other.coeffs
        acc = [
            CoeffPoly.sum_of_products(
                (left[i], right[k - i])
                for i in range(max(0, k - len(right) + 1), min(k + 1, len(left)))
            )
            for k in range(width)
        ]
        return LaurentSeries(v1 + v2, acc, order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z**k."""
        order = self.order if self.order == _INF else self.order + k
        if self.is_zero:
            return LaurentSeries.zero(order)
        return LaurentSeries(self.valuation + k, self.coeffs, order)

    def _unit_lead(self, alpha: int) -> Fraction:
        """The lowest coefficient as a nonzero rational; the refusal names self**alpha."""
        operation = "inverse" if alpha == -1 else f"power {alpha}"
        if self.is_zero:
            raise ZeroDivisionError(f"{operation} of the zero series")
        # __init__ strips leading zeros, so a constant lead is nonzero
        lead = self.coeffs[0]
        try:
            return lead.as_constant()
        except ValueError:
            raise ValueError(
                f"series {operation} needs a rational-constant leading coefficient, got "
                f"{lead.canonical_text()}"
            ) from None

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse; the lowest coefficient must be a rational unit."""
        return self._power(-1)

    def __pow__(self, n: int) -> "LaurentSeries":
        if n == 0:
            return LaurentSeries.monomial(0, 1, None)
        return self._power(n)

    def _power(self, alpha: int) -> "LaurentSeries":
        """self**alpha for alpha != 0 by J.C.P. Miller's power recurrence.

        With self = lead * z^v * (1 + sum u_j z^j), the series g = (1 + u)**alpha
        satisfies g_k = (1/k) sum_{j=1..k} ((alpha+1) j - k) u_j g_{k-j}, one
        fused sum per coefficient.  Valuation v * alpha and order
        o + (alpha - 1) v follow the power rule; a positive power of an exact
        series is the polynomial of relative length alpha (len - 1) + 1.
        """
        if alpha > 0 and self.is_zero:
            return LaurentSeries.zero(alpha * self.order)
        lead_const = self._unit_lead(alpha)
        v = self.valuation
        scale = lead_const**alpha
        order = self.order + (alpha - 1) * v
        if len(self.coeffs) == 1:
            # a pure monomial powers exactly
            return LaurentSeries.monomial(alpha * v, scale, order)
        if self.order != _INF:
            rel_len = int(self.order - v)  # reliable relative powers 0 .. rel_len-1
        elif alpha > 0:
            rel_len = alpha * (len(self.coeffs) - 1) + 1
        else:
            raise InsufficientOrderError(
                "inverse of an exact multi-term series is an infinite object; truncate() first"
            )
        u = [c * (1 / lead_const) for c in self.coeffs[1:rel_len]]
        g: list[CoeffPoly] = [CoeffPoly.one()]
        for k in range(1, rel_len):
            total = CoeffPoly.sum_of_products(
                (u[j - 1] * ((alpha + 1) * j - k), g[k - j])
                for j in range(1, min(k, len(u)) + 1)
                if (alpha + 1) * j != k
            )
            g.append(total * Fraction(1, k))
        if scale != 1:
            g = [c * scale for c in g]
        return LaurentSeries(alpha * v, g, order)

    def derivative(self) -> "LaurentSeries":
        order = self.order if self.order == _INF else self.order - 1
        pairs = [(p - 1, c * p) for p, c in self.coefficients() if p != 0]
        return LaurentSeries.from_coefficients(pairs, order)

    def residue(self) -> CoeffPoly:
        """The coefficient of z**-1 (raises if that power is unreliable)."""
        return self.coefficient(-1)


def pre_schwarzian(f: LaurentSeries) -> LaurentSeries:
    """f''/f' — the logarithmic derivative of f'.

    Requires f' to be invertible as a series (valuation 0 with a rational
    constant lead), which holds for any normalized coefficient map.
    """
    fp = f.derivative()
    if fp.is_zero or fp.valuation != 0:
        raise ValueError("pre-schwarzian needs an invertible derivative (valuation-0 lead)")
    return fp.derivative() * fp.inverse()


def schwarzian(f: LaurentSeries) -> LaurentSeries:
    """(f''/f')' - (f''/f')^2 / 2, with explicit order-exhaustion reporting."""
    if f.order != _INF and f.order - f.valuation < 3:
        raise InsufficientOrderError(
            "schwarzian needs at least 3 reliable coefficients, have "
            f"{max(f.order - f.valuation, 0)}"
        )
    A = pre_schwarzian(f)
    return A.derivative() - (A * A).scale(Fraction(1, 2))


def series_reversion(f: LaurentSeries) -> LaurentSeries:
    """The compositional inverse g with f(g(z)) = z, to the order of f.

    f must have valuation 1 with unit leading coefficient, and the order of
    f must be finite — reversion of an exact polynomial is an infinite
    object, so truncate() to the window you need first.
    """
    if f.is_zero or f.valuation != 1:
        raise ValueError("reversion needs a series of valuation exactly 1")
    if f.coefficient(1) != CoeffPoly.one():
        raise ValueError("reversion needs leading coefficient 1")
    if f.order == _INF:
        raise InsufficientOrderError(
            "reversion of an exact series is an infinite object; truncate() first"
        )
    order = int(f.order)
    # b_k reads (f/z)^(-k) below z^k only, so f/z is cut there first
    body = f.shift(-1)
    coeffs = [
        (body.truncate(k) ** -k).coefficient(k - 1) * Fraction(1, k) for k in range(1, order)
    ]
    return LaurentSeries(1, coeffs, order)
