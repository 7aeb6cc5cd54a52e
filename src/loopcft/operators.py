"""Virasoro modes realized as differential operators on coefficient rings.

The representation acts on polynomials in the Taylor coefficients
``a_1, a_2, ...`` of a normalized univalent map ``F(z) = z(1 + sum a_j z^j)``
together with their barred partners.  Each mode is a first-order operator

    L_n = P-part * d/da  +  Q-part * d/dabar  -  varpi_n * E  -  (c/12) * vartheta_n

where ``E`` is the total-weight Euler operator whose eigenvalue on a state
at bi-level ``(N, Ntilde)`` is ``2*lambda + N + Ntilde``.  Because the
polynomial realization of a level subspace is not spanned by
bidegree-homogeneous monomials, states carry their bi-level as explicit
data (:class:`StatePoly`) rather than reading it off monomial degrees.

On a state the Euler and central terms act as one scalar polynomial,
``s = e_coeff * (2*lambda + N + Ntilde) + id_coeff``, memoized per total
level.  :meth:`ModeOperator.apply` hands the derivation coefficients and
``s`` to :meth:`CoeffPoly.first_order`, which sums every product term into
one accumulator over one common denominator and reduces only the result:
no per-generator derivative, product or sum is ever built.

The central coefficient comes from the Schwarzian cocycle.  With
``q = -F**(n+1) / F'`` the deformation field pulled back to the z-plane,
``vartheta_n = -res_z[S(F) q]``: the chain rule (S(G) o F) F'^2 = -S(F) for
the inverse map G turns the inverse-map residue -res_w[S(G) w^(n+1)] into
this z-plane residue, so the build never reverses a series.  The residue
route (:func:`varpi`, :func:`vartheta`) keeps the inverse-map form as an
independent cross-check.

Every coefficient polynomial is extracted from exact truncated-series
computations with tracked reliability; nothing here ever truncates
silently — an operator that cannot act exactly on a state raises
:class:`OperatorWindowError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    LaurentSeries,
    Partition,
    a as gen_a,
    abar as gen_abar,
    partitions_of,
    rank as matrix_rank,
    schwarzian,
    series_reversion,
)
from .symbolic.poly import _KIND_CC, _KIND_LAMBDA
from .verma import central_charge, cocycle, kac_lambda

__all__ = [
    "OperatorWindowError",
    "StatePoly",
    "ModeOperator",
    "OperatorTable",
    "build_mode_operator",
    "varpi",
    "vartheta",
    "commutator_parts",
    "commutator_defect",
    "vacuum_state",
    "fresh_state",
    "psi_state",
    "geometric_pairing",
    "duality_pairing",
    "level_rank",
    "state_family_residuals",
]

_LAM = CoeffPoly.generator(LAMBDA)
_C = CoeffPoly.generator(CC)
_ONE = CoeffPoly.one()
_ZERO = CoeffPoly.zero()


class OperatorWindowError(ValueError):
    """An operator was asked to act beyond the index window it was built for."""


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatePoly:
    """A polynomial state tagged with its representation bi-level.

    The tag is genuine extra data: mode images are generally supported on
    monomials of several bidegrees, so the level cannot be recovered from
    the polynomial alone.
    """

    poly: CoeffPoly
    level: tuple[int, int] | None  # None only for the zero state

    def __post_init__(self):
        if self.poly.is_zero:
            object.__setattr__(self, "level", None)
        elif self.level is None:
            raise ValueError("nonzero states need an explicit bi-level")

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def max_index(self) -> int:
        return self.poly.max_coefficient_index()

    def scale(self, factor: CoeffPoly | Fraction | int) -> "StatePoly":
        if isinstance(factor, (int, Fraction)):
            factor = CoeffPoly.constant(factor)
        return StatePoly(self.poly * factor, self.level)

    def __add__(self, other: "StatePoly") -> "StatePoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.level != other.level:
            raise ValueError(f"cannot add states at levels {self.level} and {other.level}")
        return StatePoly(self.poly + other.poly, self.level)

    def __sub__(self, other: "StatePoly") -> "StatePoly":
        return self + StatePoly(-other.poly, other.level)

    def substitute(self, assignment) -> "StatePoly":
        return StatePoly(self.poly.substitute(assignment), self.level)

    def __repr__(self) -> str:
        return f"StatePoly({self.poly.canonical_text()!r}, level={self.level})"


def vacuum_state() -> StatePoly:
    return StatePoly(_ONE, (0, 0))


def fresh_state(poly: CoeffPoly) -> StatePoly:
    """Tag a polynomial with the bi-level read off its monomials.

    Only well-defined when every monomial shares one weighted bidegree —
    the convention for seeding states from raw monomials like ``a_2``.
    """
    if poly.is_zero:
        return StatePoly(poly, None)
    degrees = poly.weighted_monomial_degrees()
    if len(degrees) != 1:
        raise ValueError(f"polynomial mixes bidegrees {sorted(degrees)}; tag the level explicitly")
    return StatePoly(poly, next(iter(degrees)))


# ---------------------------------------------------------------------------
# mode operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeOperator:
    """One Virasoro mode of one family, exact on indices up to ``max_index``."""

    mode: int
    bar: bool
    max_index: int
    e_coeff: CoeffPoly
    id_coeff: CoeffPoly
    d_a: Mapping[int, CoeffPoly]
    d_abar: Mapping[int, CoeffPoly]
    provenance: str = field(compare=False, default="")
    # the derivation part keyed by generator, zero coefficients dropped
    _coeffs: dict = field(init=False, compare=False, repr=False)
    # the scalar part at each total level N + Ntilde, filled on first use
    _scalars: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        coeffs = {gen_a(m): c for m, c in self.d_a.items() if not c.is_zero}
        coeffs.update((gen_abar(m), c) for m, c in self.d_abar.items() if not c.is_zero)
        object.__setattr__(self, "_coeffs", coeffs)

    def _check_window(self, poly: CoeffPoly) -> None:
        if poly.max_coefficient_index() > self.max_index:
            raise OperatorWindowError(
                f"input reaches index {poly.max_coefficient_index()} but mode "
                f"{self.mode} operator only covers indices up to {self.max_index}"
            )

    def derive(self, poly: CoeffPoly) -> CoeffPoly:
        """The pure derivation part sum_g d_g * d/dg applied to a polynomial.

        One pass of :meth:`CoeffPoly.first_order`: no per-generator
        temporaries, one reduction of the result.
        """
        self._check_window(poly)
        return poly.first_order(self._coeffs)

    def apply(self, state: StatePoly) -> StatePoly:
        """The whole operator on a state, derivation and scalar part in one pass.

        At bi-level (N, Ntilde) the Euler and identity terms act as the scalar
        ``e_coeff * (2*lambda + N + Ntilde) + id_coeff`` (memoized per total
        level), which joins the derivation in a single
        :meth:`CoeffPoly.first_order` call.
        """
        if state.is_zero:
            return state
        self._check_window(state.poly)
        n_left, n_right = state.level
        total = n_left + n_right
        scalar = self._scalars.get(total)
        if scalar is None:
            scalar = self.e_coeff * (2 * _LAM + total) + self.id_coeff
            self._scalars[total] = scalar
        out = state.poly.first_order(self._coeffs, scalar)
        if self.bar:
            new_level = (n_left, n_right - self.mode)
        else:
            new_level = (n_left - self.mode, n_right)
        return StatePoly(out, new_level if not out.is_zero else None)

    def mirrored(self) -> "ModeOperator":
        """The same mode of the other family (bar involution of all data)."""
        return ModeOperator(
            mode=self.mode,
            bar=not self.bar,
            max_index=self.max_index,
            e_coeff=self.e_coeff.swap_bars(),
            id_coeff=self.id_coeff.swap_bars(),
            d_a={m: c.swap_bars() for m, c in self.d_abar.items()},
            d_abar={m: c.swap_bars() for m, c in self.d_a.items()},
            provenance=self.provenance + "|mirrored",
        )

    def restricted(self, max_index: int) -> "ModeOperator":
        """The same operator on the narrower window of indices up to ``max_index``.

        Coefficients on that window do not depend on the build window, so a
        welding-route operator restricted to w is ``==`` to a direct build at w.
        The scalar memo is shared: the Euler and identity parts are unchanged.
        """
        if max_index > self.max_index:
            raise OperatorWindowError(
                f"cannot widen mode {self.mode} operator from {self.max_index} to {max_index}"
            )
        if max_index == self.max_index:
            return self
        op = ModeOperator(
            mode=self.mode,
            bar=self.bar,
            max_index=max_index,
            e_coeff=self.e_coeff,
            id_coeff=self.id_coeff,
            d_a={m: c for m, c in self.d_a.items() if m <= max_index},
            d_abar={m: c for m, c in self.d_abar.items() if m <= max_index},
            provenance=f"{self.provenance}|restricted({max_index})",
        )
        object.__setattr__(op, "_scalars", self._scalars)
        return op

    def agrees_with(self, other: "ModeOperator") -> bool:
        """Coefficient equality on the shared index window."""
        if (self.mode, self.bar) != (other.mode, other.bar):
            return False
        if self.e_coeff != other.e_coeff or self.id_coeff != other.id_coeff:
            return False
        window = min(self.max_index, other.max_index)
        for m in range(1, window + 1):
            if self.d_a.get(m, _ZERO) != other.d_a.get(m, _ZERO):
                return False
            if self.d_abar.get(m, _ZERO) != other.d_abar.get(m, _ZERO):
                return False
        return True

    def __repr__(self) -> str:
        family = "Lbar" if self.bar else "L"
        return f"<{family}_{self.mode} up to index {self.max_index} via {self.provenance}>"


def _coefficient_map(order: int) -> LaurentSeries:
    """F(z) = z(1 + a_1 z + a_2 z^2 + ...) truncated at the given order."""
    coeffs: list[CoeffPoly] = [_ONE]
    coeffs += [CoeffPoly.generator(gen_a(j)) for j in range(1, order - 1)]
    return LaurentSeries(1, coeffs, order)


def _welding_build(n: int, max_index: int, series_order: int | None) -> dict:
    """P/Q/E/id data for mode n from the welded deformation fields.

    The deformation of the coefficient body induced by the vector field
    ``-z**(n+1) d/dz`` acting on the welding splits into an interior motion
    (the P-part plus the Euler term) and a reflected exterior motion (the
    Q-part); both are read off exactly as series coefficients.

    The central coefficient is theta_n = -res_z[S(F) q] with
    ``q = -F**(n+1) / F'``.  It equals the inverse-map form
    -[w^(-n-2)] S(G) of :func:`vartheta` by the Schwarzian chain rule
    (S(G) o F) F'^2 = -S(F): substituting w = F(z) turns
    res_w[S(G) w^(n+1)] into res_z[S(F) q].  No series reversion is needed.

    Budget: with w = max_index, every output reads coefficients below
    z^(w+2) only (d_a[m] and d_abar[m] are the z^(m+1) coefficients of the
    two motions, gamma is [z^1] q, theta needs q below z^0), so each
    product's operands are cut to that bound.  q below z^(w+2) takes
    F^(n+1) below z^(w+2), which for n >= 0 needs F only below z^(w+2-n),
    and 1/F' below z^(w+1-n); F/F' - z takes F below z^(w+2) and 1/F'
    below z^(w+1); the final products with F' take F' below z^w, because
    their other factors start at z^2.  F itself is built to order
    w + 2 + max(0, -n).  The reported ``order`` stays the nominal series
    order, ``series_order`` or w + |n| + 2 by default.
    """
    order = series_order if series_order is not None else max_index + abs(n) + 2
    if order < max_index + 2:
        raise ValueError("series order too small for the requested index window")
    top = max_index + 2
    F = _coefficient_map(min(order, top + max(0, -n)))
    Fp = F.derivative()
    Fp_inv = Fp.inverse()
    if n >= 0:
        # F^(n+1) starts at z^(n+1); keep F's lead even when nothing else is read
        power = F.truncate(max(2, top - n)) ** (n + 1)
        q = -(power * Fp_inv.truncate(max(1, top - 1 - n)))
    else:
        q = -(F ** (n + 1)) * Fp_inv
    gamma = q.coefficient(1) * Fraction(1, 2)
    s_minus_z = F.truncate(top) * Fp_inv.truncate(top - 1) - LaurentSeries.monomial(1, 1, None)
    Fp_low = Fp.truncate(max_index)

    q_high = LaurentSeries.from_coefficients(
        [(p, c) for p, c in q.coefficients() if 2 <= p < top], min(q.order, top)
    )
    f_dot = (q_high - s_minus_z.scale(gamma)) * Fp_low

    # exterior side: the reflected low part of q, bar-conjugated
    u_high = LaurentSeries.from_coefficients(
        [(2 - p, -c.swap_bars()) for p, c in q.coefficients() if p <= 0 and 2 - p < top],
        None,
    )
    m_ring = (s_minus_z.scale(-gamma.swap_bars()) - u_high) * Fp_low

    d_a = {}
    d_abar = {}
    for m in range(1, max_index + 1):
        p_coeff = f_dot.coefficient(m + 1)
        if not p_coeff.is_zero:
            d_a[m] = p_coeff
        q_coeff = m_ring.coefficient(m + 1).swap_bars()
        if not q_coeff.is_zero:
            d_abar[m] = q_coeff

    # only the z^-1 term of S(F) q is needed: S(F) through z^(-n-2), q through z^-1
    if n <= -2:
        theta = -(schwarzian(F.truncate(2 - n)) * q.truncate(0)).residue()
    else:
        theta = _ZERO
    return {
        "e_coeff": -gamma,
        "id_coeff": -(_C * theta) * Fraction(1, 12) if not theta.is_zero else _ZERO,
        "d_a": d_a,
        "d_abar": d_abar,
        "order": order,
    }


def build_mode_operator(
    n: int,
    bar: bool = False,
    max_index: int = 8,
    route: str = "welding",
    series_order: int | None = None,
) -> ModeOperator:
    """Construct one mode operator.

    ``route='welding'`` reads all data from the deformation series (works
    for every mode); ``route='recursion'`` builds modes below -2 from
    nested brackets of adjacent modes, as an independent construction.
    """
    if route == "welding":
        data = _welding_build(n, max_index, series_order)
        op = ModeOperator(
            mode=n,
            bar=False,
            max_index=max_index,
            e_coeff=data["e_coeff"],
            id_coeff=data["id_coeff"],
            d_a=data["d_a"],
            d_abar=data["d_abar"],
            provenance=f"welding(order={data['order']})",
        )
    elif route == "recursion":
        if n > -3:
            raise ValueError("the bracket recursion only defines modes below -2")
        depth = -n
        current = build_mode_operator(-2, max_index=max_index + depth - 2)
        step = build_mode_operator(-1, max_index=max_index + depth - 1)
        for j in range(2, depth):
            parts = commutator_parts(step, current)
            current = ModeOperator(
                mode=-(j + 1),
                bar=False,
                max_index=parts["max_index"],
                e_coeff=parts["e_coeff"] * Fraction(1, j - 1),
                id_coeff=parts["id_coeff"] * Fraction(1, j - 1),
                d_a={m: c * Fraction(1, j - 1) for m, c in parts["d_a"].items()},
                d_abar={m: c * Fraction(1, j - 1) for m, c in parts["d_abar"].items()},
                provenance=f"recursion(depth={j + 1})",
            )
        op = current
        if op.max_index < max_index:
            raise OperatorWindowError("recursion lost more index coverage than expected")
    else:
        raise ValueError(f"unknown construction route {route!r}")
    return op.mirrored() if bar else op


# ---------------------------------------------------------------------------
# independent residue cross-checks for the scalar coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inverse_map(order: int) -> LaurentSeries:
    """G = F^{-1}, the compositional inverse of the coefficient map."""
    return series_reversion(_coefficient_map(order))


def varpi(n: int, order: int = 12) -> CoeffPoly:
    """Euler coefficient of mode n via the inverse-map residue formula."""
    G = _inverse_map(order)
    lg = G.derivative() * G.inverse()
    integrand = (lg * lg).shift(n + 1)
    return -integrand.residue() * Fraction(1, 2)


def vartheta(n: int, order: int = 12) -> CoeffPoly:
    """Central-direction coefficient of mode n via the Schwarzian residue."""
    integrand = schwarzian(_inverse_map(order)).shift(n + 1)
    return -integrand.residue()


# ---------------------------------------------------------------------------
# operator brackets
# ---------------------------------------------------------------------------


def commutator_parts(u: ModeOperator, t: ModeOperator) -> dict:
    """The bracket [u, t] expanded back into (derivation, id, E) data.

    Valid for any pair of families: the Euler operator couples to both
    families' levels at once, which is what makes this closed form work.
    The result covers indices up to ``min(Mu - |mode_t|, Mt - |mode_u|)``.
    """
    window = min(u.max_index - abs(t.mode), t.max_index - abs(u.mode))
    if window < 1:
        raise OperatorWindowError("operators too narrow to bracket")
    nu, nt = u.mode, t.mode
    d_a: dict[int, CoeffPoly] = {}
    d_abar: dict[int, CoeffPoly] = {}
    for target, u_dict, t_dict in (
        (d_a, u.d_a, t.d_a),
        (d_abar, u.d_abar, t.d_abar),
    ):
        for m in range(1, window + 1):
            term = _ZERO
            t_cf = t_dict.get(m, _ZERO)
            u_cf = u_dict.get(m, _ZERO)
            if not t_cf.is_zero:
                term = term + u.derive(t_cf)
                if not u.e_coeff.is_zero:
                    term = term - nt * u.e_coeff * t_cf
            if not u_cf.is_zero:
                term = term - t.derive(u_cf)
                if not t.e_coeff.is_zero:
                    term = term + nu * t.e_coeff * u_cf
            if not term.is_zero:
                target[m] = term
    id_part = (
        u.derive(t.id_coeff)
        - t.derive(u.id_coeff)
        + nu * t.e_coeff * u.id_coeff
        - nt * u.e_coeff * t.id_coeff
    )
    e_part = (
        u.derive(t.e_coeff)
        - t.derive(u.e_coeff)
        + (nu - nt) * u.e_coeff * t.e_coeff
    )
    return {
        "mode": nu + nt,
        "max_index": window,
        "d_a": d_a,
        "d_abar": d_abar,
        "id_coeff": id_part,
        "e_coeff": e_part,
        "mixed": u.bar != t.bar,
    }


def commutator_defect(
    u: ModeOperator, t: ModeOperator, reference: "OperatorTable"
) -> dict:
    """Difference between [u, t] and its expected algebra value, as parts.

    For a same-family pair the expectation is ``(nu - nt) L_{nu+nt}`` plus
    the central cocycle times the identity; for a mixed pair it is zero.
    All returned polynomials vanish exactly iff the relation holds on the
    shared window.
    """
    parts = commutator_parts(u, t)
    window = parts["max_index"]
    defect_da = dict(parts["d_a"])
    defect_dabar = dict(parts["d_abar"])
    defect_e = parts["e_coeff"]
    defect_id = parts["id_coeff"]
    if not parts["mixed"]:
        factor = u.mode - t.mode
        if factor:
            ref = reference.mode_operator(parts["mode"], bar=u.bar)
            if ref.max_index < window:
                raise OperatorWindowError("reference operator window too small")
            for m in range(1, window + 1):
                expect = ref.d_a.get(m, _ZERO) * factor
                got = defect_da.pop(m, _ZERO)
                diff = got - expect
                if not diff.is_zero:
                    defect_da[m] = diff
                expect = ref.d_abar.get(m, _ZERO) * factor
                got = defect_dabar.pop(m, _ZERO)
                diff = got - expect
                if not diff.is_zero:
                    defect_dabar[m] = diff
            defect_e = defect_e - factor * ref.e_coeff
            defect_id = defect_id - factor * ref.id_coeff
        if u.mode + t.mode == 0:
            central = _C * Fraction(1, 12) * cocycle(u.mode, t.mode)
            defect_id = defect_id - central
    return {
        "mode": parts["mode"],
        "max_index": window,
        "d_a": defect_da,
        "d_abar": defect_dabar,
        "id_coeff": defect_id,
        "e_coeff": defect_e,
    }


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------


class OperatorTable:
    """Cache of mode operators for both families at a fixed index window.

    A table made by :meth:`restricted` builds nothing itself: it takes each
    operator from the wider table it was cut from and restricts it.
    """

    def __init__(self, max_index: int = 8, route: str = "welding"):
        if max_index < 1:
            raise ValueError("max_index must be at least 1")
        self.max_index = max_index
        self.route = route
        self._cache: dict[tuple[int, bool], ModeOperator] = {}
        self._parent: OperatorTable | None = None

    def restricted(self, max_index: int) -> "OperatorTable":
        """A table at the narrower window ``max_index`` sharing this table's builds.

        Each operator it hands out is this table's operator restricted to
        the window (see :meth:`ModeOperator.restricted`), so one build per
        mode serves every window up to this table's.
        """
        if max_index > self.max_index:
            raise OperatorWindowError(
                f"cannot widen a window-{self.max_index} table to {max_index}"
            )
        view = OperatorTable(max_index=max_index, route=self.route)
        view._parent = self
        return view

    def mode_operator(self, n: int, bar: bool = False) -> ModeOperator:
        key = (n, bar)
        if key not in self._cache:
            if self._parent is not None:
                op = self._parent.mode_operator(n, bar).restricted(self.max_index)
            elif (n, not bar) in self._cache:
                op = self._cache[(n, not bar)].mirrored()
            else:
                route = self.route if (self.route != "recursion" or n <= -3) else "welding"
                op = build_mode_operator(n, bar=bar, max_index=self.max_index, route=route)
            self._cache[key] = op
        return self._cache[key]

    def L(self, n: int) -> ModeOperator:
        return self.mode_operator(n, bar=False)

    def Lbar(self, n: int) -> ModeOperator:
        return self.mode_operator(n, bar=True)


# ---------------------------------------------------------------------------
# module states and pairings
# ---------------------------------------------------------------------------


def psi_state(
    k: Partition | Sequence[int],
    ktilde: Partition | Sequence[int],
    table: OperatorTable,
) -> StatePoly:
    """The geometric image of the abstract basis vector for (k, ktilde)."""
    parts = k.parts if isinstance(k, Partition) else tuple(sorted(k))
    tparts = ktilde.parts if isinstance(ktilde, Partition) else tuple(sorted(ktilde))
    state = vacuum_state()
    for p in tparts:  # smallest bar part innermost
        state = table.Lbar(-p).apply(state)
    for p in parts:
        state = table.L(-p).apply(state)
    return state


def geometric_pairing(
    k: Partition | Sequence[int],
    kprime: Partition | Sequence[int],
    table: OperatorTable,
) -> CoeffPoly:
    """<k | k'> computed entirely inside the geometric realization.

    Lower by k', then raise by k; the result must land on the vacuum line
    and the scalar in front is returned (a polynomial in weight and charge).
    """
    parts = k.parts if isinstance(k, Partition) else tuple(sorted(k))
    state = psi_state(kprime, (), table)
    for p in reversed(parts):  # largest raising mode acts first
        state = table.L(p).apply(state)
    if state.is_zero:
        return _ZERO
    if state.level != (0, 0):
        return _ZERO  # mismatched levels pair to zero; a residual state is fine
    if state.poly.max_coefficient_index() > 0:
        raise AssertionError(f"pairing did not land on the vacuum line: {state!r}")
    return state.poly


def duality_pairing(k: Partition | Sequence[int], table: OperatorTable) -> CoeffPoly:
    """Raising word of k applied to the coefficient monomial of k."""
    parts = k.parts if isinstance(k, Partition) else tuple(sorted(k))
    mono = _ONE
    for p in parts:
        mono = mono * CoeffPoly.generator(gen_a(p))
    state = fresh_state(mono)
    for p in reversed(parts):
        state = table.L(p).apply(state)
    if state.is_zero:
        return _ZERO
    if state.level != (0, 0) or state.poly.max_coefficient_index() > 0:
        raise AssertionError(f"duality pairing left a non-scalar: {state!r}")
    return state.poly


def level_rank(
    level: int,
    weight: Fraction | int,
    charge: Fraction | int,
    table: OperatorTable,
) -> int:
    """Rank of the lowered states at a pure left level, specialized exactly."""
    if level == 0:
        return 1
    assignment = {LAMBDA: Fraction(weight), CC: Fraction(charge)}
    basis = partitions_of(level)
    monomials = []
    for p in basis:
        mono = _ONE
        for part in p.parts:
            mono = mono * CoeffPoly.generator(gen_a(part))
        monomials.append(next(iter(mono.terms()))[0])
    index = {mono: i for i, mono in enumerate(monomials)}
    rows = []
    for p in basis:
        state = psi_state(p, (), table).substitute(assignment)
        row = [Fraction(0)] * len(monomials)
        for mono, coeff in state.poly.terms():
            row[index[mono]] = coeff
        rows.append(row)
    return matrix_rank(rows)


# ---------------------------------------------------------------------------
# the degenerate family
# ---------------------------------------------------------------------------


def state_family_residuals(
    poly: CoeffPoly, r: int, s: int
) -> dict[str, tuple[Fraction, ...]]:
    """Substitute the degenerate family into a (weight, charge)-polynomial.

    Along the family lambda = kac_lambda(r, s, kappa) and
    c = central_charge(kappa).  With L and C the largest weight and charge
    exponents in ``poly``, clearing kappa^(L+C) turns the coefficient of
    each body monomial into a kappa-polynomial of degree at most
    D = 2(L + C), so it vanishes identically iff it vanishes at
    kappa = 1, ..., D+1.  The returned dict maps each body monomial that
    survives at one of these points, by canonical text, to its values
    there.  An empty dict certifies that the polynomial vanishes identically
    along the family.
    """
    top = {_KIND_LAMBDA: 0, _KIND_CC: 0}
    for mono, _ in poly.terms():
        for kind, _, exp in mono:
            if kind in top:
                top[kind] = max(top[kind], exp)
    family = [
        {LAMBDA: kac_lambda(r, s, kappa), CC: central_charge(kappa)}
        for kappa in range(1, 2 * (top[_KIND_LAMBDA] + top[_KIND_CC]) + 2)
    ]
    samples = [dict(poly.substitute(point).terms()) for point in family]
    bodies = dict.fromkeys(body for sample in samples for body in sample)
    return {
        CoeffPoly({body: 1}).canonical_text(): tuple(
            sample.get(body, Fraction(0)) for sample in samples
        )
        for body in bodies
    }
