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
``s = e_coeff * (2*lambda + N + Ntilde) + id_coeff``.  The operator's
:class:`~loopcft.symbolic.Derivation`, a cached property derived from
``d_a`` and ``d_abar``, takes ``s`` through ``with_scalar`` into one
kernel operand, memoized per total level.  :meth:`ModeOperator.apply`
checks the state's index window and hands that operand to
:meth:`CoeffPoly.first_order`, which sums every product term into one
accumulator over one common denominator and reduces only the result: no
per-generator derivative, product or sum is ever built.

The central coefficient comes from the Schwarzian cocycle.  With
``q = -F**(n+1) / F'`` the deformation field pulled back to the z-plane,
``vartheta_n = -res_z[S(F) q]``: the chain rule (S(G) o F) F'^2 = -S(F) for
the inverse map G turns the inverse-map residue -res_w[S(G) w^(n+1)] into
this z-plane residue, so the build never reverses a series.  The residue
formulas (:func:`varpi`, :func:`vartheta`) keep the inverse-map form as an
independent cross-check.  For mode n they read G below w^o with
o = max(4, 2 - n): (G'/G)^2 and S(G) are reliable below w^(o-3), which
takes in the w^(-n-2) coefficient that is the residue, and S(G) needs
o >= 4 for the three coefficients of G it reads.

:class:`ModeOperator` is the one carrier of this first-order data.  The
welding build, a bracket (:func:`commutator_parts`) and a bracket's
defect from its algebra value (:func:`commutator_defect`) are all of
that type, compared with ``==`` and tested with ``is_zero``.  Every
component x of a bracket (``d_a[m]``, ``d_abar[m]``, Euler, identity) is
``u(t_x) - t(u_x) + n_u e_t u_x - n_t e_u t_x``, with ``u(.)`` the
derivation part of u and ``e_u`` its Euler coefficient: two
:meth:`ModeOperator.derive` calls, each with its Euler term as the scalar.

:func:`build_mode_operator`, the one construction, builds the L family;
an L-bar operator is only ever the mirror of L(n).  The tests hold the
deep modes against a bracket recursion from L_{-1} and L_{-2}, an oracle
that lives with them (``tests/oracles.py``).

Every coefficient polynomial is extracted from exact truncated-series
computations with tracked reliability; nothing here ever truncates
silently — an operator that cannot act exactly on a state raises
:class:`OperatorWindowError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, sub
from typing import Mapping, Sequence

from .symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    Derivation,
    LaurentSeries,
    Partition,
    a as gen_a,
    abar as gen_abar,
    partition_parts,
    schwarzian,
    series_reversion,
)
from .verma import central_charge, cocycle, kac_lambda, lowering_word, raising_word

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

    def scale(self, factor: CoeffPoly | Fraction | int) -> "StatePoly":
        return StatePoly(self.poly * factor, self.level)

    def __add__(self, other: "StatePoly") -> "StatePoly":
        return self._combine(add, other)

    def __sub__(self, other: "StatePoly") -> "StatePoly":
        return self._combine(sub, other)

    def _combine(self, op, other: "StatePoly") -> "StatePoly":
        if other.is_zero:
            return self
        if self.is_zero:
            return StatePoly(op(_ZERO, other.poly), other.level)
        if self.level != other.level:
            raise ValueError(f"cannot add states at levels {self.level} and {other.level}")
        return StatePoly(op(self.poly, other.poly), self.level)

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

    # the dict fields make the generated hash fail; say so in the type
    __hash__ = None

    def __post_init__(self):
        # zero coefficients are dropped, so equal operators have equal maps
        d_a = {m: c for m, c in self.d_a.items() if not c.is_zero}
        d_abar = {m: c for m, c in self.d_abar.items() if not c.is_zero}
        object.__setattr__(self, "d_a", d_a)
        object.__setattr__(self, "d_abar", d_abar)

    @cached_property
    def _derivation(self) -> Derivation:
        """The derivation part, prepared for :meth:`CoeffPoly.first_order`."""
        coeffs = {gen_a(m): c for m, c in self.d_a.items()}
        coeffs.update((gen_abar(m), c) for m, c in self.d_abar.items())
        return Derivation(coeffs)

    @cached_property
    def _scalars(self) -> dict[int, Derivation]:
        """The whole operator as one kernel operand at each total level N + Ntilde."""
        return {}

    @property
    def is_zero(self) -> bool:
        """True when the derivation, Euler and identity parts all vanish."""
        return not self.d_a and not self.d_abar and self.e_coeff.is_zero and self.id_coeff.is_zero

    def _act(self, poly: CoeffPoly, op: Derivation) -> CoeffPoly:
        """The kernel operand ``op`` on a polynomial inside the window."""
        if poly.max_coefficient_index() > self.max_index:
            raise OperatorWindowError(
                f"input reaches index {poly.max_coefficient_index()} but mode "
                f"{self.mode} operator only covers indices up to {self.max_index}"
            )
        return poly.first_order(op)

    def derive(self, poly: CoeffPoly, scalar: CoeffPoly | None = None) -> CoeffPoly:
        """The derivation part sum_g d_g * d/dg, plus ``scalar * poly``, on a polynomial.

        One pass of :meth:`CoeffPoly.first_order`: no per-generator
        temporaries, one reduction of the result.
        """
        return self._act(poly, self._derivation.with_scalar(scalar))

    def apply(self, state: StatePoly) -> StatePoly:
        """The whole operator on a state, derivation and scalar part in one pass.

        At bi-level (N, Ntilde) the Euler and identity terms act as the scalar
        ``e_coeff * (2*lambda + N + Ntilde) + id_coeff``, which joins the
        derivation in one kernel operand (memoized per total level) and a
        single :meth:`CoeffPoly.first_order` call.
        """
        if state.is_zero:
            return state
        n_left, n_right = state.level
        total = n_left + n_right
        op = self._scalars.get(total)
        if op is None:
            scalar = self.e_coeff * (2 * _LAM + total) + self.id_coeff
            op = self._scalars[total] = self._derivation.with_scalar(scalar)
        out = self._act(state.poly, op)
        if self.bar:
            new_level = (n_left, n_right - self.mode)
        else:
            new_level = (n_left - self.mode, n_right)
        return StatePoly(out, new_level)

    def mirrored(self) -> "ModeOperator":
        """The same mode of the other family (bar involution of all data)."""
        return replace(
            self,
            bar=not self.bar,
            e_coeff=self.e_coeff.swap_bars(),
            id_coeff=self.id_coeff.swap_bars(),
            d_a={m: c.swap_bars() for m, c in self.d_abar.items()},
            d_abar={m: c.swap_bars() for m, c in self.d_a.items()},
        )

    def restricted(self, max_index: int) -> "ModeOperator":
        """The same operator on the narrower window of indices up to ``max_index``.

        Coefficients on that window do not depend on the build window, so a
        welded operator restricted to w is ``==`` to a direct build at w.
        The copy prepares its own derivation and scalars on first use.
        """
        if max_index > self.max_index:
            raise OperatorWindowError(
                f"cannot widen mode {self.mode} operator from {self.max_index} to {max_index}"
            )
        if max_index == self.max_index:
            return self
        return replace(
            self,
            max_index=max_index,
            d_a={m: c for m, c in self.d_a.items() if m <= max_index},
            d_abar={m: c for m, c in self.d_abar.items() if m <= max_index},
        )

    def scaled(self, factor: Fraction | int) -> "ModeOperator":
        """Every part times the rational ``factor``, on the same window."""
        return replace(
            self,
            e_coeff=self.e_coeff * factor,
            id_coeff=self.id_coeff * factor,
            d_a={m: c * factor for m, c in self.d_a.items()},
            d_abar={m: c * factor for m, c in self.d_abar.items()},
        )

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        """The part-by-part difference of two operators on one window.

        The result keeps this operator's mode and family.
        """
        if other.max_index != self.max_index:
            raise OperatorWindowError(
                f"cannot subtract an operator on window {other.max_index} "
                f"from one on window {self.max_index}"
            )
        return replace(
            self,
            e_coeff=self.e_coeff - other.e_coeff,
            id_coeff=self.id_coeff - other.id_coeff,
            d_a={m: self.d_a.get(m, _ZERO) - other.d_a.get(m, _ZERO)
                 for m in self.d_a.keys() | other.d_a.keys()},
            d_abar={m: self.d_abar.get(m, _ZERO) - other.d_abar.get(m, _ZERO)
                    for m in self.d_abar.keys() | other.d_abar.keys()},
        )

    def __repr__(self) -> str:
        family = "Lbar" if self.bar else "L"
        return f"<{family}_{self.mode} up to index {self.max_index}>"


def _coefficient_map(order: int) -> LaurentSeries:
    """F(z) = z(1 + a_1 z + a_2 z^2 + ...) truncated at the given order."""
    coeffs: list[CoeffPoly] = [_ONE]
    coeffs += [CoeffPoly.generator(gen_a(j)) for j in range(1, order - 1)]
    return LaurentSeries(1, coeffs, order)


def build_mode_operator(n: int, *, max_index: int) -> ModeOperator:
    """The L-family operator of mode n from the welded deformation fields.

    The deformation of the coefficient body induced by the vector field
    ``-z**(n+1) d/dz`` acting on the welding splits into an interior motion
    (the P-part plus the Euler term) and a reflected exterior motion (the
    Q-part); both are read off exactly as series coefficients.

    The central coefficient is theta_n = -res_z[S(F) q] with
    ``q = -F**(n+1) / F'``.  It equals the inverse-map form
    -[w^(-n-2)] S(G) of :func:`vartheta` by the Schwarzian chain rule
    (S(G) o F) F'^2 = -S(F): substituting w = F(z) turns
    res_w[S(G) w^(n+1)] into res_z[S(F) q].  No series reversion is needed.

    With gamma = [z^1] q / 2, d_a[m] and d_abar[m] are the z^(m+1)
    coefficients of the interior motion (q_high - gamma (F/F' - z)) F' and
    of the bar-conjugated exterior motion (-gamma (F/F' - z) - u_high) F',
    where q_high keeps the powers z^2 and up of q and u_high is the
    reflection sum_{p <= 0} -q_p z^(2-p) of its low part.  Two exact
    identities remove every full-width product from these:
    (i) q F' = -F^(n+1), and (ii) (F/F' - z) F' = F - z F', whose z^(m+1)
    coefficient is -m a_m.  With F' = sum_j (j+1) a_j z^j, a_0 = 1, and the
    low coefficients q_(n+1) .. q_1 of q, for m = 1..w (w = max_index):

        d_a[m]    = -[z^(m+1)] F^(n+1) - sum_{i=n+1..1} q_i (m+2-i) a_(m+1-i)
                    + gamma m a_m
        d_abar[m] = gamma m abar_m + sum_{p=max(n+1, 1-m)..0} q_p (m+p) abar_(m-1+p)

    with abar_0 = 1; these are the coefficient-coordinate formulas of
    Kirillov and Yuriev (Funct. Anal. Appl. 21 (1987) 284-294).  For n >= 1
    q starts at z^2, so d_abar = 0 and d_a[m] = -[z^(m+1)] F^(n+1).  The
    low part of q is one short product: F^(n+1) below z^2 times 1/F' below
    z^(1-n), the same part theta reads.  F^(n+1) is needed below z^(w+2);
    for n < 0 the sums read a_j up to j = w - n, past the window, where
    they cancel against F^(n+1), so F is built to order w + 2 + max(0, -n).
    """
    top = max_index + 2
    F = _coefficient_map(top + max(0, -n))
    # cut to z^(top-n) (F's own order for n < 0), F^(n+1) is reliable below z^top;
    # keep F's lead even when nothing else is read
    power = F.truncate(max(2, top - n)) ** (n + 1)
    q_low, theta = {}, _ZERO
    if n <= 0:
        head = F.truncate(2 - n)
        q = -(power.truncate(2) * head.derivative().inverse())
        q_low = {i: q.coefficient(i) for i in range(n + 1, 2)}
        if n <= -2:
            # only the z^-1 term of S(F) q is needed: S(F) through z^(-n-2), q through z^-1
            theta = -(schwarzian(head) * q.truncate(0)).residue()
    gamma = q_low.get(1, _ZERO) * Fraction(1, 2)

    a = F.coeffs  # a[j] = [z^(j+1)] F = a_j, with a_0 = 1
    abar = [c.swap_bars() for c in a[: max_index + 1]]
    d_a, d_abar = {}, {}
    for m in range(1, max_index + 1):
        d_a[m] = CoeffPoly.sum_of_products(
            [(c, a[m + 1 - i] * -(m + 2 - i)) for i, c in q_low.items()] + [(gamma, a[m] * m)]
        ) - power.coefficient(m + 1)
        d_abar[m] = CoeffPoly.sum_of_products(
            [(c, abar[m - 1 + p] * (m + p)) for p, c in q_low.items() if 1 - m <= p <= 0]
            + [(gamma, abar[m] * m)]
        )
    return ModeOperator(
        mode=n,
        bar=False,
        max_index=max_index,
        e_coeff=-gamma,
        id_coeff=-(_C * theta) * Fraction(1, 12) if not theta.is_zero else _ZERO,
        d_a=d_a,
        d_abar=d_abar,
    )


# ---------------------------------------------------------------------------
# independent residue cross-checks for the scalar coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inverse_map(order: int) -> LaurentSeries:
    """G = F^{-1}, the compositional inverse of the coefficient map."""
    return series_reversion(_coefficient_map(order))


@lru_cache(maxsize=None)
def _log_derivative_square(order: int) -> LaurentSeries:
    """(G'/G)^2, the mode-free factor of the :func:`varpi` integrand."""
    G = _inverse_map(order)
    lg = G.derivative() * G.inverse()
    return lg * lg


@lru_cache(maxsize=None)
def _inverse_schwarzian(order: int) -> LaurentSeries:
    """S(G), the mode-free factor of the :func:`vartheta` integrand."""
    return schwarzian(_inverse_map(order))


def varpi(n: int) -> CoeffPoly:
    """Euler coefficient of mode n via the inverse-map residue formula."""
    integrand = _log_derivative_square(max(4, 2 - n)).shift(n + 1)
    return -integrand.residue() * Fraction(1, 2)


def vartheta(n: int) -> CoeffPoly:
    """Central-direction coefficient of mode n via the Schwarzian residue."""
    integrand = _inverse_schwarzian(max(4, 2 - n)).shift(n + 1)
    return -integrand.residue()


# ---------------------------------------------------------------------------
# operator brackets
# ---------------------------------------------------------------------------


def commutator_parts(u: ModeOperator, t: ModeOperator) -> ModeOperator:
    """The bracket [u, t] as a first-order operator of mode ``nu + nt``.

    Valid for any pair of families: the Euler operator couples to both
    families' levels at once, which is what makes this closed form work.
    The result is in u's family and covers indices up to
    ``min(Mu - |mode_t|, Mt - |mode_u|)``.
    """
    window = min(u.max_index - abs(t.mode), t.max_index - abs(u.mode))
    if window < 1:
        raise OperatorWindowError("operators too narrow to bracket")
    nu, nt = u.mode, t.mode
    # each side is one first-order pass with its Euler term as the scalar
    u_scalar, t_scalar = u.e_coeff * -nt, t.e_coeff * -nu

    def part(u_x: CoeffPoly, t_x: CoeffPoly) -> CoeffPoly:
        out = u.derive(t_x, u_scalar) if not t_x.is_zero else _ZERO
        if not u_x.is_zero:
            out = out - t.derive(u_x, t_scalar)
        return out

    indices = range(1, window + 1)
    return ModeOperator(
        mode=nu + nt,
        bar=u.bar,
        max_index=window,
        e_coeff=part(u.e_coeff, t.e_coeff),
        id_coeff=part(u.id_coeff, t.id_coeff),
        d_a={m: part(u.d_a.get(m, _ZERO), t.d_a.get(m, _ZERO)) for m in indices},
        d_abar={m: part(u.d_abar.get(m, _ZERO), t.d_abar.get(m, _ZERO)) for m in indices},
    )


def commutator_defect(
    u: ModeOperator, t: ModeOperator, reference: "OperatorTable"
) -> ModeOperator:
    """[u, t] minus its expected algebra value, as one operator.

    For a same-family pair the expectation is ``(nu - nt) L_{nu+nt}``, taken
    from ``reference``, plus the central cocycle times the identity; for a
    mixed pair it is zero.  The defect covers the bracket's window and
    ``is_zero`` exactly iff the relation holds there.
    """
    defect = commutator_parts(u, t)
    if u.bar != t.bar:
        return defect
    factor = u.mode - t.mode
    if factor:
        ref = reference.mode_operator(defect.mode, bar=u.bar)
        if ref.max_index < defect.max_index:
            raise OperatorWindowError("reference operator window too small")
        defect = defect - ref.restricted(defect.max_index).scaled(factor)
    if u.mode + t.mode == 0:
        central = _C * Fraction(1, 12) * cocycle(u.mode, t.mode)
        defect = replace(defect, id_coeff=defect.id_coeff - central)
    return defect


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------


class OperatorTable:
    """Cache of mode operators for both families at a fixed index window.

    A table made by :meth:`restricted` builds nothing itself: it takes each
    operator from the wider table it was cut from and restricts it.
    """

    def __init__(self, max_index: int):
        if max_index < 1:
            raise ValueError("max_index must be at least 1")
        self.max_index = max_index
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
        view = OperatorTable(max_index=max_index)
        view._parent = self
        return view

    def mode_operator(self, n: int, bar: bool = False) -> ModeOperator:
        """The mode-n operator of one family; L-bar is the mirror of L(n)."""
        key = (n, bar)
        if key not in self._cache:
            if self._parent is not None:
                op = self._parent.mode_operator(n, bar).restricted(self.max_index)
            elif bar:
                op = self.L(n).mirrored()
            else:
                op = build_mode_operator(n, max_index=self.max_index)
            self._cache[key] = op
        return self._cache[key]

    def L(self, n: int) -> ModeOperator:
        return self.mode_operator(n, bar=False)

    def Lbar(self, n: int) -> ModeOperator:
        return self.mode_operator(n, bar=True)


# ---------------------------------------------------------------------------
# module states and pairings
# ---------------------------------------------------------------------------


def _apply_word(
    word: Sequence[int], state: StatePoly, table: OperatorTable, bar: bool = False
) -> StatePoly:
    """One family's modes of a :func:`lowering_word` or :func:`raising_word`, rightmost first."""
    for n in reversed(word):
        state = table.mode_operator(n, bar).apply(state)
    return state


def _vacuum_coefficient(state: StatePoly) -> CoeffPoly:
    """The scalar in front of the vacuum of a state that must lie on its line."""
    if state.is_zero:
        return _ZERO
    if state.level != (0, 0) or state.poly.max_coefficient_index() > 0:
        raise AssertionError(f"pairing did not land on the vacuum line: {state!r}")
    return state.poly


def _coefficient_monomial(k: Partition | Sequence[int]) -> CoeffPoly:
    """The monomial a_{k_1} ... a_{k_j} of a partition."""
    mono = _ONE
    for p in partition_parts(k):
        mono = mono * CoeffPoly.generator(gen_a(p))
    return mono


def psi_state(
    k: Partition | Sequence[int],
    ktilde: Partition | Sequence[int],
    table: OperatorTable,
) -> StatePoly:
    """The geometric image of the abstract basis vector for (k, ktilde)."""
    state = _apply_word(lowering_word(ktilde), vacuum_state(), table, bar=True)
    return _apply_word(lowering_word(k), state, table)


def geometric_pairing(
    k: Partition | Sequence[int],
    kprime: Partition | Sequence[int],
    table: OperatorTable,
) -> CoeffPoly:
    """<k | k'> computed entirely inside the geometric realization.

    Lower by k', then raise by k; the result must land on the vacuum line
    and the scalar in front is returned (a polynomial in weight and charge).
    Entries across levels are zero.
    """
    if sum(partition_parts(k)) != sum(partition_parts(kprime)):
        return _ZERO
    return _vacuum_coefficient(_apply_word(raising_word(k), psi_state(kprime, (), table), table))


def duality_pairing(k: Partition | Sequence[int], table: OperatorTable) -> CoeffPoly:
    """Raising word of k applied to the coefficient monomial of k."""
    state = fresh_state(_coefficient_monomial(k))
    return _vacuum_coefficient(_apply_word(raising_word(k), state, table))


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
    top = {LAMBDA.kind: 0, CC.kind: 0}
    for mono, _ in poly.terms():
        for kind, _, exp in mono:
            if kind in top:
                top[kind] = max(top[kind], exp)
    family = [
        {LAMBDA: kac_lambda(r, s, kappa), CC: central_charge(kappa)}
        for kappa in range(1, 2 * (top[LAMBDA.kind] + top[CC.kind]) + 2)
    ]
    samples = [dict(poly.substitute(point).terms()) for point in family]
    bodies = dict.fromkeys(body for sample in samples for body in sample)
    return {
        CoeffPoly({body: 1}).canonical_text(): tuple(
            sample.get(body, Fraction(0)) for sample in samples
        )
        for body in bodies
    }
