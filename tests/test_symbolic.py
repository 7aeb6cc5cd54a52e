"""Tests for the exact symbolic kernel (polynomials, series, partitions, linalg)."""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcft.operators import _coefficient_map, build_mode_operator
from loopcft.symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    InsufficientOrderError,
    LaurentSeries,
    Partition,
    a,
    abar,
    determinant,
    invert,
    kernel_basis,
    partition_count,
    partitions_of,
    pre_schwarzian,
    rank,
    rref,
    schwarzian,
    series_reversion,
    symmetric_determinants,
)
from loopcft.symbolic.poly import MAX_EXPONENT, MAX_INDEX
from oracles import from_canonical_text, partial_derivative

A1 = CoeffPoly.generator(a(1))
A2 = CoeffPoly.generator(a(2))
A3 = CoeffPoly.generator(a(3))
AB1 = CoeffPoly.generator(abar(1))
AB3 = CoeffPoly.generator(abar(3))
LAM = CoeffPoly.generator(LAMBDA)
C = CoeffPoly.generator(CC)


# ---------------------------------------------------------------------------
# polynomial ring
# ---------------------------------------------------------------------------

fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

generators_st = st.sampled_from([a(1), a(2), abar(1), abar(2), LAMBDA, CC])


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    result = CoeffPoly.zero()
    for _ in range(n):
        coeff = draw(fractions_st)
        term = CoeffPoly.constant(coeff)
        for gen in draw(st.lists(generators_st, max_size=3)):
            term = term * CoeffPoly.generator(gen, draw(st.integers(1, 2)))
        result = result + term
    return result


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + CoeffPoly.zero() == p
    assert p * CoeffPoly.one() == p
    assert p - p == CoeffPoly.zero()


@given(polys())
def test_canonical_text_round_trip(p):
    assert from_canonical_text(p.canonical_text()) == p


@given(polys(), polys())
def test_substitution_is_a_homomorphism(p, q):
    sub = {a(1): Fraction(1, 2), LAMBDA: Fraction(-3, 7)}
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    gen = a(1)
    lhs = (p * q).derivative(gen)
    rhs = p.derivative(gen) * q + p * q.derivative(gen)
    assert lhs == rhs


@given(polys(), polys())
def test_bar_swap_is_a_ring_involution(p, q):
    assert p.swap_bars().swap_bars() == p
    assert (p * q).swap_bars() == p.swap_bars() * q.swap_bars()


# -- the packed kernel against sympy, at the exponent field, and in its canonical form


SYMPY_NAMES = {a(1): "a1", a(2): "a2", abar(1): "abar1", abar(2): "abar2", LAMBDA: "lam", CC: "c"}


def _sympy_ring():
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    R, *gens = ring(",".join(SYMPY_NAMES.values()), QQ)
    return R, QQ, dict(zip(SYMPY_NAMES, gens))


def _to_sympy(poly, R, QQ, gens):
    by_key = {(g.kind, g.index): x for g, x in gens.items()}
    out = R.zero
    for mono, coeff in poly.terms():
        term = R(QQ(coeff.numerator, coeff.denominator))
        for kind, index, exp in mono:
            term *= by_key[kind, index] ** exp
        out += term
    return out


mixed_fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=30)


@st.composite
def mixed_polys(draw, max_terms=5):
    """Sums of monomials whose coefficients carry unrelated denominators."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        gens = draw(st.lists(generators_st, max_size=3, unique=True))
        mono = tuple(
            sorted((g.kind, g.index, draw(st.integers(1, 3))) for g in gens)
        )
        terms[mono] = draw(mixed_fractions_st)
    return CoeffPoly(terms)


@given(mixed_polys(), mixed_polys(), generators_st, mixed_fractions_st, mixed_fractions_st)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_sympy_ring(p, q, gen, x, y):
    pytest.importorskip("sympy")
    R, QQ, gens = _sympy_ring()
    sp, sq = _to_sympy(p, R, QQ, gens), _to_sympy(q, R, QQ, gens)
    assert _to_sympy(p + q, R, QQ, gens) == sp + sq
    assert _to_sympy(p - q, R, QQ, gens) == sp - sq
    assert _to_sympy(p * q, R, QQ, gens) == sp * sq
    assert _to_sympy(p * x, R, QQ, gens) == sp * QQ(x.numerator, x.denominator)
    assert _to_sympy(p.derivative(gen), R, QQ, gens) == sp.diff(gens[gen])
    other = a(2) if gen != a(2) else LAMBDA
    values = {gen: x, other: y}
    want = sp.subs([(gens[g], QQ(v.numerator, v.denominator)) for g, v in values.items()])
    assert _to_sympy(p.substitute(values), R, QQ, gens) == want


# the sympy generators (lambda and c among them) and the last packed a and abar fields
_derivative_generators = [*SYMPY_NAMES, a(MAX_INDEX), abar(MAX_INDEX)]


@st.composite
def top_polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        gens = draw(st.lists(st.sampled_from(_derivative_generators), max_size=3, unique=True))
        mono = tuple(sorted((g.kind, g.index, draw(st.integers(1, 3))) for g in gens))
        terms[mono] = draw(mixed_fractions_st)
    return CoeffPoly(terms)


# a generator past the packed range is in no polynomial, so its derivative is zero
@given(top_polys(), st.sampled_from([*_derivative_generators, a(MAX_INDEX + 1)]))
@settings(max_examples=150, deadline=None)
def test_derivative_matches_the_term_by_term_oracle(p, gen):
    want = partial_derivative(p, gen)
    got = p.derivative(gen)
    assert got == want
    assert got.canonical_text() == want.canonical_text()


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), st.one_of(mixed_polys(), st.integers(-5, 5), mixed_fractions_st))
def test_subtraction_is_the_sum_with_the_negation(p, q):
    want = p + (-(q if isinstance(q, CoeffPoly) else CoeffPoly.constant(q)))
    got = p - q
    assert got == want
    assert got.canonical_text() == want.canonical_text()
    assert (p - p).canonical_text() == "0/1"


def test_subtraction_edge_cases():
    x = Fraction(1, 6) * A1 - Fraction(3, 4) * LAM * AB1 + 2
    zero = CoeffPoly.zero()
    # equal operands, built apart, cancel to the zero polynomial
    assert (x - (2 + Fraction(1, 6) * A1 - Fraction(3, 4) * AB1 * LAM)) == zero
    assert (x - x).canonical_text() == "0/1"
    # unrelated denominators meet over their lcm
    y = Fraction(2, 15) * A1 + Fraction(5, 7) * C - Fraction(3, 4) * LAM * AB1
    assert (x - y).canonical_text() == (x + (-y)).canonical_text()
    assert x - y == Fraction(1, 30) * A1 - Fraction(5, 7) * C + 2
    assert x - 2 == Fraction(1, 6) * A1 - Fraction(3, 4) * LAM * AB1
    assert x - Fraction(13, 6) == x + Fraction(-13, 6)
    assert x - zero == x and zero - x == -x and zero - zero == zero
    assert 3 - x == -x + 3


def test_exponent_field_boundary():
    top = CoeffPoly.generator(a(3), MAX_EXPONENT)
    assert dict(top.terms()) == {((a(3).kind, 3, MAX_EXPONENT),): 1}
    assert (CoeffPoly.generator(a(3), MAX_EXPONENT - 1) * A3) == top
    # a neighbouring field is untouched by the full one
    assert dict((top * A2 * AB3).terms()) == {
        ((a(2).kind, 2, 1), (a(3).kind, 3, MAX_EXPONENT), (abar(3).kind, 3, 1)): 1
    }
    assert top.derivative(a(3)) == MAX_EXPONENT * CoeffPoly.generator(a(3), MAX_EXPONENT - 1)
    with pytest.raises(OverflowError):
        top * A3  # noqa: B018 - the product itself must raise
    with pytest.raises(OverflowError):
        (A1 + 2 * top) * (A3 - C)  # noqa: B018
    with pytest.raises(OverflowError):
        top * top  # noqa: B018
    with pytest.raises(OverflowError):
        CoeffPoly.generator(LAMBDA, MAX_EXPONENT + 1)
    with pytest.raises(OverflowError):
        CoeffPoly.generator(a(MAX_INDEX + 1))


@given(st.integers(1, MAX_EXPONENT), st.integers(1, MAX_EXPONENT), st.sampled_from([a(1), abar(4), LAMBDA, CC]))
def test_exponent_products_raise_exactly_past_the_field(e1, e2, gen):
    left, right = CoeffPoly.generator(gen, e1), CoeffPoly.generator(gen, e2) + A2
    if e1 + e2 > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            left * right  # noqa: B018
    else:
        assert left * right == CoeffPoly.generator(gen, e1 + e2) + left * A2


wide_generators_st = st.one_of(
    generators_st,  # a small pool, so that monomials share generators
    st.builds(a, st.integers(1, MAX_INDEX)),
    st.builds(abar, st.integers(1, MAX_INDEX)),
    st.sampled_from([LAMBDA, CC]),
)

exponents_st = st.one_of(st.integers(1, 3), st.integers(1, MAX_EXPONENT))


@st.composite
def wide_polys(draw, max_terms=5):
    """Zero, constants and sums of monomials anywhere in the packed range."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        gens = draw(st.lists(wide_generators_st, max_size=4, unique=True))
        mono = tuple(
            sorted((g.kind, g.index, draw(exponents_st)) for g in gens)
        )
        terms[mono] = draw(mixed_fractions_st)
    return CoeffPoly(terms)


@given(wide_polys())
def test_terms_list_generators_in_canonical_order(p):
    for mono, _ in p.terms():
        slots = [(kind, index) for kind, index, _ in mono]
        assert slots == sorted(set(slots))
        assert all(exponent >= 1 for _, _, exponent in mono)


def test_terms_of_zero_and_constants():
    assert list(CoeffPoly.zero().terms()) == []
    for value in (1, Fraction(-3, 7)):
        assert list(CoeffPoly.constant(value).terms()) == [((), value)]
    assert {mono for mono, _ in (A3 * AB1 + LAM - 2).terms()} == {
        ((a(3).kind, 3, 1), (abar(1).kind, 1, 1)),
        ((LAMBDA.kind, 0, 1),),
        (),
    }


@given(mixed_polys())
def test_canonical_text_round_trip_mixed_denominators(p):
    back = from_canonical_text(p.canonical_text())
    assert back == p
    assert back.canonical_text() == p.canonical_text()


def test_equal_polynomials_built_by_different_routes_hash_equal():
    x = Fraction(1, 6) * A1 + Fraction(1, 3) * AB1 * LAM - Fraction(5, 4)
    routes = [
        x,
        CoeffPoly({((0, 1, 1),): Fraction(1, 6), ((1, 1, 1), (2, 0, 1)): Fraction(1, 3), (): Fraction(-5, 4)}),
        from_canonical_text(x.canonical_text()),
        (x * 12 + A1 * A2) * Fraction(1, 12) - Fraction(1, 12) * A2 * A1,
        (x + Fraction(1, 7) * C) - C * Fraction(2, 14),
        (x * x - x * x) + x,
        (A1 * A1 * Fraction(1, 12)).derivative(a(1)) + (AB1 * LAM + 1) * Fraction(1, 3) - Fraction(19, 12),
        x.swap_bars().swap_bars(),
    ]
    for other in routes:
        assert other == x
        assert hash(other) == hash(x)
    assert CoeffPoly.constant(Fraction(4, 6)) == Fraction(2, 3)
    assert hash(A1 - A1) == hash(CoeffPoly.zero())


def test_constant_polynomials_hash_like_the_numbers_they_equal():
    for value in (0, 3, Fraction(3, 2)):
        poly = CoeffPoly.constant(value)
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1, value
        assert {value: "number"}[poly] == "number"
        assert {poly: "poly"}[value] == "poly"


def test_canonical_text_goldens():
    assert CoeffPoly.zero().canonical_text() == "0/1"
    p = 3 * A1 * A1 - Fraction(1, 2) * AB3 + 4
    assert from_canonical_text(p.canonical_text()) == p
    # graded ordering puts the heaviest monomial first
    assert p.canonical_text().startswith("3/1*a1^2")


def test_substitute_is_partial_and_exact():
    p = LAM * A1 + C
    half = p.substitute({LAMBDA: Fraction(1, 2)})
    assert half == Fraction(1, 2) * A1 + C
    full = half.substitute({CC: Fraction(-2)})
    assert full == Fraction(1, 2) * A1 - 2


def test_floats_are_rejected_as_coefficients():
    with pytest.raises(TypeError):
        A1 * 0.5  # noqa: B018 - the multiplication itself must raise


# -- the fused sum of products against the sequential sum and against sympy


def _sequential_sum_of_products(pairs):
    total = CoeffPoly.zero()
    for x, y in pairs:
        total = total + x * y
    return total


@st.composite
def product_pairs(draw):
    """Pairs with unrelated denominators, zero factors and cancelling partners."""
    pairs = draw(st.lists(st.tuples(mixed_polys(), mixed_polys()), max_size=6))
    if pairs and draw(st.booleans()):
        x, y = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.insert(draw(st.integers(0, len(pairs))), (-x, y))
    return pairs


@given(product_pairs())
@settings(max_examples=100, deadline=None)
def test_sum_of_products_matches_the_sequential_sum(pairs):
    got = CoeffPoly.sum_of_products(pairs)
    want = _sequential_sum_of_products(pairs)
    assert got == want
    assert got.canonical_text() == want.canonical_text()
    assert CoeffPoly.sum_of_products(iter(pairs)) == want


@given(product_pairs())
@settings(max_examples=60, deadline=None)
def test_sum_of_products_matches_sympy_ring(pairs):
    pytest.importorskip("sympy")
    R, QQ, gens = _sympy_ring()
    want = R.zero
    for x, y in pairs:
        want += _to_sympy(x, R, QQ, gens) * _to_sympy(y, R, QQ, gens)
    assert _to_sympy(CoeffPoly.sum_of_products(pairs), R, QQ, gens) == want


def test_sum_of_products_edge_cases():
    zero = CoeffPoly.zero()
    assert CoeffPoly.sum_of_products([]) == zero
    assert CoeffPoly.sum_of_products([(zero, A1), (A2, zero), (zero, zero)]) == zero
    x = Fraction(1, 6) * A1 - Fraction(2, 9) * AB1 * LAM
    y = Fraction(3, 4) * A2 + Fraction(5, 7)
    # pairs that cancel to zero leave the canonical zero, denominator 1
    cancel = CoeffPoly.sum_of_products([(x, y), (y, -x)])
    assert cancel == zero and cancel.canonical_text() == "0/1"
    assert hash(cancel) == hash(zero)
    # a partial cancellation reduces the denominator of the survivors
    got = CoeffPoly.sum_of_products([(x, y), (-x, y - Fraction(5, 7)), (A3, Fraction(1, 35) * C)])
    assert got == Fraction(5, 7) * x + Fraction(1, 35) * A3 * C
    assert CoeffPoly.sum_of_products([(x, CoeffPoly.one())]) == x
    # the overflow pre-check bound spans all pairs: here it trips although no
    # single pair passes MAX_EXPONENT, so the exact check must let it through
    high = CoeffPoly.generator(a(1), MAX_EXPONENT - 2)
    assert CoeffPoly.sum_of_products([(high, A2), (A3, high)]) == high * A2 + A3 * high


@given(
    st.integers(1, MAX_EXPONENT),
    st.integers(1, MAX_EXPONENT),
    st.sampled_from([a(1), abar(4), LAMBDA, CC]),
    mixed_fractions_st,
    st.booleans(),
)
@settings(deadline=None)
def test_sum_of_products_raises_exactly_when_the_sequential_sum_does(e1, e2, gen, x, first):
    near = (CoeffPoly.generator(gen, e1) * Fraction(1, 3), CoeffPoly.generator(gen, e2) + A2 * x)
    safe = (A1 * Fraction(2, 5) + 1, AB1 - Fraction(1, 7))
    pairs = [near, safe] if first else [safe, near]
    try:
        want = _sequential_sum_of_products(pairs)
    except OverflowError:
        with pytest.raises(OverflowError):
            CoeffPoly.sum_of_products(pairs)
    else:
        assert e1 + e2 <= MAX_EXPONENT
        assert CoeffPoly.sum_of_products(pairs) == want


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------


def univalent_cubic(order=7):
    """z(1 + a1 z + a2 z^2 + a3 z^3) truncated at the given order."""
    return LaurentSeries(1, [CoeffPoly.one(), A1, A2, A3], order)


def _agree(f, g):
    """Equality below the smaller of the two reliability orders."""
    order = min(f.order, g.order)
    return f.truncate(order) == g.truncate(order)


def test_reversion_goldens():
    f = LaurentSeries(1, [CoeffPoly.one(), A1], 5)
    g = series_reversion(f)
    assert g.coefficient(2) == -A1
    assert g.coefficient(3) == 2 * A1 * A1
    assert g.coefficient(4) == -5 * A1 * A1 * A1

    g2 = series_reversion(univalent_cubic().truncate(4))
    assert g2.coefficient(2) == -A1
    assert g2.coefficient(3) == 2 * A1 * A1 - A2


def _compose(outer, inner):
    """outer(inner(z)) as the sum of c_p inner^p, in series products.

    For an inner series z + ... both are read below the smaller order, and
    every power inner^p with p at or past it starts beyond that order.
    """
    order = min(outer.order, inner.order)
    total = LaurentSeries.zero(order)
    power = LaurentSeries.monomial(0, 1, None)
    for p in range(order):
        total = total + power.scale(outer.coefficient(p))
        power = (power * inner).truncate(order)
    return total


def _reversion_cases():
    """The cubic map at three orders, the coefficient map, and a mixed series."""
    mixed = [1, Fraction(2, 3) * A1 + AB1, Fraction(-5, 7), A2 * AB3 - Fraction(1, 4), 0, C]
    return {
        "cubic-7": univalent_cubic(),
        "cubic-10": univalent_cubic(10),
        "cubic-14": univalent_cubic(14),
        "map-14": _coefficient_map(14),
        "mixed-12": LaurentSeries(1, mixed, 12),
    }


def test_reversion_inverts_composition():
    for name, f in _reversion_cases().items():
        g = series_reversion(f)
        identity = LaurentSeries.monomial(1, 1, f.order)
        assert _compose(f, g) == identity, name
        assert _compose(g, f) == identity, name


def test_schwarzian_and_pre_schwarzian_at_origin():
    f = univalent_cubic()
    assert pre_schwarzian(f).coefficient(0) == 2 * A1
    assert schwarzian(f).coefficient(0) == 6 * (A2 - A1 * A1)
    g = series_reversion(f)
    assert schwarzian(g).coefficient(0) == -6 * (A2 - A1 * A1)


def test_schwarzian_moebius_invariance():
    f = univalent_cubic()
    numer = f.scale(2) + LaurentSeries.monomial(0, 1, None)
    denom = f.scale(Fraction(1, 3)) + LaurentSeries.monomial(0, 5, None)
    mf = numer * denom.inverse()
    assert _agree(schwarzian(mf), schwarzian(f))


def test_schwarzian_of_identity_is_zero():
    s = schwarzian(LaurentSeries.monomial(1, 1, 9))
    assert s.is_zero


def test_residue_vanishes_on_derivatives():
    f = LaurentSeries(-3, [Fraction(2), A1, CoeffPoly.zero(), AB1, Fraction(7, 3)], 4)
    assert f.derivative().residue() == CoeffPoly.zero()


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_residue_is_linear(c1, c2):
    f = LaurentSeries(-2, [Fraction(1), A1, A2], 3)
    g = LaurentSeries(-1, [AB1, Fraction(5)], 3)
    lhs = (f.scale(c1) + g.scale(c2)).residue()
    assert lhs == c1 * f.residue() + c2 * g.residue()


def test_order_propagation_rules():
    f = LaurentSeries(1, [1, 2, 3], 4)
    g = LaurentSeries(-1, [5, 7], 2)
    assert (f + g).order == 2
    assert (f * g).order == min(4 + (-1), 2 + 1)  # = 3
    assert f.derivative().order == 3
    assert g.inverse().order == 2 - 2 * (-1)  # = 4


def test_unreliable_coefficients_raise():
    f = LaurentSeries(1, [1, 2], 3)
    with pytest.raises(InsufficientOrderError):
        f.coefficient(3)
    with pytest.raises(InsufficientOrderError):
        f.truncate(5)
    low = LaurentSeries(-4, [1, 1], -2)
    with pytest.raises(InsufficientOrderError):
        low.residue()
    with pytest.raises(InsufficientOrderError):
        schwarzian(LaurentSeries(1, [1, 2], 3))
    with pytest.raises(InsufficientOrderError):
        series_reversion(LaurentSeries.monomial(1, 1, None))


def test_series_rejects_bad_reversion_inputs():
    with pytest.raises(ValueError):
        series_reversion(LaurentSeries(2, [1, 1], 5))
    with pytest.raises(ValueError):
        series_reversion(LaurentSeries(1, [2, 1], 5))


def test_inverse_needs_rational_unit_lead():
    with pytest.raises(ValueError):
        LaurentSeries(0, [A1, Fraction(1)], 4).inverse()
    mono = LaurentSeries.monomial(3, Fraction(2, 5), None)
    assert mono.inverse() == LaurentSeries.monomial(-3, Fraction(5, 2), None)


@pytest.mark.parametrize("n", range(-8, 9))
def test_binary_power_matches_sequential_product(n):
    order = 7
    # the welding map F(z) = z(1 + a_1 z + ... + a_5 z^5) + O(z^7)
    F = LaurentSeries(1, [CoeffPoly.one()] + [CoeffPoly.generator(a(j)) for j in range(1, order - 1)], order)
    got = F**n
    if n == 0:
        assert got == LaurentSeries.monomial(0, 1, None)
        return
    base = F if n > 0 else _reference_series_inverse(F)
    want = base
    for _ in range(abs(n) - 1):
        want = _reference_series_mul(want, base)
    assert got.valuation == want.valuation == n
    assert got.order == want.order
    assert _series_text(got) == _series_text(want)


@st.composite
def small_series(draw):
    val = draw(st.integers(-2, 2))
    coeffs = draw(st.lists(fractions_st, min_size=1, max_size=4))
    margin = draw(st.integers(0, 2))
    return LaurentSeries(val, coeffs, val + len(coeffs) + margin)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60)
def test_series_mul_is_associative_on_shared_window(f, g, h):
    assert _agree((f * g) * h, f * (g * h))


@given(small_series(), small_series())
@settings(max_examples=60)
def test_series_derivative_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert _agree(lhs, rhs)


# -- the fused series products against the loops they replaced
#
# The bodies below are LaurentSeries.__mul__ and the recursion of inverse as
# they read before each output coefficient became one sum_of_products: a
# product and a sum per term pair.  Patched into LaurentSeries, they are the
# oracle for __mul__, inverse and the welding build.  __pow__ calls neither
# (every nonzero power is Miller's recurrence), so the powers are held
# against sequential products of the reference mul instead; the reference
# inverse solves (1 + u) w = 1 term by term, not by Miller's recurrence, so
# it also seeds the sequential oracle for negative powers.


def _reference_series_mul(self, other):
    if not isinstance(other, LaurentSeries):
        return NotImplemented
    v1 = self.valuation if not self.is_zero else self.order
    v2 = other.valuation if not other.is_zero else other.order
    order = min(self.order + v2, other.order + v1)
    if self.is_zero or other.is_zero:
        return LaurentSeries.zero(order)
    width = len(self.coeffs) + len(other.coeffs) - 1
    if order != math.inf:
        width = min(width, order - v1 - v2)
    if width <= 0:
        return LaurentSeries.zero(order)
    acc = [CoeffPoly.zero()] * width
    for i, c1 in enumerate(self.coeffs):
        if c1.is_zero:
            continue
        jmax = min(len(other.coeffs), width - i)
        for j in range(jmax):
            c2 = other.coeffs[j]
            if not c2.is_zero:
                acc[i + j] = acc[i + j] + c1 * c2
    return LaurentSeries(v1 + v2, acc, order)


def _reference_series_inverse(self):
    if self.is_zero:
        raise ZeroDivisionError("inverse of the zero series")
    lead = self.coeffs[0]
    try:
        lead_const = lead.as_constant()
    except ValueError:
        raise ValueError(
            "series inverse needs a rational-constant leading coefficient, got "
            f"{lead.canonical_text()}"
        ) from None
    if lead_const == 0:
        raise ZeroDivisionError("inverse of a series with zero leading coefficient")
    v = self.valuation
    inv_lead = Fraction(1) / lead_const
    if len(self.coeffs) == 1:
        order = self.order if self.order == math.inf else self.order - 2 * v
        return LaurentSeries.monomial(-v, inv_lead, None if order == math.inf else order)
    if self.order == math.inf:
        raise InsufficientOrderError(
            "inverse of an exact multi-term series is an infinite object; truncate() first"
        )
    order = self.order - 2 * v
    rel_len = int(self.order - v)
    if rel_len <= 0:
        return LaurentSeries.zero(order)
    u = [CoeffPoly.zero()] * rel_len
    for i, c in enumerate(self.coeffs[1:], start=1):
        if i < rel_len:
            u[i] = c * inv_lead
    w = [CoeffPoly.one()] + [CoeffPoly.zero()] * (rel_len - 1)
    for k in range(1, rel_len):
        acc = CoeffPoly.zero()
        for j in range(1, k + 1):
            if not u[j].is_zero and not w[k - j].is_zero:
                acc = acc + u[j] * w[k - j]
        w[k] = -acc
    return LaurentSeries(-v, [c * inv_lead for c in w], order)


@contextmanager
def old_series_loops():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LaurentSeries, "__mul__", _reference_series_mul)
        patch.setattr(LaurentSeries, "inverse", _reference_series_inverse)
        yield


def _with_old_loops(thunk):
    with old_series_loops():
        return thunk()


def _series_text(f):
    return (f.valuation, f.order, [c.canonical_text() for c in f.coeffs])


_ONE_SERIES = LaurentSeries.monomial(0, 1, None)


@pytest.mark.parametrize("order", range(6, 19))
def test_fused_powers_of_the_coefficient_map_match_the_old_loops(order):
    # F**k calls neither patched method; the Miller tests hold it against sequential products
    F = _coefficient_map(order)
    assert _series_text(F.inverse()) == _with_old_loops(lambda: _series_text(F.inverse()))
    Fp = F.derivative()
    assert _series_text(Fp * Fp.inverse()) == _with_old_loops(lambda: _series_text(Fp * Fp.inverse()))


def _sequential_negative_powers(f, depth):
    """f**-1, ..., f**-depth: the reference inverse, multiplied by itself one factor at a time."""
    base = _reference_series_inverse(f)
    powers = [base]
    for _ in range(depth - 1):
        powers.append(powers[-1] * base)
    return powers


def _miller_cases(order):
    """The coefficient map, the same with lead 2, and a mixed-denominator variant.

    The sequential oracle is slow on the mixed variant (26 s at order 19), so
    that one stops at order 11.
    """
    F = _coefficient_map(order)
    rest = list(F.coeffs[1:])
    cases = {"map": F, "lead-2": LaurentSeries(1, [CoeffPoly.constant(2)] + rest, order)}
    if order <= 11:
        mixed = [c * Fraction(j + 2, 3 * j + 1) for j, c in enumerate(rest, start=1)]
        mixed[0] = mixed[0] + AB1 * Fraction(-5, 6) + Fraction(1, 7)
        lead = CoeffPoly.constant(Fraction(-3, 4))
        cases["mixed"] = LaurentSeries(1, [lead] + mixed, order)
    return cases


@pytest.mark.parametrize("order", range(6, 20))
def test_miller_negative_powers_match_sequential_products(order):
    for name, f in _miller_cases(order).items():
        for k, want in enumerate(_sequential_negative_powers(f, 8), start=1):
            got = f**-k
            assert (got.valuation, got.order) == (want.valuation, want.order) == (-k, order - k - 1)
            assert _series_text(got) == _series_text(want), (name, -k)


def _sequential_positive_powers(f, depth):
    """f, f**2, ..., f**depth: the reference product, one factor at a time."""
    powers = [f]
    for _ in range(depth - 1):
        powers.append(_reference_series_mul(powers[-1], f))
    return powers


@pytest.mark.parametrize("order", range(6, 20))
def test_miller_positive_powers_match_sequential_products(order):
    for name, f in _miller_cases(order).items():
        for k, want in enumerate(_sequential_positive_powers(f, 8), start=1):
            got = f**k
            assert (got.valuation, got.order) == (want.valuation, want.order) == (k, order + k - 1)
            assert _series_text(got) == _series_text(want), (name, k)


def _refusal(operation):
    """The refusal of ``operation`` on a series whose lead is a1."""
    return rf"^series {operation} needs a rational-constant leading coefficient, got 1/1\*a1$"


def test_negative_powers_refuse_what_the_inverse_refuses():
    non_unit = LaurentSeries(0, [A1, Fraction(1)], 4)
    with pytest.raises(ValueError, match=_refusal("inverse")):
        non_unit.inverse()
    with pytest.raises(ZeroDivisionError, match=r"^inverse of the zero series$"):
        LaurentSeries.zero(5).inverse()
    for k, operation in ((-1, "inverse"), (-3, "power -3")):
        with pytest.raises(ValueError, match=_refusal(operation)):
            non_unit**k
        with pytest.raises(ZeroDivisionError, match=rf"^{operation} of the zero series$"):
            LaurentSeries.zero(5) ** k
        with pytest.raises(InsufficientOrderError):
            LaurentSeries(0, [Fraction(1), A1], None) ** k
    mono = LaurentSeries.monomial(2, Fraction(3, 5), 6)
    assert mono**-3 == _sequential_negative_powers(mono, 3)[-1]
    assert LaurentSeries.monomial(2, Fraction(3, 5)) ** -2 == LaurentSeries.monomial(
        -4, Fraction(25, 9)
    )


SERIES_CASES = {
    "exact": LaurentSeries(-1, [Fraction(2, 3), A1, 0, Fraction(-5, 4) * AB1 * LAM], None),
    "exact-monomial": LaurentSeries.monomial(2, Fraction(-7, 9) * C, None),
    "truncated": LaurentSeries(0, [Fraction(3, 7), Fraction(1, 6) * A1, A2 - Fraction(2, 5), 0, C], 6),
    "truncated-low": LaurentSeries(-2, [Fraction(-4, 5), Fraction(1, 3) * A1 * AB1, Fraction(1, 8)], 2),
    "zero-exact": LaurentSeries.zero(),
    "zero-truncated": LaurentSeries.zero(3),
    "rational-lead": LaurentSeries(1, [Fraction(5, 11), Fraction(1, 4) * A1, Fraction(2, 9) * A2, A1 * A1], 7),
}


@pytest.mark.parametrize("left", sorted(SERIES_CASES))
@pytest.mark.parametrize("right", sorted(SERIES_CASES))
def test_fused_series_products_match_the_old_loop(left, right):
    f, g = SERIES_CASES[left], SERIES_CASES[right]
    assert _series_text(f * g) == _with_old_loops(lambda: _series_text(f * g))


def _outcome(thunk):
    """The series text of ``thunk()``, or the name of the error it raises."""
    try:
        return _series_text(thunk())
    except (ValueError, ZeroDivisionError) as err:
        return type(err).__name__


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_fused_inverse_and_powers_match_the_old_loops(name):
    f = SERIES_CASES[name]
    assert _outcome(f.inverse) == _with_old_loops(lambda: _outcome(f.inverse))
    # __pow__ calls neither patched method: hold f**k against sequential products,
    # and a refusal against the reference inverse's.  A positive power is refused
    # only for a lead that is not a rational constant (ValueError); the exact
    # multi-term series and the zero series still have positive powers.
    refusal = _outcome(lambda: _reference_series_inverse(f))
    if isinstance(refusal, str):
        negative = [refusal] * 4
    else:
        negative = [_series_text(p) for p in _sequential_negative_powers(f, 4)[::-1]]
    if refusal == "ValueError":
        positive = [refusal] * 4
    else:
        positive = [_series_text(p) for p in _sequential_positive_powers(f, 4)]
    got = [_outcome(lambda: f**k) for k in range(-4, 5)]
    assert got == negative + [_series_text(_ONE_SERIES)] + positive


def test_positive_powers_of_exact_truncated_and_zero_series():
    for name in ("exact", "truncated", "rational-lead", "zero-exact", "zero-truncated"):
        f = SERIES_CASES[name]
        for k, want in enumerate(_sequential_positive_powers(f, 4), start=1):
            got = f**k
            assert _series_text(got) == _series_text(want), (name, k)
            assert got.is_exact == f.is_exact, (name, k)
    assert LaurentSeries.zero(3) ** 4 == LaurentSeries.zero(12)
    assert LaurentSeries.zero() ** 4 == LaurentSeries.zero()
    # the exact power keeps its top coefficient: (1 + z)^3 = 1 + 3z + 3z^2 + z^3
    assert LaurentSeries(0, [1, 1]) ** 3 == LaurentSeries(0, [1, 3, 3, 1])
    for k in (1, 2):
        with pytest.raises(ValueError, match=_refusal(f"power {k}")):
            LaurentSeries(0, [A1, Fraction(1)], 4) ** k


@st.composite
def poly_series(draw):
    """Truncated series with mixed-denominator polynomial coefficients and a rational lead."""
    val = draw(st.integers(-2, 2))
    lead = draw(mixed_fractions_st.filter(bool))
    rest = draw(st.lists(mixed_polys(max_terms=3), max_size=4))
    margin = draw(st.integers(0, 2))
    return LaurentSeries(val, [lead] + rest, val + len(rest) + 1 + margin)


@given(poly_series(), poly_series())
@settings(max_examples=60, deadline=None)
def test_fused_series_arithmetic_matches_the_old_loops_on_random_series(f, g):
    got = [_series_text(f * g), _series_text(f.inverse()), _series_text(g**-2 * f**3)]
    with old_series_loops():
        want = [_series_text(f * g), _series_text(f.inverse()), _series_text(g**-2 * f**3)]
    assert got == want


def test_fused_welding_build_matches_the_old_loops():
    def builds():
        return [build_mode_operator(n, max_index=10) for n in range(-8, 9)]

    assert builds() == _with_old_loops(builds)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def euler_partition_counts(limit):
    """Independent p(n) oracle via the pentagonal number recurrence."""
    counts = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    return counts


def test_partition_counts_match_pentagonal_recurrence():
    oracle = euler_partition_counts(20)
    for n in range(21):
        assert partition_count(n) == oracle[n]


def test_partition_basis_order_pins():
    assert [x.parts for x in partitions_of(0)] == [()]
    assert [x.parts for x in partitions_of(2)] == [(1, 1), (2,)]
    assert [x.parts for x in partitions_of(3)] == [(1, 1, 1), (1, 2), (3,)]
    assert [x.parts for x in partitions_of(4)] == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 3),
        (2, 2),
        (4,),
    ]


def test_partition_validation_and_helpers():
    p = Partition((1, 2, 2))
    assert p.multiplicity_vector() == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((0, 1))


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

matrices_st = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(fractions_st, min_size=n, max_size=n), min_size=1, max_size=4
    )
)


@given(matrices_st)
@settings(max_examples=60)
def test_rank_nullity(m):
    cols = len(m[0])
    assert rank(m) + len(kernel_basis(m)) == cols


@given(matrices_st)
@settings(max_examples=60)
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m):
        for row in m:
            assert sum(x * v for x, v in zip(row, vec)) == 0


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(fractions_st, min_size=n, max_size=n), min_size=n, max_size=n
    )
))
@settings(max_examples=60)
def test_inverse_or_zero_determinant(m):
    n = len(m)
    if determinant(m) == 0:
        with pytest.raises(ValueError):
            invert(m)
    else:
        inv = invert(m)
        for i in range(n):
            for j in range(n):
                entry = sum(m[i][k] * inv[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)


def _reference_determinant(matrix):
    """Elimination over Fraction with row pivoting, kept as the oracle for the
    fraction-free routine."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            factor = m[i][c] / m[c][c]
            m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return det


wide_fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@st.composite
def square_matrices(draw):
    """Rational square matrices, some bent to be singular or to start on a zero pivot."""
    n = draw(st.integers(0, 6))
    m = draw(st.lists(st.lists(wide_fractions_st, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "zero pivot", "zero column", "dependent row"]))
    if n and shape == "zero pivot":
        m[0][0] = Fraction(0)
    elif n and shape == "zero column":
        for row in m:
            row[0] = Fraction(0)
    elif n >= 2 and shape == "dependent row":
        u, v = draw(wide_fractions_st), draw(wide_fractions_st)
        m[-1] = [u * x + v * y for x, y in zip(m[0], m[1])]
    return m


@given(square_matrices())
@settings(max_examples=100)
def test_fraction_free_determinant_matches_fraction_elimination(m):
    assert determinant(m) == _reference_determinant(m)


def test_fraction_free_determinant_edge_cases():
    assert determinant([]) == 1
    assert determinant([[Fraction(-3, 7)]]) == Fraction(-3, 7)
    # zero leading pivots force a row swap (sign flip) at two steps
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    # the rows' denominators come back out exactly
    assert determinant([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 7]]) == Fraction(103, 30)
    with pytest.raises(ValueError):
        determinant([[1, 2]])


@st.composite
def rational_matrices(draw):
    """Rational matrices of 1-6 rows and 1-6 columns, half of them square,
    some bent to a zero leading pivot, a zero column or a dependent row."""
    rows = draw(st.integers(1, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 6))
    row_st = st.lists(wide_fractions_st, min_size=cols, max_size=cols)
    m = draw(st.lists(row_st, min_size=rows, max_size=rows))
    shape = draw(st.sampled_from(["plain", "zero pivot", "zero column", "dependent row"]))
    if shape == "zero pivot":
        m[0][0] = Fraction(0)
    elif shape == "zero column":
        column = draw(st.integers(0, cols - 1))
        for row in m:
            row[column] = Fraction(0)
    elif rows >= 2 and shape == "dependent row":
        u, v = draw(wide_fractions_st), draw(wide_fractions_st)
        m[-1] = [u * x + v * y for x, y in zip(m[0], m[1])]
    return m


def _from_sympy(entries):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in entries]


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_linalg_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m])
    reduced, pivots = reference.rref()
    assert rref(m) == (_from_sympy(reduced.tolist()), list(pivots))
    assert rank(m) == reference.rank()
    # sympy sets each free coordinate to 1; kernel_basis scales each vector to a leading 1
    expected = []
    for vector in _from_sympy(reference.nullspace()):
        lead = next(x for x in vector if x)
        expected.append([x / lead for x in vector])
    assert kernel_basis(m) == expected
    if len(m) == len(m[0]):
        det = reference.det()
        assert determinant(m) == Fraction(int(det.p), int(det.q))
        if det:
            assert invert(m) == _from_sympy(reference.inv().tolist())
        else:
            with pytest.raises(ValueError):
                invert(m)


_LOCKSTEP_SHAPES = ["plain", "zero pivot at step 0", "zero pivot at step 1", "singular"]


@st.composite
def lockstep_matrices(draw):
    """(upper, the matrix at each node) for symmetric integer matrices.

    Node t is bent to the shape ``_LOCKSTEP_SHAPES[(t + shift) % 4]``, so
    with two or more nodes some, but not all, leave the lockstep at a zero
    pivot, at step 0 or at step 1, and with four or more one is singular.
    """
    n = draw(st.integers(0, 7))
    nodes = draw(st.integers(1, 12))
    shift = draw(st.integers(0, len(_LOCKSTEP_SHAPES) - 1))
    small = st.integers(-6, 6)
    matrices = []
    for t in range(nodes):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(small)
        shape = _LOCKSTEP_SHAPES[(t + shift) % len(_LOCKSTEP_SHAPES)]
        if n and shape == "zero pivot at step 0":
            m[0][0] = 0
        elif n >= 2 and shape == "zero pivot at step 1":
            # a rank-one leading 2 x 2 block: a nonzero first pivot, a zero second
            u, v = draw(st.integers(1, 4)), draw(small)
            m[0][0], m[0][1], m[1][0], m[1][1] = u * u, u * v, u * v, v * v
        elif n >= 2 and shape == "singular":
            # the last row and column repeat the first
            for j in range(n - 1):
                m[-1][j] = m[j][-1] = m[0][j]
            m[-1][-1] = m[0][0]
        matrices.append(m)
    upper = [[[m[i][j] for m in matrices] for j in range(i, n)] for i in range(n)]
    return upper, matrices


@given(lockstep_matrices())
@settings(max_examples=150)
def test_symmetric_determinants_match_determinant_node_by_node(case):
    upper, matrices = case
    assert symmetric_determinants(upper, len(matrices)) == [determinant(m) for m in matrices]


def test_symmetric_determinants_edge_cases():
    assert symmetric_determinants([], 3) == [1, 1, 1]
    assert symmetric_determinants([[[5, 0, -2]]], 3) == [5, 0, -2]
    # two nodes of [[a, b], [b, d]]: one regular, one with a zero first pivot
    assert symmetric_determinants([[[2, 0], [3, 1]], [[7, 4]]], 2) == [5, -1]
    with pytest.raises(ValueError):
        symmetric_determinants([[[1], [2]]], 1)
    with pytest.raises(ValueError):
        symmetric_determinants([[[1, 2]]], 1)
