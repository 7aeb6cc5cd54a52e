"""Tests for the geometric mode operators.

The welding construction is cross-checked three independent ways: against
the inverse-map residue formulas for its scalar coefficients, against the
bracket recursion for deep negative modes, and — for mode -2 — against a
constraint solver that knows nothing about series and recovers the operator
purely from the algebra it must satisfy.
"""

import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcft import operators, reports
from loopcft.operators import (
    ModeOperator,
    OperatorTable,
    OperatorWindowError,
    StatePoly,
    build_mode_operator,
    commutator_defect,
    commutator_parts,
    duality_pairing,
    fresh_state,
    geometric_pairing,
    psi_state,
    state_family_residuals,
    vacuum_state,
    varpi,
    vartheta,
    _coefficient_map,
)
from loopcft.reports import RunConfig, report_all, suite_gram, suite_operators, suite_singular
from loopcft.symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    Derivation,
    LaurentSeries,
    a,
    abar,
    partitions_of,
    rref,
    schwarzian,
    series_reversion,
)
from loopcft.symbolic.poly import MAX_EXPONENT
from loopcft.verma import central_charge, gram_entry, gram_rank_at, kac_lambda
from oracles import level_rank, partial_derivative, recursion_mode_operator

LAM = CoeffPoly.generator(LAMBDA)
C = CoeffPoly.generator(CC)
A1 = CoeffPoly.generator(a(1))
A2 = CoeffPoly.generator(a(2))
A3 = CoeffPoly.generator(a(3))
AB1 = CoeffPoly.generator(abar(1))
AB2 = CoeffPoly.generator(abar(2))
ZERO = CoeffPoly.zero()
ONE = CoeffPoly.one()


@pytest.fixture(scope="module")
def table():
    return OperatorTable(max_index=8)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_fresh_state_reads_levels():
    assert fresh_state(A2).level == (2, 0)
    assert fresh_state(A1 * A1 * AB2).level == (2, 2)
    assert fresh_state(A2 - A1 * A1).level == (2, 0)
    assert fresh_state(ZERO).is_zero
    with pytest.raises(ValueError):
        fresh_state(A1 + A2)  # mixes bidegrees (1,0) and (2,0)


def test_state_addition_guards_levels():
    with pytest.raises(ValueError):
        fresh_state(A1) + fresh_state(A2)
    s = fresh_state(A1) + StatePoly(ZERO, None)
    assert s.poly == A1


# ---------------------------------------------------------------------------
# operator data anchors
# ---------------------------------------------------------------------------


def test_mode_minus_one_matches_closed_form(table):
    op = table.L(-1)
    assert op.e_coeff == -A1
    assert op.id_coeff.is_zero
    # (m+2)(a_{m+1} - a_1 a_m) with a_0 = 1
    assert op.d_a[1] == 3 * (A2 - A1 * A1)
    assert op.d_a[2] == 4 * (A3 - A1 * A2)
    # m (a_1 abar_m - abar_{m-1}) with abar_0 = 1
    assert op.d_abar[1] == A1 * AB1 - 1
    assert op.d_abar[2] == 2 * (A1 * AB2 - AB1)


def test_mode_zero_is_the_half_euler_grading(table):
    op = table.L(0)
    assert op.e_coeff == CoeffPoly.constant(Fraction(1, 2))
    assert op.id_coeff.is_zero
    for m in range(1, 9):
        assert op.d_a[m] == Fraction(m, 2) * CoeffPoly.generator(a(m))
        assert op.d_abar[m] == Fraction(-m, 2) * CoeffPoly.generator(abar(m))


def test_mode_minus_two_vacuum_anchor(table):
    out = table.L(-2).apply(vacuum_state())
    expect = 3 * LAM * A1 * A1 - (4 * LAM + Fraction(1, 2) * C) * (A2 - A1 * A1)
    assert out.poly == expect
    assert out.level == (2, 0)


def test_scalar_coefficients_match_residue_route(table):
    for n in range(-4, 5):
        op = table.L(n)
        assert op.e_coeff == -varpi(n), n
        theta = vartheta(n)
        assert op.id_coeff == -(C * theta) * Fraction(1, 12), n


@pytest.mark.parametrize("n", range(-2, -7, -1))
def test_central_coefficient_matches_inverse_map_schwarzian(n):
    # reference: theta_n = -[z^(-n-2)] S(G) with G the reversed coefficient map
    window = 6
    order = window + abs(n) + 2
    coeffs = [CoeffPoly.one()] + [CoeffPoly.generator(a(j)) for j in range(1, order - 1)]
    F = LaurentSeries(1, coeffs, order)
    theta = -schwarzian(series_reversion(F)).coefficient(-n - 2)
    op = build_mode_operator(n, max_index=window)
    assert op.id_coeff == -(C * theta) * Fraction(1, 12)


def test_bar_family_is_the_mirror(table):
    for n in (-2, 0, 3):
        op = table.L(n)
        mirror = table.Lbar(n)
        assert mirror.e_coeff == op.e_coeff.swap_bars()
        for m in range(1, 9):
            assert mirror.d_abar.get(m, ZERO) == op.d_a.get(m, ZERO).swap_bars()
            assert mirror.d_a.get(m, ZERO) == op.d_abar.get(m, ZERO).swap_bars()


def _first_order_by_parts(poly, coeffs, scalar=None):
    """Oracle: sum_g coeffs[g] * d(poly)/dg, plus scalar * poly, by partial_derivative, * and +."""
    out = ZERO
    for gen, coeff in coeffs.items():
        out = out + coeff * partial_derivative(poly, gen)
    if scalar is not None:
        out = out + scalar * poly
    return out


def _derive_by_parts(op: ModeOperator, poly: CoeffPoly, scalar=None) -> CoeffPoly:
    """Oracle for ``op.derive`` (plus ``scalar * poly``), refusing what lies past the window."""
    if poly.max_coefficient_index() > op.max_index:
        raise OperatorWindowError(
            f"input reaches index {poly.max_coefficient_index()} but mode "
            f"{op.mode} operator only covers indices up to {op.max_index}"
        )
    coeffs = {a(m): c for m, c in op.d_a.items()}
    coeffs.update((abar(m), c) for m, c in op.d_abar.items())
    return _first_order_by_parts(poly, coeffs, scalar)


def _apply_by_parts(op: ModeOperator, state: StatePoly) -> StatePoly:
    """Oracle for ``op.apply``: the scalar e * (2 lambda + N + Ntilde) + id joins the sum."""
    if state.is_zero:
        return state
    n_left, n_right = state.level
    out = _derive_by_parts(
        op, state.poly, op.e_coeff * (2 * LAM + (n_left + n_right)) + op.id_coeff
    )
    if op.bar:
        new_level = (n_left, n_right - op.mode)
    else:
        new_level = (n_left - op.mode, n_right)
    return StatePoly(out, new_level if not out.is_zero else None)


def test_derive_and_apply_match_the_term_union_reference(table):
    states = [
        mono
        for left in range(4)
        for right in range(4 - left)
        for mono in _monomials_of_bidegree(left, right)
    ]
    mixed = [(LAM - C) * A2 * AB1 + Fraction(3, 7) * A1 * A1 * AB1, C * A3 - A1 * A2]
    for n in range(-4, 5):
        op = table.L(n)
        for poly in states + mixed:
            want = _derive_by_parts(op, poly)
            assert op.derive(poly).canonical_text() == want.canonical_text(), (n, poly)
            state = fresh_state(poly)
            left, right = state.level
            want = want + op.e_coeff * (2 * LAM + (left + right)) * poly + op.id_coeff * poly
            assert op.apply(state).poly.canonical_text() == want.canonical_text(), (n, poly)


def _outcome(apply, op: ModeOperator, state: StatePoly):
    """Canonical text and bi-level of an image, or the window refusal."""
    try:
        image = apply(op, state)
    except OperatorWindowError:
        return "window"
    return image.poly.canonical_text(), image.level


def test_apply_matches_the_per_generator_loop_on_monomial_states():
    """All 139 monomial states of weighted degree <= 6, one and two steps, window 10."""
    table = _shared_table()
    ops = [table.mode_operator(n, bar) for bar in (False, True) for n in range(-4, 5)]
    states = [
        fresh_state(mono)
        for total in range(7)
        for left in range(total + 1)
        for mono in _monomials_of_bidegree(left, total - left)
    ]
    assert len(states) == 139
    for first in ops:
        for state in states:
            assert _outcome(ModeOperator.apply, first, state) == _outcome(
                _apply_by_parts, first, state
            ), (first, state)
    # two steps at |n| <= 2, the compositions of the criterion-01 loop; equal
    # polynomials share one reduced form, so == is the canonical-text check
    inner = [op for op in ops if abs(op.mode) <= 2]
    for first in inner:
        for state in states:
            image = first.apply(state)
            for second in inner:
                try:
                    want = _apply_by_parts(second, image)
                except OperatorWindowError:
                    with pytest.raises(OperatorWindowError):
                        second.apply(image)
                    continue
                got = second.apply(image)
                assert (got.poly, got.level) == (want.poly, want.level), (second, first, state)


def test_apply_matches_the_per_generator_loop_on_polynomial_states():
    table = _shared_table()
    states = [
        StatePoly(ZERO, None),
        StatePoly(Fraction(3, 7) * A1 * A2 - Fraction(5, 4) * A3 + Fraction(1, 6) * A1**3, (3, 0)),
        StatePoly(Fraction(2, 9) * LAM * A2 * AB1 + Fraction(7, 10) * C * A1 * A1 * AB1, (2, 1)),
        StatePoly(Fraction(-1, 15) * AB2 + Fraction(4, 3) * LAM * C * AB1 * AB1, (0, 2)),
        psi_state((1, 2), (1,), table),
    ]
    for bar in (False, True):
        for n in range(-4, 5):
            op = table.mode_operator(n, bar)
            for state in states:
                got = _outcome(ModeOperator.apply, op, state)
                assert got == _outcome(_apply_by_parts, op, state), (op, state)
                if not state.is_zero:
                    assert op.derive(state.poly) == _derive_by_parts(op, state.poly)
    assert table.L(-1).apply(StatePoly(ZERO, None)).is_zero
    assert table.L(-1).derive(ZERO).is_zero


def test_commutator_parts_match_the_per_generator_loop(monkeypatch):
    table = _shared_table()
    modes = [n for k in range(1, 5) for n in (k, -k)]
    pairs = [(table.L(n), table.L(m)) for n in modes for m in modes if n != m]
    pairs += [(table.L(n), table.Lbar(m)) for n in modes for m in modes]
    fast = [commutator_parts(u, t) for u, t in pairs]
    monkeypatch.setattr(ModeOperator, "derive", _derive_by_parts)
    slow = [commutator_parts(u, t) for u, t in pairs]
    assert fast == slow


def test_commutator_parts_act_as_the_composition_difference():
    """[u, t] s == u(t(s)) - t(u(s)) for L(n) against L(m) and Lbar(m), |n|, |m| <= 3."""
    table = _shared_table()
    modes = range(-3, 4)
    pairs = [(table.L(n), table.L(m)) for n in modes for m in modes if n != m]
    pairs += [(table.L(n), table.Lbar(m)) for n in modes for m in modes]
    states = [
        fresh_state(mono)
        for total in range(5)
        for left in range(total + 1)
        for mono in _monomials_of_bidegree(left, total - left)
    ]
    cases = 0
    for u, t in pairs:
        bracket = commutator_parts(u, t)
        for s in states:
            got = bracket.apply(s)
            want = u.apply(t.apply(s)) - t.apply(u.apply(s))
            assert (got.poly, got.level) == (want.poly, want.level), (u, t, s)
            cases += 1
    assert cases == 3458


_kernel_generators = [a(1), a(2), a(3), abar(1), abar(2), LAMBDA, CC]


_near_the_top = st.one_of(st.integers(1, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))


@st.composite
def _kernel_polys(draw, max_terms=4, exponents=st.integers(1, 3)):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        gens = draw(st.lists(st.sampled_from(_kernel_generators), max_size=3, unique=True))
        mono = tuple(sorted((g.kind, g.index, draw(exponents)) for g in gens))
        terms[mono] = draw(st.fractions(min_value=-9, max_value=9, max_denominator=30))
    return CoeffPoly(terms)


def _first_order(poly, coeffs, scalar):
    """The kernel on one operand: a generator-keyed map with a scalar."""
    return poly.first_order(Derivation(coeffs).with_scalar(scalar))


@settings(max_examples=100, deadline=None)
@given(
    _kernel_polys(),
    st.dictionaries(st.sampled_from(_kernel_generators), _kernel_polys(max_terms=3)),
    st.one_of(st.none(), _kernel_polys(max_terms=3)),
)
def test_first_order_matches_derivative_products_and_sums(poly, coeffs, scalar):
    want = _first_order_by_parts(poly, coeffs, scalar)
    got = _first_order(poly, coeffs, scalar)
    assert got == want
    assert got.canonical_text() == want.canonical_text()


@settings(max_examples=60, deadline=None)
@given(
    _kernel_polys(max_terms=3, exponents=_near_the_top),
    st.dictionaries(
        st.sampled_from(_kernel_generators),
        _kernel_polys(max_terms=2, exponents=_near_the_top),
        max_size=3,
    ),
    st.one_of(st.none(), _kernel_polys(max_terms=2, exponents=_near_the_top)),
)
def test_first_order_overflows_exactly_when_the_products_do(poly, coeffs, scalar):
    try:
        want = _first_order_by_parts(poly, coeffs, scalar)
    except OverflowError:
        with pytest.raises(OverflowError):
            _first_order(poly, coeffs, scalar)
    else:
        assert _first_order(poly, coeffs, scalar) == want


_OPERAND_POLY = Fraction(3, 4) * A1 * A1 * AB1 + Fraction(1, 6) * A2 * LAM + 2 * C
_OPERAND_COEFFS = {a(1): Fraction(1, 3) * A2, a(2): AB1 * LAM * Fraction(5, 2), abar(1): 7 * C}


def test_with_scalar_shares_the_prepared_parts():
    base = Derivation(_OPERAND_COEFFS)
    op = base.with_scalar(Fraction(2, 9) * LAM + A1)
    assert op.parts is base.parts and op.fields == base.fields
    assert base.scalar is None
    with pytest.raises(ValueError):
        op.with_scalar(LAM)


def test_with_scalar_matches_a_freshly_prepared_operand():
    base = Derivation(_OPERAND_COEFFS)
    for scalar in (Fraction(2, 9) * LAM + A1, Fraction(1, 7) * C * AB1, ONE * Fraction(5, 11)):
        got = _OPERAND_POLY.first_order(base.with_scalar(scalar))
        assert got == _OPERAND_POLY.first_order(Derivation(_OPERAND_COEFFS).with_scalar(scalar))
        assert got == _first_order_by_parts(_OPERAND_POLY, _OPERAND_COEFFS, scalar)


def test_a_zero_or_absent_scalar_is_the_bare_derivation():
    base = Derivation(_OPERAND_COEFFS)
    bare = _OPERAND_POLY.first_order(base)
    assert bare == _first_order_by_parts(_OPERAND_POLY, _OPERAND_COEFFS)
    for scalar in (None, ZERO):
        assert base.with_scalar(scalar) is base
        assert _OPERAND_POLY.first_order(base.with_scalar(scalar)) == bare


def test_apply_raises_past_the_exponent_field():
    top = CoeffPoly.generator(a(1), MAX_EXPONENT)
    square = ModeOperator(-1, False, 4, ZERO, ZERO, {1: A1 * A1}, {})
    linear = ModeOperator(-1, False, 4, ZERO, ZERO, {1: A1}, {})
    euler = ModeOperator(0, False, 4, ONE, ZERO, {}, {})
    # d/da1 lowers a1^MAX by one; a linear coefficient lands exactly on the field's top
    assert linear.apply(StatePoly(top, (MAX_EXPONENT, 0))).poly == MAX_EXPONENT * top
    with pytest.raises(OverflowError):
        square.apply(StatePoly(top, (MAX_EXPONENT, 0)))
    with pytest.raises(OverflowError):
        square.derive(top)
    # the Euler scalar 2*lambda + N pushes lambda^MAX past the field
    weight = CoeffPoly.generator(LAMBDA, MAX_EXPONENT) * A1
    with pytest.raises(OverflowError):
        euler.apply(StatePoly(weight, (1, 0)))


def test_apply_refuses_states_beyond_window():
    op = build_mode_operator(-1, max_index=3)
    wide = fresh_state(CoeffPoly.generator(a(5)))
    with pytest.raises(OperatorWindowError):
        op.apply(wide)
    with pytest.raises(OperatorWindowError):
        op.derive(wide.poly)


def _window_message(op, index):
    return (
        f"input reaches index {index} but mode {op.mode} operator "
        f"only covers indices up to {op.max_index}"
    )


@pytest.mark.parametrize("window", [1, 2, 3, 5])
def test_apply_and_derive_accept_exactly_the_window(window):
    scalars = LAM**3 * C + Fraction(2, 3) * C**2 - LAM
    for op in (
        build_mode_operator(-1, max_index=window),
        build_mode_operator(2, max_index=window).mirrored(),
    ):
        for gen in (a, abar):
            top = CoeffPoly.generator(gen(window))
            inside = StatePoly(top * top + top * scalars, (2 * window, 0) if gen is a else (0, 2 * window))
            op.apply(inside)
            op.derive(inside.poly)
            beyond = CoeffPoly.generator(gen(window + 1)) * top
            state = StatePoly(beyond, (2 * window + 1, 0) if gen is a else (0, 2 * window + 1))
            message = re.escape(_window_message(op, window + 1))
            with pytest.raises(OperatorWindowError, match=message):
                op.apply(state)
            with pytest.raises(OperatorWindowError, match=message):
                op.derive(beyond)
        # lambda and c sit below every index field
        for poly in (scalars, LAM**5 * C, ONE):
            state = StatePoly(poly, (0, 0))
            assert op.apply(state).poly == _apply_by_parts(op, state).poly
        for poly in (scalars, LAM**MAX_EXPONENT, C**MAX_EXPONENT, ONE):
            assert op.derive(poly).is_zero


def test_restricted_apply_matches_a_direct_build_inside_its_window():
    wide = build_mode_operator(-2, max_index=6)
    for narrow in (1, 3, 4):
        view, direct = wide.restricted(narrow), build_mode_operator(-2, max_index=narrow)
        for total in range(1, narrow + 1):
            for left in range(total + 1):
                for mono in _monomials_of_bidegree(left, total - left):
                    state = fresh_state(mono * (LAM + 1))
                    assert view.apply(state) == direct.apply(state), (narrow, mono)
                    assert view.derive(mono) == direct.derive(mono), (narrow, mono)
        beyond = fresh_state(CoeffPoly.generator(abar(narrow + 1)))
        with pytest.raises(OperatorWindowError, match=re.escape(_window_message(view, narrow + 1))):
            view.apply(beyond)
        assert not wide.apply(beyond).is_zero


def test_mode_operators_are_unhashable():
    op = build_mode_operator(1, max_index=2)
    with pytest.raises(TypeError):
        hash(op)
    with pytest.raises(TypeError):
        {op}


def _family(op: ModeOperator, bar: bool) -> ModeOperator:
    return op.mirrored() if bar else op


def test_filled_caches_leave_operators_equal_to_fresh_builds():
    for n, bar in ((-3, False), (0, True), (2, False)):
        used = _family(build_mode_operator(n, max_index=5), bar)
        for state in (fresh_state(A1 * AB2), fresh_state(A3), vacuum_state()):
            used.apply(state)
        used.derive(A2 * AB1)
        assert {"_derivation", "_scalars"} <= vars(used).keys() and used._scalars
        fresh = _family(build_mode_operator(n, max_index=5), bar)
        assert used == fresh and fresh == used
        assert used.restricted(3) == fresh.restricted(3)
        assert not used != fresh


def test_mode_operator_fields_are_its_data():
    # the prepared derivation and scalar memo are derived state, not fields
    names = [f.name for f in fields(ModeOperator)]
    assert names == ["mode", "bar", "max_index", "e_coeff", "id_coeff", "d_a", "d_abar"]


def test_a_restricted_operator_prepares_its_own_scalars():
    op = build_mode_operator(-2, max_index=5)
    state = fresh_state(A1 * AB2)
    op.apply(state)
    view = op.restricted(3)
    assert view._scalars is not op._scalars and view._scalars == {}
    assert view.apply(state) == build_mode_operator(-2, max_index=3).apply(state)
    assert set(view._scalars) == set(op._scalars) == {3}


def test_apply_matches_the_by_parts_sum_on_every_operator_kind():
    table = OperatorTable(max_index=6)
    ops = [table.mode_operator(n, bar) for bar in (False, True) for n in range(-4, 5)]
    ops += [
        table.L(-2).mirrored(),
        table.Lbar(-3).restricted(4),
        table.L(1).scaled(Fraction(-5, 3)),
        commutator_parts(table.L(-1), table.Lbar(2)),
    ]
    states = [
        fresh_state(mono)
        for total in range(5)
        for left in range(total + 1)
        for mono in _monomials_of_bidegree(left, total - left)
    ]
    assert len(states) == 38
    for op in ops:
        for state in states:
            if state.poly.max_coefficient_index() > op.max_index:
                continue
            want = _apply_by_parts(op, state).poly
            assert op.apply(state).poly.canonical_text() == want.canonical_text(), (op, state)


# ---------------------------------------------------------------------------
# action examples
# ---------------------------------------------------------------------------


def test_action_on_a2(table):
    s = fresh_state(A2)
    assert table.L(0).apply(s).poly == (LAM + 2) * A2
    assert table.L(1).apply(s).poly == -2 * A1
    assert table.Lbar(1).apply(s).is_zero
    assert table.Lbar(0).apply(s).poly == LAM * A2


def test_highest_weight_property(table):
    v = vacuum_state()
    for n in range(1, 7):
        assert table.L(n).apply(v).is_zero
        assert table.Lbar(n).apply(v).is_zero
    assert table.L(0).apply(v).poly == LAM
    assert table.Lbar(0).apply(v).poly == LAM


def test_lowered_vacuum_states(table):
    assert psi_state((1,), (), table).poly == -2 * LAM * A1
    psi11 = psi_state((1, 1), (), table)
    assert psi11.poly == 2 * LAM * (2 * LAM + 1) * A1 * A1 - 6 * LAM * (A2 - A1 * A1)
    mixed = psi_state((1,), (1,), table)
    assert mixed.level == (1, 1)
    assert mixed.poly == mixed.poly.swap_bars()  # symmetric under the involution


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def test_commutator_on_vacuum(table):
    v = vacuum_state()

    def bracket(n, m, state):
        first = table.L(n).apply(table.L(m).apply(state))
        second = table.L(m).apply(table.L(n).apply(state))
        return first - second

    assert bracket(1, -1, v).poly == 2 * LAM
    assert bracket(2, -2, v).poly == 4 * LAM + Fraction(1, 2) * C


def test_operator_commutators_same_family(table):
    for n, m in [(1, -1), (2, -2), (3, -3), (2, -1), (-1, -2), (0, 3), (4, -3), (3, 5)]:
        assert commutator_defect(table.L(n), table.L(m), table).is_zero, (n, m)


def test_operator_commutators_mixed_family_vanish(table):
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert commutator_defect(table.L(n), table.Lbar(m), table).is_zero, (n, m)


@pytest.mark.parametrize("part", ["d_a", "d_abar", "e_coeff", "id_coeff"])
def test_operator_with_one_nonzero_part_is_not_zero(part):
    zero = ModeOperator(mode=0, bar=False, max_index=2, e_coeff=ZERO, id_coeff=ZERO, d_a={}, d_abar={})
    assert zero.is_zero
    nonzero = {1: A1} if part.startswith("d_") else LAM
    assert not replace(zero, **{part: nonzero}).is_zero
    # zero coefficients are dropped, so they neither count nor break equality
    explicit = replace(zero, **{part: {1: ZERO} if part.startswith("d_") else ZERO})
    assert explicit.is_zero and explicit == zero


def test_operator_difference_and_scaling(table):
    op = table.L(-2)
    assert (op - op).is_zero
    assert op.scaled(3) - op == op.scaled(2)
    assert op.scaled(0).is_zero
    with pytest.raises(OperatorWindowError):
        op - op.restricted(6)


def test_defect_needs_a_reference_as_wide_as_the_bracket():
    u, t = build_mode_operator(1, max_index=8), build_mode_operator(-2, max_index=8)
    with pytest.raises(OperatorWindowError, match="reference operator window too small"):
        commutator_defect(u, t, OperatorTable(max_index=4))


def test_bracket_recursion_reproduces_welding():
    for ell in (2, 3):
        lhs = commutator_parts(
            build_mode_operator(-1, max_index=8), build_mode_operator(-ell, max_index=8)
        )
        direct = build_mode_operator(-ell - 1, max_index=lhs.max_index)
        assert lhs.scaled(Fraction(1, ell - 1)) == direct


def test_recursion_route_operator_equality():
    for n in range(-6, -2):
        for window in range(1, 7):
            assert recursion_mode_operator(n, max_index=window) == build_mode_operator(
                n, max_index=window
            ), (n, window)
    with pytest.raises(ValueError):
        recursion_mode_operator(-2)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(-3, 3),
    m=st.integers(-3, 3),
    state_level=st.integers(0, 2),
)
def test_commutator_action_matches_algebra(n, m, state_level):
    table = _shared_table()
    for p in partitions_of(state_level):
        s = psi_state(p, (), table)
        first = table.L(n).apply(table.L(m).apply(s))
        second = table.L(m).apply(table.L(n).apply(s))
        expect = table.L(n + m).apply(s).scale(n - m)
        if n + m == 0:
            expect = expect + s.scale(C * Fraction(n**3 - n, 12))
        assert (first - second - expect).is_zero, (n, m, p)


_TABLE_CACHE = {}


def _shared_table():
    if "t" not in _TABLE_CACHE:
        _TABLE_CACHE["t"] = OperatorTable(max_index=10)
    return _TABLE_CACHE["t"]


# ---------------------------------------------------------------------------
# degree structure (the shape every coefficient must have)
# ---------------------------------------------------------------------------


def test_degree_structure(table):
    for n in range(-4, 5):
        op = table.L(n)
        for m in range(1, 9):
            p = op.d_a.get(m, ZERO)
            if n >= 1:
                if m < n:
                    assert p.is_zero, (n, m)
                elif m == n:
                    assert p == CoeffPoly.constant(-1), (n, m)
            if not p.is_zero:
                assert p.weighted_monomial_degrees() == {(m - n, 0)}, (n, m)
            q = op.d_abar.get(m, ZERO)
            if n >= 1:
                assert q.is_zero, (n, m)
            for left, right in q.weighted_monomial_degrees():
                assert left - right == -(n + m), (n, m)
                assert left + right <= m - n, (n, m)


# ---------------------------------------------------------------------------
# pairings, ranks, degenerate lines
# ---------------------------------------------------------------------------


def test_duality_pairing(table):
    assert duality_pairing((1,), table) == CoeffPoly.constant(-1)
    assert duality_pairing((1, 1), table) == CoeffPoly.constant(2)
    assert duality_pairing((3,), table) == CoeffPoly.constant(-1)
    for parts in [(1, 2), (1, 1, 1), (2, 2), (1, 3)]:
        expect = Fraction(1)
        for part in set(parts):
            mult = parts.count(part)
            sign = Fraction(-1) ** mult
            fact = 1
            for i in range(2, mult + 1):
                fact *= i
            expect *= sign * fact
        assert duality_pairing(parts, table) == CoeffPoly.constant(expect), parts


def test_geometric_pairing_matches_abstract_gram(table):
    for n in range(4):
        for k in partitions_of(n):
            for kp in partitions_of(n):
                geo = geometric_pairing(k, kp, table)
                assert geo == gram_entry(k.parts, kp.parts), (k, kp)


def test_geometric_pairing_vanishes_across_levels(table):
    assert geometric_pairing((1,), (2,), table) == ZERO


def test_level_ranks(table):
    charge = central_charge(3)
    assert level_rank(0, Fraction(1, 3), charge, table) == 1
    assert level_rank(2, Fraction(1, 3), charge, table) == 2
    assert level_rank(2, Fraction(1, 2), charge, table) == 1


@pytest.mark.parametrize("kappa", [Fraction(8, 3), Fraction(3), Fraction(29, 11)], ids=str)
def test_geometric_rank_matches_gram_rank_at_every_kac_weight(kappa):
    # every lambda_{r,s} with rs <= N, plus one weight off the table; at
    # kappa = 8/3 several (r, s) share a weight and kernels pass dimension 1
    table = OperatorTable(max_index=6)
    charge = central_charge(kappa)
    for level in range(7):
        weights = {
            kac_lambda(r, s, kappa) for r in range(1, level + 1) for s in range(1, level // r + 1)
        }
        for weight in sorted(weights | {Fraction(5, 7)}):
            want = gram_rank_at(level, weight, charge)
            assert level_rank(level, weight, charge, table) == want, (level, weight)


def test_singular_combination_vanishes_along_family(table):
    v = vacuum_state()
    quad = table.L(-1).apply(table.L(-1).apply(v))
    combo = quad - table.L(-2).apply(v).scale(Fraction(2, 3) * (2 * LAM + 1))
    for r, s in [(1, 2), (2, 1)]:
        assert state_family_residuals(combo.poly, r, s) == {}
    # a generic straight line does NOT kill it: weight lambda = kappa/16
    bogus = combo.poly.substitute({LAMBDA: Fraction(7, 9), CC: Fraction(1, 2)})
    assert not bogus.is_zero


def _sympy_surviving_monomials(sympy, poly, r, s):
    """Body monomials whose (lambda, c)-coefficient is nonzero along (r, s)."""
    kappa = sympy.Symbol("kappa")
    values = {
        (LAMBDA.kind, LAMBDA.index): ((r * kappa - 4 * s) ** 2 - (kappa - 4) ** 2)
        / (16 * kappa),
        (CC.kind, CC.index): (6 - kappa) * (3 * kappa - 8) / (2 * kappa),
    }
    grouped = {}
    for mono, coeff in poly.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        body = []
        for kind, index, exp in mono:
            if (kind, index) in values:
                term *= values[kind, index] ** exp
            else:
                body.append((kind, index, exp))
        grouped[tuple(body)] = grouped.get(tuple(body), 0) + term
    return {
        CoeffPoly({body: 1}).canonical_text()
        for body, expr in grouped.items()
        if sympy.cancel(expr) != 0
    }


def test_state_family_residuals_match_sympy(table):
    sympy = pytest.importorskip("sympy")
    v = vacuum_state()
    quad = table.L(-1).apply(table.L(-1).apply(v)).poly
    lowered = table.L(-2).apply(v).poly
    null = quad - lowered * (Fraction(2, 3) * (2 * LAM + 1))
    wrong = quad - lowered * (Fraction(1, 2) * (2 * LAM + 1))
    # the level-2 null condition c(2 lambda + 1) = 2 lambda (5 - 8 lambda), squared
    relation = C * (2 * LAM + 1) - 2 * LAM * (5 - 8 * LAM)
    # its kappa^4-cleared numerator on family (1, 2) vanishes at kappa = 1..6
    # but not identically, so fewer than the D + 1 = 9 sample points miss it
    late = (
        -71 * C + 112 * C * C + 70 * LAM - 6 * LAM * C
        - 248 * LAM * C * C + 80 * LAM * LAM * C * C
    )
    cases = [
        (null, (1, 2), set()),
        (null, (2, 1), set()),
        (null, (1, 3), {"1/1*a1^2", "1/1*a2"}),
        (wrong, (1, 2), {"1/1*a1^2", "1/1*a2"}),
        (wrong, (2, 1), {"1/1*a1^2", "1/1*a2"}),
        (relation * relation * A2 + relation * LAM * C * A1, (1, 2), set()),
        (relation * relation * A2 + late * A1, (1, 2), {"1/1*a1"}),
        (relation * relation * A2 + late * A1, (2, 1), {"1/1*a1"}),
    ]
    for poly, (r, s), expect in cases:
        residuals = state_family_residuals(poly, r, s)
        assert set(residuals) == _sympy_surviving_monomials(sympy, poly, r, s) == expect
    values = state_family_residuals(late * A1, 1, 2)["1/1*a1"]
    assert len(values) == 9
    assert values[:6] == (0,) * 6 and values[6] != 0


# ---------------------------------------------------------------------------
# constraint-solver oracle for mode -2
#
# Reconstructs the mode -2 operator from scratch: take the Euler/identity
# coefficients as fixed by the vacuum anchor, leave every P/Q coefficient an
# unknown rational, and impose the defining brackets on a spanning family of
# monomial states — with modes 1 and 2 of the same family, and with modes
# -1, 1, 2 of the mirror family (which must all commute; the lowering one is
# needed because a raising-only probe cannot see past the top of the index
# window).  The unique solution must be the welded operator, coefficient by
# coefficient.
# ---------------------------------------------------------------------------


def _monomials_of_bidegree(left: int, right: int) -> list[CoeffPoly]:
    out = []
    for pl in partitions_of(left):
        mono_l = CoeffPoly.one()
        for part in pl.parts:
            mono_l = mono_l * CoeffPoly.generator(a(part))
        for pr in partitions_of(right):
            mono = mono_l
            for part in pr.parts:
                mono = mono * CoeffPoly.generator(abar(part))
            out.append(mono)
    return out


def _unknown_basis(window: int):
    """(unknown id, target index m, side, monomial) for every candidate term."""
    unknowns = []
    uid = 0
    for m in range(1, window + 1):
        for mono in _monomials_of_bidegree(m + 2, 0):
            unknowns.append((uid, m, "a", mono))
            uid += 1
        # bar-side terms: left - right = 2 - m, weighted total <= m + 2
        for total in range(abs(2 - m), m + 3):
            if (total - (2 - m)) % 2:
                continue
            right = (total - (2 - m)) // 2
            left = total - right
            if left < 0 or right < 0:
                continue
            for mono in _monomials_of_bidegree(left, right):
                unknowns.append((uid, m, "abar", mono))
                uid += 1
    return unknowns


def _apply_unknown(unknowns, g, idc, state):
    """Action of the candidate operator; linear in the unknowns.

    Returns {None: known poly} plus {uid: poly multiplying that unknown}.
    """
    n_left, n_right = state.level
    eps = 2 * LAM + (n_left + n_right)
    out = {None: g * eps * state.poly + idc * state.poly}
    for uid, m, side, mono in unknowns:
        gen = a(m) if side == "a" else abar(m)
        d = partial_derivative(state.poly, gen)
        if not d.is_zero:
            out[uid] = out.get(uid, ZERO) + mono * d
    return out


def _linear_equations(lin_combo):
    """Rows (coeff per unknown, rhs) from 'linear combination == 0'."""
    monomials = set()
    for poly in lin_combo.values():
        for mono, _ in poly.terms():
            monomials.add(mono)
    rows = []
    for mono in sorted(monomials):
        row = {}
        rhs = Fraction(0)
        for key, poly in lin_combo.items():
            coeff = dict(poly.terms()).get(mono, Fraction(0))
            if key is None:
                rhs = -coeff
            elif coeff:
                row[key] = coeff
        rows.append((row, rhs))
    return rows


def test_constraint_solver_recovers_mode_minus_two():
    window = 3
    probe = OperatorTable(max_index=window + 4)
    target = build_mode_operator(-2, max_index=window)

    g = target.e_coeff
    idc = target.id_coeff
    unknowns = _unknown_basis(window)
    n_unknowns = len(unknowns)

    states = []
    for left in range(4):
        for right in range(4):
            if left + right > 4:
                continue
            for mono in _monomials_of_bidegree(left, right):
                states.append(fresh_state(mono))

    rows = []
    rhs_list = []
    probes = ((1, False), (2, False), (1, True), (2, True), (-1, True))
    for upper_mode, mirror in probes:
        upper = probe.Lbar(upper_mode) if mirror else probe.L(upper_mode)
        for s in states:
            # same family: [L_up, T] s == (up + 2) L_{up-2} s (+ central at 2)
            # mirror family: [Lbar_up, T] s == 0
            if upper_mode < 0 and s.poly.max_coefficient_index() >= window:
                continue  # keep the unknown operator inside its index window
            t_s = _apply_unknown(unknowns, g, idc, s)
            mid_level = (s.level[0] + 2, s.level[1])
            lhs = {}
            for key, poly in t_s.items():
                image = upper.apply(StatePoly(poly, mid_level))
                if not image.poly.is_zero:
                    lhs[key] = image.poly
            up_s = upper.apply(s)
            if not up_s.is_zero:
                t_up = _apply_unknown(unknowns, g, idc, up_s)
                for key, poly in t_up.items():
                    lhs[key] = lhs.get(key, ZERO) - poly
            if not mirror:
                expect = probe.L(upper_mode - 2).apply(s).scale(upper_mode + 2)
                if upper_mode == 2:
                    expect = expect + s.scale(C * Fraction(1, 2))
                lhs[None] = lhs.get(None, ZERO) - expect.poly
            for row, rhs in _linear_equations(lhs):
                dense = [row.get(uid, Fraction(0)) for uid in range(n_unknowns)]
                rows.append(dense)
                rhs_list.append(rhs)

    reduced, pivots = rref([row + [rhs] for row, rhs in zip(rows, rhs_list)])
    # a unique solution: a pivot in every unknown's column and none in the rhs column
    assert pivots == list(range(n_unknowns))
    solution = [row[n_unknowns] for row in reduced[:n_unknowns]]

    recovered_a = {m: ZERO for m in range(1, window + 1)}
    recovered_abar = {m: ZERO for m in range(1, window + 1)}
    for (uid, m, side, mono), value in zip(unknowns, solution):
        if value:
            if side == "a":
                recovered_a[m] = recovered_a[m] + mono * value
            else:
                recovered_abar[m] = recovered_abar[m] + mono * value
    for m in range(1, window + 1):
        assert recovered_a[m] == target.d_a.get(m, ZERO), ("a", m)
        assert recovered_abar[m] == target.d_abar.get(m, ZERO), ("abar", m)


# ---------------------------------------------------------------------------
# the welding build against its dense form
# ---------------------------------------------------------------------------


# The series form of the build, which the closed form replaced: both motions
# are full products with F', every series runs to the nominal order, and
# negative powers go through inverse() and binary powering.
def _reference_welding_build(n: int, max_index: int, series_order: int | None) -> ModeOperator:
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
    """
    order = series_order if series_order is not None else max_index + abs(n) + 2
    if order < max_index + 2:
        raise ValueError("series order too small for the requested index window")
    F = _coefficient_map(order)
    Fp = F.derivative()
    Fp_inv = Fp.inverse()
    q = -(F ** (n + 1)) * Fp_inv
    gamma = q.coefficient(1) * Fraction(1, 2)
    s_minus_z = F * Fp_inv - LaurentSeries.monomial(1, 1, None)

    q_high = LaurentSeries.from_coefficients(
        [(p, c) for p, c in q.coefficients() if p >= 2], q.order
    )
    f_dot = (q_high - s_minus_z.scale(gamma)) * Fp

    # exterior side: the reflected low part of q, bar-conjugated
    u_pairs = []
    i = 2
    while 2 - i >= q.valuation:
        low = q.coefficient(2 - i).swap_bars()
        if not low.is_zero:
            u_pairs.append((i, -low))
        i += 1
    u_high = LaurentSeries.from_coefficients(u_pairs, None)
    m_ring = (s_minus_z.scale(-gamma.swap_bars()) - u_high) * Fp

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
        theta = ZERO
    return ModeOperator(
        mode=n,
        bar=False,
        max_index=max_index,
        e_coeff=-gamma,
        id_coeff=-(C * theta) * Fraction(1, 12) if not theta.is_zero else ZERO,
        d_a=d_a,
        d_abar=d_abar,
    )


@pytest.mark.parametrize("window", range(1, 13))
def test_welding_build_matches_the_dense_build(window):
    for n in range(-8, 9):
        assert build_mode_operator(n, max_index=window) == _reference_welding_build(
            n, window, None
        ), n


@pytest.mark.parametrize("window", range(1, 7))
def test_welding_build_ignores_series_order_padding(window):
    # the dense build is slow at padded orders, so the padded sweep stops at window 6
    for n in range(-8, 9):
        padded = window + abs(n) + 6
        assert build_mode_operator(n, max_index=window) == _reference_welding_build(
            n, window, padded
        ), n


@pytest.mark.parametrize("window", range(1, 5))
def test_welding_build_matches_both_oracles_on_deep_modes(window):
    # below -8 the residue route sees only the Euler and identity parts
    for n in range(-12, -8):
        built = build_mode_operator(n, max_index=window)
        assert built == _reference_welding_build(n, window, None), n
        assert built == recursion_mode_operator(n, max_index=window), n


@pytest.mark.parametrize("window", [1, 4, 8])
def test_series_identities_behind_the_closed_form_build(window):
    """(i) q F' = -F^(n+1) and (ii) (F/F' - z) F' = F - z F' = -sum_m m a_m z^(m+1), below z^(w+2)."""
    top = window + 2
    for n in range(-8, 9):
        F = _coefficient_map(top + max(0, -n))
        Fp = F.derivative()
        power = F ** (n + 1)
        q = -(power * Fp.inverse())
        product = q * Fp
        for p in range(n + 1, top):
            assert product.coefficient(p) == -power.coefficient(p), (n, p)
    F = _coefficient_map(top)
    Fp = F.derivative()
    z = LaurentSeries.monomial(1, 1, None)
    product = (F * Fp.inverse() - z) * Fp
    difference = F - z * Fp
    for m in range(top - 1):
        want = CoeffPoly.generator(a(m)) * -m if m else ZERO
        assert product.coefficient(m + 1) == difference.coefficient(m + 1) == want, m


# ---------------------------------------------------------------------------
# restricted tables
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_table():
    return OperatorTable(max_index=12)


def test_barred_operators_are_mirrors_of_direct_builds(wide_table):
    window = 5
    first = OperatorTable(max_index=window)
    after = OperatorTable(max_index=window)
    view = wide_table.restricted(window)
    for n in range(-4, 5):
        direct = build_mode_operator(n, max_index=window).mirrored()
        barred_first = first.Lbar(n)  # requested before L(n)
        after.L(n)
        assert barred_first == direct, n
        assert after.Lbar(n) == direct, n  # requested after L(n)
        assert view.Lbar(n) == direct, n  # from a restricted view of a wider table
        assert first.L(n).mirrored() == barred_first, n


@pytest.mark.parametrize("window", range(1, 12))
def test_restricted_table_hands_out_direct_builds(wide_table, window):
    narrow = wide_table.restricted(window)
    assert narrow.max_index == window
    for n in range(-8, 9):
        direct = build_mode_operator(n, max_index=window)
        assert narrow.L(n) == direct, n
        assert narrow.Lbar(n) == direct.mirrored(), n
        assert max(narrow.L(n).d_a, default=0) <= window
        assert max(narrow.Lbar(n).d_abar, default=0) <= window


def test_restricted_table_shares_builds_and_keeps_its_window(wide_table, monkeypatch):
    for n in (-3, 2):
        wide_table.L(n)
    built = []
    build = operators.build_mode_operator
    monkeypatch.setattr(
        operators,
        "build_mode_operator",
        lambda n, **kwargs: built.append((n, kwargs)) or build(n, **kwargs),
    )
    narrow = wide_table.restricted(4)
    narrow.L(-3)
    narrow.Lbar(2)
    assert built == []
    beyond = fresh_state(CoeffPoly.generator(a(5)))
    with pytest.raises(OperatorWindowError):
        narrow.L(-3).apply(beyond)
    with pytest.raises(OperatorWindowError):
        narrow.Lbar(2).derive(CoeffPoly.generator(abar(5)))
    assert not wide_table.L(-3).apply(beyond).is_zero
    with pytest.raises(OperatorWindowError):
        wide_table.restricted(13)
    with pytest.raises(OperatorWindowError):
        narrow.L(-3).restricted(5)


def test_report_all_builds_each_mode_once(monkeypatch):
    built = []

    def counting(n, *, max_index):
        built.append(n)
        return build_mode_operator(n, max_index=max_index)

    monkeypatch.setattr(operators, "build_mode_operator", counting)
    report = report_all(RunConfig(level=5, max_mode=4, loewner_seeds=2))
    assert report.overall == "pass"
    assert sorted(built) == list(range(-7, 8))


def test_operators_suite_passes_to_mode_twelve():
    # the residue route reads the inverse map to an order derived from each mode
    report = suite_operators(RunConfig(max_mode=12, max_degree=0))
    assert [c.name for c in report.checks if c.status != "pass"] == []


@pytest.mark.parametrize("kappa", [Fraction(3), Fraction(8, 3)])
def test_suite_windows_match_the_wider_windows_they_replace(monkeypatch, kappa):
    wide = OperatorTable(max_index=12)

    def outcomes():
        runs = [
            suite(RunConfig(level=level, kappa=kappa), wide)
            for level in range(7)
            for suite in (suite_gram, suite_singular)
        ]
        return [[(c.name, c.status, c.witness) for c in r.checks] for r in runs]

    narrow = outcomes()
    monkeypatch.setattr(reports, "_gram_window", lambda cfg: max(2 * cfg.level, 2))
    monkeypatch.setattr(reports, "_singular_window", lambda cfg: max(2 * cfg.level, 6))
    assert outcomes() == narrow
