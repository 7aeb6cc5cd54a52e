"""Tests for the abstract highest-weight module and its Gram/Kac data."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcft import verma
from loopcft.symbolic import CC, LAMBDA, CoeffPoly, partition_count, partitions_of
from loopcft.verma import (
    central_charge,
    cocycle,
    gram_entry,
    gram_matrix,
    gram_matrix_at,
    gram_rank_at,
    kac_determinant,
    kac_determinant_at,
    kac_lambda,
    lowering_word,
    raising_word,
    singular_vectors,
)
from oracles import VermaVector, apply_mode, basis_vector, normal_order, vacuum

LAM = CoeffPoly.generator(LAMBDA)
C = CoeffPoly.generator(CC)

KAPPAS = [Fraction(2), Fraction(8, 3), Fraction(3), Fraction(4)]
PRODUCT_KAPPAS = [Fraction(3), Fraction(2), Fraction(8, 3), Fraction(4), Fraction(7, 5)]


def test_highest_weight_axioms():
    for n in range(1, 7):
        assert apply_mode(n, vacuum()).is_zero
    v0 = apply_mode(0, vacuum())
    assert v0.coefficient(()) == LAM
    assert len(list(v0.terms())) == 1


def test_normal_order_goldens():
    assert normal_order((1, -1)).coefficient(()) == 2 * LAM
    assert normal_order((2, -2)).coefficient(()) == 4 * LAM + Fraction(1, 2) * C
    # straightening a disordered lowering word
    v = normal_order((-1, -2))
    assert v.coefficient((1, 2)) == CoeffPoly.one()
    assert v.coefficient((3,)) == CoeffPoly.constant(1)
    w = normal_order((-2, -1))
    assert w.coefficient((1, 2)) == CoeffPoly.one()
    assert w.coefficient((3,)) == CoeffPoly.zero()


def test_commutation_relation_exhaustive():
    """[L_a, L_b] = (a-b) L_{a+b} + (c/12)(a^3-a) delta on low-level states."""
    states = [basis_vector(p) for n in range(4) for p in partitions_of(n)]
    for a in range(-4, 5):
        for b in range(-4, 5):
            central = CoeffPoly.constant(0)
            if a + b == 0:
                central = C * Fraction(a**3 - a, 12)
            for v in states:
                lhs = apply_mode(a, apply_mode(b, v)) - apply_mode(b, apply_mode(a, v))
                rhs = apply_mode(a + b, v).scale(a - b) + v.scale(central)
                assert lhs == rhs, (a, b)


def _pair(u: VermaVector, v: VermaVector) -> CoeffPoly:
    total = CoeffPoly.zero()
    for ku, cu in u.terms():
        for kv, cv in v.terms():
            total = total + cu * cv * gram_entry(ku, kv)
    return total


def test_raising_is_adjoint_to_lowering():
    basis = [p for n in range(4) for p in partitions_of(n)]
    for n in range(1, 4):
        for pu in basis:
            for pv in basis:
                u, v = basis_vector(pu), basis_vector(pv)
                assert _pair(apply_mode(-n, u), v) == _pair(u, apply_mode(n, v))


@lru_cache(maxsize=None)
def _reference_basis_action(n, parts):
    """The two straightening recursions the one commutation rule replaced."""
    if n == 0:
        return VermaVector({parts: LAM + sum(parts)})
    if n < 0:
        return _reference_lower(-n, parts)
    return _reference_raise(n, parts)


def _reference_apply(n, vector):
    result = VermaVector()
    for parts, coeff in vector.terms():
        result = result + _reference_basis_action(n, parts).scale(coeff)
    return result


def _reference_lower(p, parts):
    if not parts or p >= parts[-1]:
        return VermaVector({tuple(sorted(parts + (p,))): CoeffPoly.one()})
    # L_{-p} L_{-q} = L_{-q} L_{-p} + (q - p) L_{-p-q} with q the largest part
    q, rest = parts[-1], parts[:-1]
    swapped = _reference_apply(-q, _reference_lower(p, rest))
    return swapped + _reference_lower(p + q, rest).scale(q - p)


def _reference_raise(n, parts):
    if not parts:
        return VermaVector()
    p, rest = parts[-1], parts[:-1]
    through = _reference_apply(-p, _reference_raise(n, rest))
    result = through + _reference_basis_action(n - p, rest).scale(n + p)
    if n == p:
        result = result + VermaVector({rest: C * Fraction(n**3 - n, 12)})
    return result


def test_one_commutation_rule_matches_the_lowering_and_raising_recursions():
    for size in range(9):
        for partition in partitions_of(size):
            vector = VermaVector({partition.parts: CoeffPoly.one()})
            for n in range(-8, 9):
                want = _reference_apply(n, vector)
                assert apply_mode(n, vector) == want, (n, partition.parts)
                terms = verma._apply_mode_to_basis(n, partition.parts)
                assert type(terms) is tuple, (n, partition.parts)
                assert all(not coeff.is_zero for _, coeff in terms), (n, partition.parts)
    # the vector arithmetic is the tests' oracle, not the product path's
    assert not hasattr(verma, "VermaVector")
    assert not hasattr(verma, "apply_mode")


def test_gram_goldens():
    assert gram_matrix(0) == ((CoeffPoly.one(),),)
    assert gram_matrix(1) == ((2 * LAM,),)
    g2 = gram_matrix(2)
    assert g2[0][0] == 4 * LAM * (2 * LAM + 1)
    assert g2[0][1] == 6 * LAM
    assert g2[1][0] == 6 * LAM
    assert g2[1][1] == 4 * LAM + Fraction(1, 2) * C


def test_gram_is_symmetric_up_to_level_6():
    """<k|k'> = <k'|k>: the recursion reaches the two along different paths."""
    for level in range(7):
        basis = [p.parts for p in partitions_of(level)]
        assert len(basis) == partition_count(level)
        for i, k in enumerate(basis):
            for kprime in basis[:i]:
                assert gram_entry(k, kprime) == gram_entry(kprime, k), (k, kprime)


def test_gram_entries_match_full_straightening_up_to_level_7():
    """Differential test of the first-mode recursion against normal_order."""
    for level in range(8):
        basis = [p.parts for p in partitions_of(level)]
        for k in basis:
            for kprime in basis:
                vector = normal_order(raising_word(k) + lowering_word(kprime))
                assert [parts for parts, _ in vector.terms() if parts] == [], (k, kprime)
                assert gram_entry(k, kprime) == vector.coefficient(()), (k, kprime)


def test_gram_entries_vanish_across_levels():
    assert gram_entry((1,), (2,)) == CoeffPoly.zero()
    assert gram_entry((), (1, 1)) == CoeffPoly.zero()


def test_gram_entry_reads_parts_in_any_order():
    want = normal_order(raising_word((1, 2)) + lowering_word((1, 1, 1))).coefficient(())
    assert gram_entry((2, 1), (1, 1, 1)) == want
    assert gram_entry((1, 2), (1, 1, 1)) == want
    assert gram_entry((1, 1, 1), (2, 1)) == want
    assert gram_entry(partitions_of(3)[1], partitions_of(3)[0]) == want


def test_gram_entry_names_the_pair_when_straightening_leaves_its_level(monkeypatch):
    off_level = (((1,), CoeffPoly.one()), ((2,), CoeffPoly.one()))
    monkeypatch.setattr(verma, "_apply_mode_to_basis", lambda n, parts: off_level)
    with pytest.raises(AssertionError, match=r"pairing \(1, 2\) with \(3,\).*\[\(2,\)\]"):
        gram_entry.__wrapped__((1, 2), (3,))


def test_central_charge_family():
    assert central_charge(Fraction(8, 3)) == 0
    assert central_charge(2) == -2
    assert central_charge(4) == 1
    assert central_charge(3) == Fraction(1, 2)
    with pytest.raises(ValueError):
        central_charge(0)


def test_degenerate_weights():
    assert kac_lambda(1, 1, Fraction(17, 5)) == 0
    assert kac_lambda(1, 2, 3) == Fraction(1, 2)
    assert kac_lambda(2, 1, 3) == Fraction(1, 16)
    assert kac_lambda(1, 3, 3) == Fraction(5, 3)
    for kappa in KAPPAS:
        assert kac_lambda(1, 2, kappa) == (6 - kappa) / (2 * kappa)
        assert kac_lambda(2, 1, kappa) == (3 * kappa - 8) / 16
    with pytest.raises(ValueError):
        kac_lambda(0, 1, 3)


def test_kac_determinant_small_levels():
    assert kac_determinant(0) == CoeffPoly.one()
    assert kac_determinant(1) == 2 * LAM
    d2 = kac_determinant(2)
    for kappa in KAPPAS:
        spec = d2.substitute({CC: central_charge(kappa)})
        expect = (
            32
            * LAM
            * (LAM - kac_lambda(1, 2, kappa))
            * (LAM - kac_lambda(2, 1, kappa))
        )
        assert spec == expect, kappa


def test_determinant_vanishes_exactly_at_degenerate_weights():
    for kappa in KAPPAS:
        charge = central_charge(kappa)
        for r, s in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            level = r * s
            if level > 4:
                continue
            weight = kac_lambda(r, s, kappa)
            det = kac_determinant(level).substitute({LAMBDA: weight, CC: charge})
            assert det == CoeffPoly.zero(), (kappa, r, s)


@pytest.mark.parametrize("kappa", KAPPAS, ids=str)
def test_kac_determinant_at_matches_symbolic_route(kappa):
    charge = central_charge(kappa)
    for level in range(7):
        fast = kac_determinant_at(level, charge)
        oracle = kac_determinant(level).substitute({CC: charge})
        assert fast.canonical_text() == oracle.canonical_text(), level


@given(
    st.integers(0, 4),
    st.fractions(min_value=-60, max_value=60, max_denominator=60),
)
@settings(max_examples=40, deadline=None)
def test_kac_determinant_at_matches_symbolic_route_at_any_charge(level, charge):
    fast = kac_determinant_at(level, charge)
    oracle = kac_determinant(level).substitute({CC: charge})
    assert fast.canonical_text() == oracle.canonical_text()


def test_kac_table_is_the_brute_force_index_set():
    for level in range(13):
        brute = [
            (r, s)
            for r in range(1, level + 1)
            for s in range(1, level + 1)
            if r * s <= level
        ]
        assert list(verma.kac_table(level)) == brute, level


def _leading_coefficient(poly: CoeffPoly) -> Fraction:
    return max(poly.terms(), key=lambda term: term[0][0][2] if term[0] else 0)[1]


@pytest.mark.parametrize("kappa", PRODUCT_KAPPAS, ids=str)
def test_kac_product_formula_with_multiplicities(kappa):
    """det_N = const * prod_{rs <= N} (lambda - lambda_{r,s})^{p(N - rs)} (Kac 1979).

    Comparing whole polynomials checks the degree and the multiplicity of
    every root, not only that the degenerate weights vanish.
    """
    charge = central_charge(kappa)
    for level in range(8):
        det = kac_determinant_at(level, charge)
        product = CoeffPoly.one()
        for r in range(1, level + 1):
            for s in range(1, level // r + 1):
                factor = LAM - kac_lambda(r, s, kappa)
                product = product * factor ** partition_count(level - r * s)
        assert det == _leading_coefficient(det) * product, level


def test_gram_rank_deficiency_at_degenerate_weights():
    for kappa in KAPPAS:
        charge = central_charge(kappa)
        for r, s in [(1, 2), (2, 1)]:
            level = r * s
            weight = kac_lambda(r, s, kappa)
            assert gram_rank_at(level, weight, charge) <= partition_count(level) - 1


def test_gram_full_rank_off_the_degenerate_set():
    weight = Fraction(37, 11)
    for kappa in KAPPAS:
        charge = central_charge(kappa)
        for level in range(5):
            assert gram_rank_at(level, weight, charge) == partition_count(level)


def test_singular_vector_goldens():
    # level 2 at the (1,2) weight of the kappa=3 family, basis [(1,1), (2)]
    sv = singular_vectors(2, Fraction(1, 2), Fraction(1, 2))
    assert sv == [[Fraction(1), Fraction(-4, 3)]]
    # off-degenerate weight at the same charge: no null states
    assert singular_vectors(2, Fraction(1, 3), Fraction(1, 2)) == []
    # level 1 at weight 0: the lowering of the vacuum is null
    assert singular_vectors(1, 0, Fraction(1, 2)) == [[Fraction(1)]]


def test_singular_vector_is_annihilated():
    """The level-2 kernel vector is killed by every positive mode."""
    null = basis_vector((1, 1)) + basis_vector((2,)).scale(Fraction(-4, 3))
    spec = {LAMBDA: Fraction(1, 2), CC: Fraction(1, 2)}
    for n in (1, 2):
        image = apply_mode(n, null).substitute(spec)
        assert image.is_zero, n


def test_cocycle_matches_closed_form():
    for n in range(-8, 9):
        for m in range(-8, 9):
            expect = Fraction(n**3 - n) if n + m == 0 else Fraction(0)
            assert cocycle(n, m) == expect, (n, m)
