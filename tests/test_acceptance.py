"""Acceptance gate: twelve numbered criteria, one test (and one verdict line) each.

Run with ``pytest tests/test_acceptance.py -v`` — each criterion appears as a
single PASSED/FAILED line; the prints inside give the quantitative witness.
Budgeted criteria assert their own wall-clock ceilings.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest

from loopcft import loewner, spectral
from loopcft.operators import (
    OperatorTable,
    commutator_defect,
    duality_pairing,
    geometric_pairing,
    state_family_residuals,
    vacuum_state,
)
from loopcft.symbolic import CC, LAMBDA, CoeffPoly, a, abar, partition_count, partitions_of
from loopcft.verma import (
    central_charge,
    gram_entry,
    gram_matrix,
    gram_rank_at,
    kac_determinant,
    kac_lambda,
)
from oracles import level_rank, recursion_mode_operator

LAM = CoeffPoly.generator(LAMBDA)
C = CoeffPoly.generator(CC)

KAPPAS = [Fraction(2), Fraction(8, 3), Fraction(3), Fraction(4)]


@pytest.fixture(scope="module")
def wide_table():
    """Window 12: wide enough to bracket modes up to 4 on degree-6 states."""
    return OperatorTable(max_index=12)


@pytest.fixture(scope="module")
def table():
    return OperatorTable(max_index=10)


def _verdict(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS — {text}")


def _monomial_states(max_weight: int):
    """Every monomial a_k abar_ktilde with weighted total degree <= max_weight."""
    states = []
    for total in range(max_weight + 1):
        for left in range(total + 1):
            for pl in partitions_of(left):
                for pr in partitions_of(total - left):
                    mono = CoeffPoly.one()
                    for part in pl.parts:
                        mono = mono * CoeffPoly.generator(a(part))
                    for part in pr.parts:
                        mono = mono * CoeffPoly.generator(abar(part))
                    states.append(mono)
    return states


def test_criterion_01_commutators_on_low_degree_states(wide_table):
    start = time.perf_counter()
    from loopcft.operators import fresh_state

    states = [fresh_state(m) for m in _monomial_states(6)]
    assert len(states) == 139
    checked = 0
    for n in range(-4, 5):
        for m in range(n, 5):
            ln, lm = wide_table.L(n), wide_table.L(m)
            ref = wide_table.L(n + m)
            for s in states:
                first = ln.apply(lm.apply(s))
                second = lm.apply(ln.apply(s))
                expect = ref.apply(s).scale(n - m)
                if n + m == 0:
                    expect = expect + s.scale(C * Fraction(n**3 - n, 12))
                assert (first - second - expect).is_zero, (n, m, s.poly)
                checked += 1
    for n in range(-4, 5):
        for m in range(-4, 5):
            ln, lbm = wide_table.L(n), wide_table.Lbar(m)
            for s in states:
                first = ln.apply(lbm.apply(s))
                second = lbm.apply(ln.apply(s))
                assert (first - second).is_zero, (n, m, s.poly)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"budget exceeded: {elapsed:.1f}s"
    _verdict(1, f"{checked} bracket evaluations exact on 139 states in {elapsed:.1f}s")


def test_criterion_02_highest_weight_vacuum(table):
    v = vacuum_state()
    for n in range(1, 7):
        assert table.L(n).apply(v).is_zero
        assert table.Lbar(n).apply(v).is_zero
    for op in (table.L(0), table.Lbar(0)):
        image = op.apply(v)
        assert image.poly == LAM
    _verdict(2, "vacuum annihilated by modes 1..6; mode 0 eigenvalue is the weight")


def test_criterion_03_level_two_gram_and_determinant():
    matrix = gram_matrix(2)
    expect = [
        [4 * LAM * (2 * LAM + 1), 6 * LAM],
        [6 * LAM, 4 * LAM + C * Fraction(1, 2)],
    ]
    for i in range(2):
        for j in range(2):
            assert matrix[i][j] == expect[i][j]
    for kappa in KAPPAS:
        det = kac_determinant(2).substitute({CC: central_charge(kappa)})
        product = (
            32
            * LAM
            * (LAM - CoeffPoly.constant(kac_lambda(1, 2, kappa)))
            * (LAM - CoeffPoly.constant(kac_lambda(2, 1, kappa)))
        )
        assert det == product, kappa
    _verdict(3, "matrix matches the closed form; determinant factors at all four kappas")


def test_criterion_04_level_two_singular_state(table):
    v = vacuum_state()
    quad = table.L(-1).apply(table.L(-1).apply(v))
    combo = quad - table.L(-2).apply(v).scale(Fraction(2, 3) * (2 * LAM + 1))
    for r, s in [(1, 2), (2, 1)]:
        assert state_family_residuals(combo.poly, r, s) == {}
    _verdict(4, "null combination vanishes identically in kappa on both families")


def test_criterion_05_gram_cross_oracle(table):
    start = time.perf_counter()
    pairs = 0
    for level in range(6):
        for k in partitions_of(level):
            for kp in partitions_of(level):
                got = geometric_pairing(k.parts, kp.parts, table)
                want = gram_entry(k.parts, kp.parts)
                assert got == want, (k.parts, kp.parts)
                pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, f"budget exceeded: {elapsed:.1f}s"
    _verdict(5, f"{pairs} geometric pairings equal the abstract form in {elapsed:.1f}s")


def test_criterion_06_coefficient_duality(table):
    count = 0
    for level in range(1, 6):
        for k in partitions_of(level):
            got = duality_pairing(k.parts, table)
            expect = Fraction(1)
            for value in set(k.parts):
                mult = k.parts.count(value)
                expect *= Fraction(-1) ** mult * math.factorial(mult)
            assert got == CoeffPoly.constant(expect), k.parts
            count += 1
    _verdict(6, f"signed multiplicity factorials reproduced for all {count} partitions")


def test_criterion_07_ranks_and_deficiencies(table):
    charge = central_charge(Fraction(3))
    for weight in (Fraction(5, 7), Fraction(22, 7)):
        for level in range(5):
            rank = level_rank(level, weight, charge, table)
            assert rank == partition_count(level), (weight, level)
    for r, s in [(1, 2), (2, 1), (1, 3)]:
        level = r * s
        weight = kac_lambda(r, s, Fraction(3))
        deficiency = partition_count(level) - gram_rank_at(level, weight, charge)
        assert deficiency >= 1, (r, s)
    _verdict(7, "full rank p(N) off the degenerate weights, rank drop on them")


def test_criterion_08_operator_degree_constraints(table):
    zero = CoeffPoly.zero()
    for n in range(-4, 5):
        op = table.L(n)
        for m in range(1, 9):
            p = op.d_a.get(m, zero)
            if n >= 1:
                if m < n:
                    assert p.is_zero, (n, m)
                elif m == n:
                    assert p == CoeffPoly.constant(-1), (n, m)
            if not p.is_zero:
                assert p.weighted_monomial_degrees() == {(m - n, 0)}, (n, m)
            q = op.d_abar.get(m, zero)
            if n >= 1:
                assert q.is_zero, (n, m)
            for left, right in q.weighted_monomial_degrees():
                assert left - right == -(n + m), (n, m)
                assert left + right <= m - n, (n, m)
    _verdict(8, "pure-a / mixed-degree constraints hold for |n| <= 4, m <= 8")


def test_criterion_09_bracket_recursion(table):
    for ell in (2, 3):
        assert commutator_defect(table.L(-1), table.L(-ell), table).is_zero
        recursed = recursion_mode_operator(-ell - 1, max_index=6)
        assert recursed == table.L(-ell - 1).restricted(6)
    _verdict(9, "bracket recursion reproduces modes -3 and -4 on both routes")


def test_criterion_10_reflection_normalization_and_poles():
    for kappa in KAPPAS:
        k = float(kappa)
        assert abs(spectral.reflection_R(0.0, k) - 1.0) <= 1e-12, kappa
        pole = spectral.reflection_smallest_pole(k)
        assert abs(pole - 0.5 * (1 - k / 8)) <= 1e-9, kappa
    _verdict(10, "R(0) = 1 and first poles at (1 - kappa/8)/2 for all four kappas")


def test_criterion_11_bubble_masses():
    q, gap = 0.3, 1e-3
    centered = math.pi * (
        spectral.poisson_disc(1.0 + 0j, cmath.exp(1j * gap))
        - spectral.poisson_annulus(q, 0.0, gap)
    )
    want = spectral.U_of_q(q)
    assert abs(centered - want) / want <= 1e-4

    amap = spectral.mobius_annulus(0.3, 0.25)
    theta = 0.7
    closed = spectral.bubble_mass(amap, theta)
    straddle = spectral.bubble_mass_limit(amap, theta - gap / 2, theta + gap / 2)
    assert abs(straddle - closed) / abs(closed) <= 1e-4

    tiny = spectral.U_of_q(1e-30)
    assert tiny < 0.01
    assert 0.45 < tiny * abs(math.log(1e-30)) < 0.55
    _verdict(11, "kernel limits match closed forms; small-q decay is logarithmic")


def test_criterion_12_loewner_checks():
    start = time.perf_counter()
    still = loewner.DrivingFunction.zero(total_time=1.0, dt=1e-3)
    got = loewner.forward_map(still, 3j, 1.0)
    want = cmath.sqrt((3j) ** 2 + 4)
    if want.imag < 0:
        want = -want
    assert abs(got - want) <= 1e-6

    fine = loewner.DrivingFunction.zero(total_time=1.0, dt=1e-4)
    assert abs(loewner.trace_tip(fine) - 2j) <= 1e-3

    kappa, dt, n = 3.0, 1e-2, 10_000
    total = total_sq = 0.0
    for seed in range(n):
        w_final = loewner.sample_sle_driving(kappa, 1.0, dt, seed=seed).values[-1]
        total += w_final
        total_sq += w_final * w_final
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    se = kappa * math.sqrt(2.0 / (n - 1))
    assert abs(var - kappa) <= 3 * se, (var, kappa, 3 * se)

    elapsed = time.perf_counter() - start
    assert elapsed <= 180.0, f"budget exceeded: {elapsed:.1f}s"
    _verdict(
        12,
        f"map, tip, and variance {var:.4f} vs {kappa} (3 SE {3 * se:.4f}) "
        f"in {elapsed:.1f}s",
    )
