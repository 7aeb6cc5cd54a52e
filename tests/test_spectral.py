"""Numeric tests for the closed-form spectral quantities.

Expected values marked "50-digit oracle" were computed once with mpmath at
dps=50 from the same closed forms written independently; doubles produced by
the library must match them to near machine precision.
"""

import csv
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcft.spectral import (
    AnnulusMap,
    PoleProximityError,
    U_of_q,
    annulus_point,
    annulus_schwarzian,
    bubble_mass,
    bubble_mass_limit,
    gram_inverse_check,
    mobius_annulus,
    poisson_annulus,
    poisson_annulus_covariant,
    poisson_disc,
    reflection_R,
    reflection_smallest_pole,
    write_bubble_limit_scan,
)

KAPPAS = (2.0, 8.0 / 3.0, 3.0, 4.0)


# ---------------------------------------------------------------------------
# reflection coefficient
# ---------------------------------------------------------------------------


def test_reflection_at_zero_is_one():
    for kappa in KAPPAS:
        assert reflection_R(0.0, kappa) == pytest.approx(1.0, abs=1e-12)


def test_reflection_against_high_precision_values():
    # 50-digit oracle
    assert reflection_R(-1.0, 8.0 / 3.0) == pytest.approx(
        0.0547440635660894294507739176006, rel=1e-14
    )
    assert reflection_R(-2.0, 3.0) == pytest.approx(
        0.00652834301811604580738948596614, rel=1e-14
    )
    assert reflection_R(0.125, 2.0) == pytest.approx(
        1.77733523371464789060539685118, rel=1e-14
    )


def _oracle_reflection(lam: complex, kappa: float) -> complex:
    mp.mp.dps = 50

    def sinc(t):
        return mp.sinpi(t) / (mp.pi * t) if t != 0 else mp.mpf(1)

    a = 1 - mp.mpf(kappa) / 4
    x = mp.sqrt(mp.mpc(a * a + mp.mpf(lam.real) * kappa, lam.imag * kappa))
    return complex(sinc(a) / sinc(x))


def test_reflection_matches_fresh_softfloat_evaluation():
    for kappa, lam in [(2.0, -0.7), (3.0, 0.05), (4.0, -3.0), (8 / 3, 0.2)]:
        oracle = _oracle_reflection(complex(lam), kappa)
        assert complex(reflection_R(lam, kappa)) == pytest.approx(oracle, rel=1e-13)


def test_reflection_series_seam_is_smooth():
    # both branches of the removable-singularity handling must agree with
    # the soft-float oracle on either side of the |x| = 1e-4 switchover
    kappa = 3.0
    a = 1 - kappa / 4
    for x_target in (0.0, 0.5e-4, 0.99e-4, 1.01e-4, 2e-4):
        lam = (x_target * x_target - a * a) / kappa
        oracle = _oracle_reflection(complex(lam), kappa)
        assert complex(reflection_R(lam, kappa)) == pytest.approx(oracle, rel=1e-12)


def test_reflection_conjugate_symmetry():
    for lam in (0.1 + 0.3j, -1 + 1j, 0.2 - 0.05j):
        left = reflection_R(lam.conjugate(), 3.0)
        right = complex(reflection_R(lam, 3.0)).conjugate()
        assert left == pytest.approx(right, rel=1e-12)


def test_reflection_pole_detection():
    kappa = 3.0
    pole = 0.5 * (1 - kappa / 8)
    with pytest.raises(PoleProximityError):
        reflection_R(pole, kappa)
    with pytest.raises(ValueError):
        reflection_R(0.0, 5.0)


def test_smallest_pole_location():
    for kappa in KAPPAS:
        found = reflection_smallest_pole(kappa)
        assert found == pytest.approx(0.5 * (1 - kappa / 8), abs=1e-9)


# ---------------------------------------------------------------------------
# the annulus function
# ---------------------------------------------------------------------------


def test_u_against_high_precision_values():
    # 50-digit oracle
    assert U_of_q(0.3) == pytest.approx(0.650726831760610015120521319906, rel=1e-13)
    assert U_of_q(0.5) == pytest.approx(1.79519070458436572560957763296, rel=1e-13)


def test_u_vanishes_at_small_modulus():
    assert U_of_q(1e-30) < 0.01


def test_u_decay_rate():
    # |log q| * U(q) settles at 1/2; deviations shrink as q drops
    deviations = []
    for q in (1e-4, 1e-6, 1e-8):
        scaled = U_of_q(q) * abs(math.log(q))
        deviations.append(abs(scaled - 0.5))
        assert 0.45 < scaled < 0.55
    assert deviations == sorted(deviations, reverse=True)
    assert 0.45 < U_of_q(1e-30) * abs(math.log(1e-30)) < 0.55


def test_u_positive_and_continuous_on_grid():
    values = [U_of_q(1e-6 + (0.99 - 1e-6) * i / 999) for i in range(1000)]
    assert all(v > 0 for v in values)
    # strictly increasing, and no adjacent jump beyond half the larger value
    # (the grid resolves the steep q -> 1 growth only to that accuracy)
    for a, b in zip(values, values[1:]):
        assert b > a
        assert b - a <= 0.5 * b


def test_u_domain_rejection():
    for bad in (0.0, -0.1, 0.991, 1.5):
        with pytest.raises(ValueError):
            U_of_q(bad)


# ---------------------------------------------------------------------------
# Poisson kernels
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(-3.0, 3.0),
    delta=st.floats(0.05, 3.0),
    q=st.floats(0.01, 0.9),
)
def test_annulus_kernel_symmetry_and_periodicity(theta, delta, q):
    base = poisson_annulus(q, theta, theta + delta)
    assert base > 0
    assert poisson_annulus(q, theta + delta, theta) == pytest.approx(base, rel=1e-12)
    shifted = poisson_annulus(q, theta + 2 * math.pi, theta + delta)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_disc_kernel_basics():
    z = complex(math.cos(0.3), math.sin(0.3))
    w = complex(math.cos(1.1), math.sin(1.1))
    assert poisson_disc(z, w) == pytest.approx(poisson_disc(w, z), rel=1e-15)
    assert poisson_disc(z, w) > 0
    with pytest.raises(ValueError):
        poisson_disc(z, z)


def test_annulus_kernel_coincidence_rejection():
    with pytest.raises(ValueError):
        poisson_annulus(0.3, 1.0, 1.0)
    with pytest.raises(ValueError):
        poisson_annulus(0.3, 1.0, 1.0 + 2 * math.pi)


def test_kernel_difference_tends_to_u():
    # centered annulus: the defining limit of the bubble mass
    q = 0.3
    theta_p = 1e-3
    approx = math.pi * (
        poisson_disc(1 + 0j, complex(math.cos(theta_p), math.sin(theta_p)))
        - poisson_annulus(q, 0.0, theta_p)
    )
    assert approx == pytest.approx(U_of_q(q), rel=1e-4)


def test_kernel_difference_bounded_by_u_away_from_diagonal():
    for q in (0.05, 0.3):
        bound = U_of_q(q) + 1e-9
        for i in range(200):
            d = 0.1 + (math.pi - 0.1) * i / 199
            z = complex(math.cos(d), math.sin(d))
            gap = math.pi * abs(poisson_disc(1 + 0j, z) - poisson_annulus(q, 0.0, d))
            assert gap <= bound, (q, d, gap)


# ---------------------------------------------------------------------------
# circular domains
# ---------------------------------------------------------------------------


def test_mobius_annulus_centered():
    amap = mobius_annulus(0.0, 0.25)
    assert amap.alpha == 0.0
    assert amap.q == 0.25


def test_mobius_annulus_off_center_maps_circle_to_circle():
    amap = mobius_annulus(0.3, 0.2)
    radii = []
    for i in range(64):
        t = 2 * math.pi * i / 64
        z = complex(0.3 + 0.2 * math.cos(t), 0.2 * math.sin(t))
        radii.append(abs(annulus_point(amap.alpha, z)))
    assert max(radii) - min(radii) < 1e-12
    assert radii[0] == pytest.approx(amap.q, abs=1e-12)
    assert abs(amap.alpha) < 1


def test_mobius_annulus_reflection_symmetry():
    plus = mobius_annulus(0.3, 0.2)
    minus = mobius_annulus(-0.3, 0.2)
    assert minus.alpha == pytest.approx(-plus.alpha, rel=1e-14)
    assert minus.q == pytest.approx(plus.q, rel=1e-13)


def test_mobius_annulus_rejects_bad_geometry():
    with pytest.raises(ValueError):
        mobius_annulus(0.5, 0.0)
    with pytest.raises(ValueError):
        mobius_annulus(0.5, 0.5)  # tangent to the unit circle
    with pytest.raises(ValueError):
        mobius_annulus(0.9, 0.3)  # sticks out


# ---------------------------------------------------------------------------
# bubble mass
# ---------------------------------------------------------------------------


def test_bubble_mass_centered_equals_u():
    amap = mobius_annulus(0.0, 0.25)
    expected = U_of_q(0.25)
    for theta in (0.0, 0.7, 2.0, -1.3):
        assert bubble_mass(amap, theta) == pytest.approx(expected, rel=1e-13)


def test_bubble_mass_schwarzian_term_vanishes():
    amap = mobius_annulus(0.3, 0.2)
    for theta in (0.0, 1.0, 2.5):
        z = complex(math.cos(theta), math.sin(theta))
        assert abs(annulus_schwarzian(amap.alpha, z)) < 1e-13


def test_bubble_mass_off_center_matches_kernel_limit():
    amap = mobius_annulus(0.3, 0.2)
    theta = 1.0
    gap = 1e-3
    approx = bubble_mass_limit(amap, theta - gap / 2, theta + gap / 2)
    assert approx == pytest.approx(bubble_mass(amap, theta), rel=1e-4)


def test_bubble_mass_nonnegative_on_configurations():
    for x0, r in [(0.0, 0.1), (0.2, 0.3), (0.5, 0.2), (-0.4, 0.25), (0.7, 0.1)]:
        amap = mobius_annulus(x0, r)
        for k in range(12):
            assert bubble_mass(amap, 2 * math.pi * k / 12) >= 0, (x0, r, k)


# ---------------------------------------------------------------------------
# exact Gram checks
# ---------------------------------------------------------------------------


def test_gram_inverse_check_reports():
    assert gram_inverse_check(2, Fraction(1, 3), 3)["status"] == "identity"
    assert gram_inverse_check(2, Fraction(1, 2), 3)["status"] == "singular"
    assert gram_inverse_check(0, Fraction(5, 7), 3)["status"] == "identity"


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_bubble_limit_scan_errors_shrink(tmp_path):
    path = tmp_path / "bubble.csv"
    amap = mobius_annulus(0.3, 0.2)
    theta = 1.0
    gaps = [1e-1, 1e-2, 1e-3]
    count = write_bubble_limit_scan(path, amap, theta, [theta + g for g in gaps])
    assert count == 3
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    errors = [float(r[1]) for r in rows]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-6
