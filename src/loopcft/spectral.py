"""Closed-form numerics: reflection coefficient, annulus functions, kernels.

Everything in this module is double precision.  The formulas are exact closed
forms, so the only numerical care needed is near removable singularities (the
``x -> 0`` limit of the reflection coefficient) and in the adaptive cutoffs of
the two lattice sums.  High-precision soft-float evaluation lives in the test
suite, not here.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence


__all__ = [
    "PoleProximityError",
    "reflection_R",
    "reflection_smallest_pole",
    "U_of_q",
    "poisson_disc",
    "poisson_annulus",
    "AnnulusMap",
    "mobius_annulus",
    "annulus_point",
    "annulus_derivative",
    "annulus_schwarzian",
    "poisson_annulus_covariant",
    "bubble_mass",
    "bubble_mass_limit",
    "write_bubble_limit_scan",
]


class PoleProximityError(ArithmeticError):
    """Raised when an evaluation lands too close to a pole to be meaningful."""


# ---------------------------------------------------------------------------
# the reflection coefficient
# ---------------------------------------------------------------------------

# pi x / sin(pi x) = 1 + (pi x)^2/6 + 7 (pi x)^4/360 + 31 (pi x)^6/15120 + ...
_SINC_SERIES_CUT = 1e-4


def _sinc_pi(x: complex) -> complex:
    """sin(pi x)/(pi x), an even entire function; series near the origin."""
    if abs(x) < _SINC_SERIES_CUT:
        u = (cmath.pi * x) ** 2
        return 1 - u / 6 + u * u / 120 - u * u * u / 5040
    px = cmath.pi * x
    return cmath.sin(px) / px


def reflection_R(lam: complex | float, kappa: float) -> complex | float:
    """Reflection coefficient at weight ``lam`` for a fixed kappa in (0, 4].

    Evaluates sin(pi a)/(pi a) * pi x / sin(pi x) with a = 1 - kappa/4 and
    x = sqrt(a^2 + lam*kappa).  The function is even in x, so the square-root
    branch is irrelevant; x = 0 is removable and handled by the series.
    """
    if not 0 < kappa <= 4:
        raise ValueError(f"kappa must lie in (0, 4], got {kappa}")
    a = 1 - kappa / 4
    w = a * a + complex(lam) * kappa
    x = cmath.sqrt(w)
    denom = _sinc_pi(x)
    if abs(denom) < 1e-10:
        raise PoleProximityError(
            f"reflection coefficient pole near lambda = {lam} (|sinc x| = {abs(denom):.2e})"
        )
    value = _sinc_pi(complex(a)) / denom
    if isinstance(lam, complex) and lam.imag != 0:
        return value
    return value.real


def reflection_smallest_pole(kappa: float) -> float:
    """Smallest real pole of the reflection coefficient, found by bisection.

    The coefficient blows up where sin(pi x(lambda)) vanishes with x away
    from 0; the first crossing is bracketed between lambda = 0 (where the
    sine factor is positive for every kappa in (0, 4]) and the value putting
    x at 3/2 (where it is negative).
    """
    if not 0 < kappa <= 4:
        raise ValueError(f"kappa must lie in (0, 4], got {kappa}")
    a = 1 - kappa / 4

    def crossing(lam: float) -> float:
        # a^2 + lam*kappa >= a^2 >= 0 on the bracket, and grows with lam
        return _sinc_pi(math.sqrt(a * a + lam * kappa)).real

    lo = 0.0
    hi = (2.25 - a * a) / kappa
    flo = crossing(lo)
    fhi = crossing(hi)
    if not (flo > 0 > fhi):
        raise ArithmeticError("pole bracket failed; kappa outside expected range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if crossing(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the annulus function U(q)
# ---------------------------------------------------------------------------


def U_of_q(q: float) -> float:
    """Brownian-bubble annulus function via its sinh-lattice sum.

    Valid for 0 < q <= 0.99.  Terms are added until they fall below 1e-18 of
    the accumulated sum; the summand decays like exp(-2 n pi^2 / |log q|), so
    the cutoff is reached quickly for every admissible q.
    """
    if not 0 < q <= 0.99:
        raise ValueError(f"q must lie in (0, 0.99], got {q}")
    L = abs(math.log(q))
    total = 1.0 / 12.0 + math.pi**2 / (12.0 * L * L)
    acc = 0.0
    n = 1
    while True:
        arg = n * math.pi**2 / L
        if arg > 350.0:  # sinh overflow guard; the term is far below cutoff
            break
        term = 1.0 / math.sinh(arg) ** 2
        acc += term
        if term < 1e-18 * acc:
            break
        n += 1
    return total - math.pi**2 / (2.0 * L * L) * acc


# ---------------------------------------------------------------------------
# boundary Poisson kernels
# ---------------------------------------------------------------------------


def poisson_disc(z: complex, w: complex) -> float:
    """Boundary Poisson kernel of the unit disc between two boundary points."""
    d2 = abs(z - w) ** 2
    if d2 < 1e-28:
        raise ValueError("coincident boundary points")
    return 1.0 / (math.pi * d2)


def poisson_annulus(q: float, theta: float, theta_p: float) -> float:
    """Boundary Poisson kernel of the annulus q < |z| < 1 on the outer circle.

    Lattice sum over 2 pi shifts of the angle difference; symmetric
    truncation with each dropped tail below 1e-15 of the running value.
    """
    if not 0 < q < 0.99:
        raise ValueError(f"q must lie in (0, 0.99), got {q}")
    L = abs(math.log(q))
    delta = theta_p - theta
    scale = math.pi / (2.0 * L)

    def term(n: int) -> float:
        shifted = delta + 2.0 * math.pi * n
        if abs(shifted) < 1e-12:
            raise ValueError("coincident boundary angles")
        arg = scale * shifted
        if abs(arg) > 350.0:
            return 0.0
        return 1.0 / math.sinh(arg) ** 2

    total = term(0)
    n = 1
    while True:
        tail = term(n) + term(-n)
        total += tail
        if n >= 2 and tail < 1e-15 * total:
            break
        n += 1
    return math.pi / (4.0 * L * L) * total


# ---------------------------------------------------------------------------
# circular annular domains and the bubble-mass formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusMap:
    """Mobius normalization of the disc minus an off-center circular hole.

    psi(z) = (z - alpha)/(1 - alpha z) carries the unit circle to itself and
    the removed circle (center x0, radius r) to the centered circle |w| = q.
    """

    alpha: float
    q: float


def mobius_annulus(x0: float, r: float) -> AnnulusMap:
    """Normalize the doubly connected domain D minus the disc B(x0, r)."""
    if r <= 0:
        raise ValueError("removed disc must have positive radius")
    if abs(x0) + r >= 1:
        raise ValueError("removed disc must be compactly contained in the unit disc")
    if x0 == 0:
        return AnnulusMap(alpha=0.0, q=r)
    b = 1 + x0 * x0 - r * r
    disc = b * b - 4 * x0 * x0
    if disc <= 0:
        raise ValueError("degenerate configuration: circles tangent or crossing")
    root = math.sqrt(disc)
    candidates = [(b - root) / (2 * x0), (b + root) / (2 * x0)]
    inside = [al for al in candidates if abs(al) < 1]
    if len(inside) != 1:
        raise ValueError("Mobius normalization did not isolate a unique fixed disc")
    alpha = inside[0]
    q = abs(annulus_point(alpha, x0 + r))
    if not 0 < q < 1:
        raise ValueError("normalized modulus fell outside (0, 1)")
    return AnnulusMap(alpha=alpha, q=q)


def annulus_point(alpha: float, z: complex) -> complex:
    """The normalizing Mobius map itself."""
    return (z - alpha) / (1 - alpha * z)


def annulus_derivative(alpha: float, z: complex) -> complex:
    return (1 - alpha * alpha) / (1 - alpha * z) ** 2


def annulus_schwarzian(alpha: float, z: complex) -> complex:
    """Schwarzian derivative of the normalizing map, assembled from scratch.

    For a Mobius map this is identically zero; computing it from the three
    derivatives (rather than hard-coding 0) keeps the bubble-mass expression
    textually faithful and catches any future non-Mobius normalization.
    """
    d1 = annulus_derivative(alpha, z)
    d2 = 2 * alpha * (1 - alpha * alpha) / (1 - alpha * z) ** 3
    d3 = 6 * alpha * alpha * (1 - alpha * alpha) / (1 - alpha * z) ** 4
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def poisson_annulus_covariant(amap: AnnulusMap, theta: float, theta_p: float) -> float:
    """Annulus kernel of the off-center domain via conformal covariance."""
    z = cmath.exp(1j * theta)
    w = cmath.exp(1j * theta_p)
    pz = annulus_point(amap.alpha, z)
    pw = annulus_point(amap.alpha, w)
    jacobian = abs(annulus_derivative(amap.alpha, z)) * abs(
        annulus_derivative(amap.alpha, w)
    )
    return jacobian * poisson_annulus(amap.q, cmath.phase(pz), cmath.phase(pw))


def bubble_mass(amap: AnnulusMap, theta: float) -> float:
    """Mass of Brownian bubbles rooted at e^{i theta} that hit the hole.

    Assembles the boundary expression e^{2 i theta} (S psi / 6 + (psi'/psi)^2
    U(q)); the result must be real up to roundoff, and an ArithmeticError
    says so when it is not.
    """
    z = cmath.exp(1j * theta)
    psi = annulus_point(amap.alpha, z)
    dpsi = annulus_derivative(amap.alpha, z)
    sch = annulus_schwarzian(amap.alpha, z)
    expr = z * z * (sch / 6.0 + (dpsi / psi) ** 2 * U_of_q(amap.q))
    if not abs(expr.imag) < 1e-10:
        raise ArithmeticError(f"bubble mass not real: {expr}")
    return expr.real


def bubble_mass_limit(amap: AnnulusMap, theta: float, theta_p: float) -> float:
    """Finite-difference approximant pi (H_disc - H_annulus) at two angles.

    Converges to bubble_mass(amap, theta) as theta_p -> theta; used as an
    independent route to the closed-form mass.
    """
    z = cmath.exp(1j * theta)
    w = cmath.exp(1j * theta_p)
    return math.pi * (
        poisson_disc(z, w) - poisson_annulus_covariant(amap, theta, theta_p)
    )


# ---------------------------------------------------------------------------
# convergence scan
# ---------------------------------------------------------------------------


def write_bubble_limit_scan(
    path: str | Path,
    amap: AnnulusMap,
    theta: float,
    theta_primes: Sequence[float],
) -> int:
    """CSV of (theta', |finite-difference - closed form|) rows.

    Each approximant is compared against the closed-form mass at the pair's
    midpoint, where the two-point formula is second-order accurate.
    """
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta_p", "limit_error"])
        for tp in theta_primes:
            mass = bubble_mass(amap, 0.5 * (theta + tp))
            err = abs(bubble_mass_limit(amap, theta, tp) - mass)
            writer.writerow([repr(tp), repr(err)])
            count += 1
    return count
