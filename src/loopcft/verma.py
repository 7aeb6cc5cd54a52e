"""Abstract Virasoro highest-weight (Verma) module over exact scalars.

States live in the PBW basis indexed by partitions: the basis vector for a
partition ``(k_1 <= ... <= k_j)`` is the word ``L_{-k_j} ... L_{-k_1}``
applied to the highest-weight vector, so more-negative modes sit to the
left.  :func:`lowering_word` and its adjoint :func:`raising_word` state
that word convention, and the geometric realization in
:mod:`loopcft.operators` reads its states and pairings from them too.
Mode application is implemented by straightening against the commutation
relation

    [L_a, L_b] = (a - b) L_{a+b} + (c/12) (a^3 - a) delta_{a,-b}

with every coefficient a :class:`CoeffPoly` in the symbolic weight and
central charge; rational specializations substitute at the very end, so
ranks and kernels carry no numerical noise.

The central cocycle value is itself computed from a contour residue of
polynomial vector fields rather than hardcoded, and the straightening
routine consumes that computation.

A Gram entry <k|k'> moves the first raising mode L_{max k} onto the basis
vector of k' and pairs the result with the entries of k minus its largest
part, one level down; both the basis actions and the entries are
memoized, and :func:`gram_matrix` straightens only its upper triangle
because the form is symmetric.  The tests hold the entries against an
oracle that straightens the whole word (``normal_order`` in
``tests/oracles.py``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterator, Mapping, Sequence

from .symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    LaurentSeries,
    Partition,
    determinant,
    kernel_basis,
    partition_parts,
    partitions_of,
    rank as matrix_rank,
)

__all__ = [
    "VermaVector",
    "apply_mode",
    "lowering_word",
    "raising_word",
    "gram_entry",
    "gram_matrix",
    "gram_matrix_at",
    "gram_rank_at",
    "singular_vectors",
    "kac_determinant",
    "kac_determinant_at",
    "kac_lambda",
    "central_charge",
    "cocycle",
]

_ZERO = CoeffPoly.zero()
_LAM = CoeffPoly.generator(LAMBDA)
_C = CoeffPoly.generator(CC)

Parts = tuple[int, ...]


def central_charge(kappa: Fraction | int) -> Fraction:
    """The central charge along the one-parameter family, 13 - 24/k - 3k/2."""
    kappa = Fraction(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return Fraction(13) - Fraction(24) / kappa - Fraction(3, 2) * kappa


def kac_lambda(r: int, s: int, kappa: Fraction | int) -> Fraction:
    """Degenerate weight with indices (r, s) along the same family."""
    if r < 1 or s < 1:
        raise ValueError("degenerate-weight indices must be positive")
    kappa = Fraction(kappa)
    return (
        Fraction(r * r - 1) * kappa / 16
        + Fraction(s * s - 1) / kappa
        + Fraction(1 - r * s, 2)
    )


@lru_cache(maxsize=None)
def cocycle(n: int, m: int) -> Fraction:
    """Central 2-cocycle of the vector fields -z**(n+1) d/dz.

    Evaluated as the residue pairing res[ v_n''' * v_m ] of the generating
    fields, not from a closed form; equals (n^3 - n) when m = -n and 0
    otherwise.
    """
    v_n = LaurentSeries.monomial(n + 1, -1, None)
    v_m = LaurentSeries.monomial(m + 1, -1, None)
    third = v_n.derivative().derivative().derivative()
    product = third * v_m
    if product.is_zero:
        return Fraction(0)
    return product.residue().as_constant()


class VermaVector:
    """A finite combination of PBW basis vectors with CoeffPoly coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Parts, CoeffPoly] | None = None):
        clean: dict[Parts, CoeffPoly] = {}
        if terms:
            for parts, coeff in terms.items():
                if not coeff.is_zero:
                    clean[tuple(parts)] = coeff
        self._terms = clean

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Parts, CoeffPoly]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, parts: Sequence[int]) -> CoeffPoly:
        return self._terms.get(tuple(parts), _ZERO)

    def scale(self, factor: CoeffPoly | Fraction | int) -> "VermaVector":
        if isinstance(factor, (int, Fraction)):
            factor = CoeffPoly.constant(factor)
        if factor.is_zero:
            return VermaVector()
        return VermaVector({k: v * factor for k, v in self._terms.items()})

    def __add__(self, other: "VermaVector") -> "VermaVector":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, _ZERO) + v
        return VermaVector(merged)

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + other.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def substitute(self, assignment) -> "VermaVector":
        return VermaVector(
            {k: v.substitute(assignment) for k, v in self._terms.items()}
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "VermaVector(0)"
        bits = [f"({c.canonical_text()})*e{list(k)}" for k, c in self.terms()]
        return " + ".join(bits)


def lowering_word(partition: Partition | Sequence[int]) -> Parts:
    """Modes of the PBW word for a partition, most negative first."""
    return tuple(-p for p in reversed(partition_parts(partition)))


def raising_word(partition: Partition | Sequence[int]) -> Parts:
    """Adjoint word of :func:`lowering_word` — positive modes ascending."""
    return partition_parts(partition)


@lru_cache(maxsize=None)
def _apply_mode_to_basis(n: int, parts: Parts) -> VermaVector:
    if n == 0:
        return VermaVector({parts: _LAM + sum(parts)})
    if n < 0:
        return _lower(-n, parts)
    return _raise(n, parts)


def _lower(p: int, parts: Parts) -> VermaVector:
    """L_{-p} applied to a basis vector, straightened back into the PBW basis."""
    if not parts or p >= parts[-1]:
        return VermaVector({tuple(sorted(parts + (p,))): CoeffPoly.one()})
    # L_{-p} L_{-q} = L_{-q} L_{-p} + (q - p) L_{-p-q} with q the largest part
    q = parts[-1]
    rest = parts[:-1]
    swapped = apply_mode(-q, _lower(p, rest))
    merged = _lower(p + q, rest).scale(q - p)
    return swapped + merged


def _raise(n: int, parts: Parts) -> VermaVector:
    """L_n (n > 0) applied to a basis vector by commuting past the word head."""
    if not parts:
        return VermaVector()
    p = parts[-1]  # leftmost operator of the PBW word is L_{-p}
    rest = parts[:-1]
    through = apply_mode(-p, _raise(n, rest))
    cross = _apply_mode_to_basis(n - p, rest).scale(n + p)
    result = through + cross
    if n == p:
        central = _C * (Fraction(1, 12) * cocycle(n, -n))
        result = result + VermaVector({rest: CoeffPoly.one()}).scale(central)
    return result


def apply_mode(n: int, vector: VermaVector) -> VermaVector:
    """The action of the n-th Virasoro mode on a module vector."""
    result = VermaVector()
    for parts, coeff in vector.terms():
        result = result + _apply_mode_to_basis(n, parts).scale(coeff)
    return result


@lru_cache(maxsize=None)
def gram_entry(k: Parts, kprime: Parts) -> CoeffPoly:
    """<basis(k), basis(kprime)> as a polynomial in the weight and charge.

    The first raising mode, L_{max k}, moves onto basis(kprime):

        <k|k'> = sum_{k''} [L_{max k} e_{k'}]_{k''} <k minus max k | k''>

    one memoized basis action and one sum of products against memoized
    entries one level down.  Entries across levels are zero.
    """
    k, kprime = partition_parts(k), partition_parts(kprime)
    if sum(k) != sum(kprime):
        return _ZERO
    if not k:
        return CoeffPoly.one()
    top, rest = k[-1], k[:-1]
    image = _apply_mode_to_basis(top, kprime)
    level = sum(rest)
    stray = [parts for parts, _ in image.terms() if sum(parts) != level]
    if stray:
        raise AssertionError(
            f"pairing {k} with {kprime}: L_{top} e{list(kprime)} left terms "
            f"off level {level}: {stray}"
        )
    return CoeffPoly.sum_of_products(
        (coeff, gram_entry(rest, parts)) for parts, coeff in image.terms()
    )


@lru_cache(maxsize=None)
def gram_matrix(level: int) -> tuple[tuple[CoeffPoly, ...], ...]:
    """The symbolic Gram matrix at a level, rows/cols in partition basis order.

    The form is symmetric, so only the upper triangle is straightened and
    the lower one mirrors it.
    """
    basis = [p.parts for p in partitions_of(level)]
    rows = [[_ZERO] * len(basis) for _ in basis]
    for i, ki in enumerate(basis):
        for j in range(i, len(basis)):
            rows[i][j] = rows[j][i] = gram_entry(ki, basis[j])
    return tuple(tuple(row) for row in rows)


def gram_matrix_at(
    level: int, weight: Fraction | int, charge: Fraction | int
) -> list[list[Fraction]]:
    assignment = {LAMBDA: Fraction(weight), CC: Fraction(charge)}
    return [
        [entry.substitute(assignment).as_constant() for entry in row]
        for row in gram_matrix(level)
    ]


def gram_rank_at(level: int, weight: Fraction | int, charge: Fraction | int) -> int:
    return matrix_rank(gram_matrix_at(level, weight, charge))


def singular_vectors(
    level: int, weight: Fraction | int, charge: Fraction | int
) -> list[list[Fraction]]:
    """Kernel basis of the specialized Gram form, in partition basis order.

    Each vector is the coefficient list of a null state; the first nonzero
    coordinate is normalized to 1.
    """
    return kernel_basis(gram_matrix_at(level, weight, charge))


@lru_cache(maxsize=None)
def _laplace(level: int, cols: frozenset[int]) -> CoeffPoly:
    matrix = gram_matrix(level)
    row = len(matrix) - len(cols)
    if not cols:
        return CoeffPoly.one()
    total = CoeffPoly.zero()
    for position, c in enumerate(sorted(cols)):
        entry = matrix[row][c]
        if entry.is_zero:
            continue
        minor = _laplace(level, cols - {c})
        term = entry * minor
        if position % 2:
            term = -term
        total = total + term
    return total


def kac_determinant(level: int) -> CoeffPoly:
    """Symbolic determinant of the level Gram matrix in (lambda, c).

    Laplace expansion along the rows, memoized over the 2^p(N) column
    subsets: on a 2-vCPU x86-64 VM with Python 3.11 about 0.4 s at level 6
    and 22 s at level 7.  It is the charge-free oracle for
    :func:`kac_determinant_at`; every caller that fixes the charge uses
    :func:`kac_determinant_at`, so no report runs it.  It stays here, not
    with the tests' oracles, because ``perfbench/tracer.py`` wraps it by
    name for its ``verma.kac_determinant`` span.
    """
    size = len(partitions_of(level))
    return _laplace(level, frozenset(range(size)))


def kac_determinant_at(level: int, charge: Fraction | int) -> CoeffPoly:
    """Determinant of the level Gram matrix at central charge ``charge``.

    The result is a polynomial in lambda alone, equal to
    ``kac_determinant(level).substitute({CC: charge})``, found by exact
    evaluation and interpolation:

    1. substitute the charge into :func:`gram_matrix` and clear each row's
       denominators, so every entry is an integer polynomial in lambda;
    2. bound the degree by D = the sum over rows of the largest lambda-degree
       in the row (the Leibniz bound, read off the matrix and not from Kac's
       product formula, so the product-formula tests stay independent);
    3. evaluate the entries at lambda = 0..D by Horner over ints and take
       each determinant by fraction-free Bareiss (:func:`determinant`);
    4. interpolate through the D + 1 values (Newton's forward differences)
       and divide by the product of the row scales.

    The cost is D + 1 integer determinants of size p(N), with no memo over
    column subsets; the README gives measured timings per level.
    """
    assignment = {CC: charge}
    rows: list[list[list[int]]] = []
    scale = 1
    degree = 0
    for row in gram_matrix(level):
        entries = [_lambda_coefficients(entry.substitute(assignment)) for entry in row]
        den = lcm(*(c.denominator for coeffs in entries for c in coeffs))
        rows.append(
            [[c.numerator * (den // c.denominator) for c in coeffs] for coeffs in entries]
        )
        scale *= den
        degree += max(len(coeffs) for coeffs in entries) - 1
    values = [
        determinant([[_horner(coeffs, x) for coeffs in row] for row in rows]).numerator
        for x in range(degree + 1)
    ]
    divisor = factorial(degree) * scale
    return CoeffPoly(
        {
            ((LAMBDA.kind, LAMBDA.index, e),) if e else (): Fraction(c, divisor)
            for e, c in enumerate(_interpolate(values))
            if c
        }
    )


def _lambda_coefficients(poly: CoeffPoly) -> list[Fraction]:
    """Coefficients of a polynomial in lambda alone, lowest degree first."""
    coeffs: dict[int, Fraction] = {}
    for mono, coef in poly.terms():
        coeffs[mono[0][2] if mono else 0] = coef
    return [coeffs.get(e, Fraction(0)) for e in range(max(coeffs, default=-1) + 1)]


def _horner(coeffs: list[int], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _interpolate(values: list[int]) -> list[int]:
    """D! times the polynomial through (x, values[x]) for x = 0..D, lowest first.

    Newton's form on the nodes 0..D is sum_k Delta^k y_0 * x(x-1)...(x-k+1) / k!;
    scaled by D! every weight D!/k! is an integer, so the Horner expansion
    runs over ints.
    """
    d = len(values) - 1
    diffs = list(values)
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    coeffs: list[int] = []
    weight = 1  # D!/k!
    for k in range(d, -1, -1):
        # coeffs <- coeffs * (x - k) + weight * Delta^k y_0
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += weight * diffs[k]
        weight *= k
    return coeffs
