"""Abstract Virasoro highest-weight (Verma) module over exact scalars.

States live in the PBW basis indexed by partitions: the basis vector for a
partition ``(k_1 <= ... <= k_j)`` is the word ``L_{-k_j} ... L_{-k_1}``
applied to the highest-weight vector, so more-negative modes sit to the
left.  :func:`lowering_word` and its adjoint :func:`raising_word` state
that word convention, and the geometric realization in
:mod:`loopcft.operators` reads its states and pairings from them too.
Mode application is one straightening routine: L_n moves past the word's
leftmost operator L_{-q} by the one commutation rule

    [L_n, L_{-q}] = (n + q) L_{n-q} + (c/12) (n^3 - n) delta_{n,q}

for lowering and raising modes alike, with every coefficient a
:class:`CoeffPoly` in the symbolic weight and central charge; rational
specializations substitute at the very end, so ranks and kernels carry no
numerical noise.

The central cocycle value is itself computed from a contour residue of
polynomial vector fields rather than hardcoded, and the straightening
routine consumes that computation.

A basis action is an immutable tuple of its nonzero ``(parts,
coefficient)`` terms, so the memo hands every caller a value it cannot
change.  A Gram entry <k|k'> moves the first raising mode L_{max k} onto
the basis vector of k' and pairs the result with the entries of k minus
its largest part, one level down; both the basis actions and the entries
are memoized, and :func:`gram_matrix` straightens only its upper triangle
because the form is symmetric.  The tests hold the entries against an
oracle that straightens the whole word (``normal_order`` in
``tests/oracles.py``, over the vector arithmetic ``VermaVector`` and
``apply_mode`` there).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, lcm, prod
from operator import add, mul
from typing import Sequence

from .symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    LaurentSeries,
    Partition,
    kernel_basis,
    partition_parts,
    partitions_of,
    rank as matrix_rank,
    symmetric_determinants,
)

__all__ = [
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
    "kac_table",
    "central_charge",
    "cocycle",
]

_ZERO = CoeffPoly.zero()
_LAM = CoeffPoly.generator(LAMBDA)
_C = CoeffPoly.generator(CC)

Parts = tuple[int, ...]
Terms = tuple[tuple[Parts, CoeffPoly], ...]  # nonzero (parts, coefficient) pairs


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


def kac_table(level: int) -> tuple[tuple[int, int], ...]:
    """The Kac indices (r, s) with r*s <= level, ordered by r, then s."""
    return tuple((r, s) for r in range(1, level + 1) for s in range(1, level // r + 1))


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


def lowering_word(partition: Partition | Sequence[int]) -> Parts:
    """Modes of the PBW word for a partition, most negative first."""
    return tuple(-p for p in reversed(partition_parts(partition)))


def raising_word(partition: Partition | Sequence[int]) -> Parts:
    """Adjoint word of :func:`lowering_word` — positive modes ascending."""
    return partition_parts(partition)


@lru_cache(maxsize=None)
def _apply_mode_to_basis(n: int, parts: Parts) -> Terms:
    """L_n applied to a basis vector, straightened back into the PBW basis.

    The result is the tuple of its nonzero ``(parts, coefficient)`` terms.
    L_n moves past the word's head L_{-q} by the one commutation rule
    L_n L_{-q} = L_{-q} L_n + (n + q) L_{n-q} + (c/12)(n^3 - n) delta_{n,q}.
    """
    if n == 0:
        return ((parts, _LAM + sum(parts)),)
    if n > 0 and not parts:
        return ()
    if n < 0 and (not parts or -n >= parts[-1]):
        return ((parts + (-n,), CoeffPoly.one()),)
    q, rest = parts[-1], parts[:-1]  # the word's leftmost operator is L_{-q}
    # the rule's three summands, each a tuple of terms times a factor
    pieces = [(_apply_mode_to_basis(-q, head), c) for head, c in _apply_mode_to_basis(n, rest)]
    pieces.append((_apply_mode_to_basis(n - q, rest), CoeffPoly.constant(n + q)))
    if n == q:
        pieces.append((((rest, _C),), CoeffPoly.constant(Fraction(1, 12) * cocycle(n, -n))))
    # each word's coefficient is one sum of products
    pairs: dict[Parts, list[tuple[CoeffPoly, CoeffPoly]]] = {}
    for terms, factor in pieces:
        for word, coeff in terms:
            pairs.setdefault(word, []).append((coeff, factor))
    sums = ((word, CoeffPoly.sum_of_products(group)) for word, group in pairs.items())
    return tuple((word, total) for word, total in sums if not total.is_zero)


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
    stray = sorted(parts for parts, _ in image if sum(parts) != level)
    if stray:
        raise AssertionError(
            f"pairing {k} with {kprime}: L_{top} e{list(kprime)} left terms "
            f"off level {level}: {stray}"
        )
    return CoeffPoly.sum_of_products(
        (coeff, gram_entry(rest, parts)) for parts, coeff in image
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

    1. substitute the charge into the upper triangle of :func:`gram_matrix`
       and scale entry (i, j) by d_i d_j, where d_i clears the denominators
       of row i, so the matrix stays symmetric and every entry is an integer
       polynomial in lambda;
    2. bound the degree by D = the sum over rows of the largest lambda-degree
       in the row (the Leibniz bound, read off the matrix and not from Kac's
       product formula, so the product-formula tests stay independent);
    3. evaluate every upper entry at lambda = 0..D in one Horner pass over
       the nodes and take the D + 1 determinants in one lockstep Bareiss
       elimination (:func:`symmetric_determinants`);
    4. interpolate through the D + 1 values (Newton's forward differences)
       and divide by D! and the squared row scales.

    The cost is one elimination of size p(N) whose every step is a vector
    operation over the D + 1 nodes, with no memo over column subsets; the
    README gives measured timings per level.
    """
    assignment = {CC: charge}
    upper = [
        [_lambda_coefficients(poly.substitute(assignment)) for poly in row[i:]]
        for i, row in enumerate(gram_matrix(level))
    ]
    size = len(upper)

    def entry(i: int, j: int) -> list[Fraction]:
        return upper[min(i, j)][abs(j - i)]

    degree = sum(max(len(entry(i, j)) for j in range(size)) - 1 for i in range(size))
    dens = [lcm(*(c.denominator for j in range(size) for c in entry(i, j))) for i in range(size)]
    nodes = range(degree + 1)
    at_nodes = [
        [
            _horner_at([c.numerator * (dens[i] // c.denominator) * dens[j] for c in cs], nodes)
            for j, cs in enumerate(row, i)
        ]
        for i, row in enumerate(upper)
    ]
    values = symmetric_determinants(at_nodes, len(nodes))
    divisor = factorial(degree) * prod(dens) ** 2
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


def _horner_at(coeffs: list[int], nodes: range) -> list[int]:
    """The integer polynomial ``coeffs`` (lowest degree first) at every node."""
    values = [0] * len(nodes)
    for c in reversed(coeffs):
        values = list(map(add, map(mul, values, nodes), repeat(c)))
    return values


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
