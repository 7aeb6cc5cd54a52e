"""Exact linear algebra over the rationals.

Matrices are dense rows of ``Fraction`` or ``int`` entries.  One elimination,
:func:`_eliminate`, serves them all: it scales each row to integers and runs
fraction-free Gauss-Jordan elimination (Bareiss 1968, in Montante's form)
with row pivoting, so every division is exact and no fraction is reduced;
echelon forms, ranks, kernels, inverses and determinants read its result.
The Kac determinant is the hot path: it evaluates the symmetric Gram form
at D + 1 weights per level (22 x 22 matrices at level 8, 30 x 30 at level
9), and :func:`symmetric_determinants` eliminates all of them in one Bareiss
pass over the upper triangle, handing any weight whose pivot vanishes to
:func:`determinant`.  Nothing here is approximate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from operator import floordiv, mul, sub
from typing import Sequence

__all__ = [
    "rref",
    "rank",
    "kernel_basis",
    "invert",
    "determinant",
    "symmetric_determinants",
]

Matrix = list[list[Fraction]]
RationalRows = Sequence[Sequence[Fraction | int]]


def _eliminate(matrix: RationalRows) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan reduction of the row-scaled matrix.

    Each row is scaled to integers by the lcm of its denominators.  At each
    pivot p, found by row pivoting at (r, c), every other row i becomes
    (p a_ij - a_ic a_rj) // d, with d the previous pivot (1 at the start).
    Every entry stays an integer minor of the scaled matrix, so each division
    is exact (Bareiss 1968; Nakos, Turner and Williams 1997), and at the end
    every pivot entry equals the last pivot D, with zeros elsewhere in its
    column.  Returns the reduced rows, the pivot columns, D times the sign of
    the row swaps, and the product of the row scales.
    """
    rows: list[list[int]] = []
    scale = 1
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    pivots: list[int] = []
    sign, previous = 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        swap = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if swap is None:
            continue
        if swap != r:
            rows[r], rows[swap] = rows[swap], rows[r]
            sign = -sign
        head = rows[r]
        pivot = head[c]
        for i, row in enumerate(rows):
            if i != r:
                factor = row[c]
                rows[i] = [(pivot * x - factor * y) // previous for x, y in zip(row, head)]
        previous = pivot
        pivots.append(c)
    return rows, pivots, sign * previous, scale


def rref(matrix: RationalRows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows, pivots, _, _ = _eliminate(matrix)
    last = rows[0][pivots[0]] if pivots else 1  # every pivot entry is the last pivot
    return [[Fraction(x, last) for x in row] for row in rows], pivots


def rank(matrix: RationalRows) -> int:
    return len(_eliminate(matrix)[1])


def kernel_basis(matrix: RationalRows) -> list[list[Fraction]]:
    """A basis of the right kernel, one vector per free column.

    Each vector is normalized so its first nonzero coordinate is 1.
    """
    if not matrix:
        return []
    reduced, pivots = rref(matrix)
    cols = len(matrix[0])
    free = [c for c in range(cols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        lead = next(x for x in vec if x != 0)
        basis.append([x / lead for x in vec])
    return basis


def invert(matrix: RationalRows) -> Matrix:
    """Exact inverse via Gauss-Jordan on [A | I]; raises on singular input."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("only square matrices can be inverted")
    augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over the rationals")
    return [row[n:] for row in reduced]


def determinant(matrix: RationalRows) -> Fraction:
    """Exact determinant: the signed last pivot of :func:`_eliminate` over the
    row scales at full rank, and 0 below it."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    _, pivots, signed_last, scale = _eliminate(matrix)
    return Fraction(signed_last, scale) if len(pivots) == n else Fraction(0)


def symmetric_determinants(upper: Sequence[Sequence[Sequence[int]]], nodes: int) -> list[int]:
    """Determinants of a symmetric integer matrix given at ``nodes`` points.

    ``upper[i][j - i]`` lists the values of entry (i, j >= i) at every node.
    One Bareiss pass moves all nodes in lockstep: step k replaces each
    trailing entry by (a_kk a_ij - a_ki a_kj) // previous pivot, one ``map``
    over the nodes.  The trailing block stays symmetric, so only j >= i is
    updated.  A node whose pivot a_kk is zero leaves the lockstep: the
    trailing block B is then that node's (k + 1)-bordered minors, and
    Sylvester's identity det A = det B / previous^(n - k - 1) finishes it by
    the row-pivoting :func:`determinant` on B.
    """
    n = len(upper)
    if any(len(row) != n - i for i, row in enumerate(upper)):
        raise ValueError("row i of the upper triangle must hold columns i..n-1")
    if any(len(entry) != nodes for row in upper for entry in row):
        raise ValueError(f"every entry needs one value per node ({nodes})")
    results = [1] * nodes
    if not n:
        return results
    block = list(upper)  # each step replaces the rows it changes
    live = list(range(nodes))  # the node at each lockstep position
    previous = [1] * nodes
    for k in range(n - 1):
        pivot = block[k][0]
        if not all(pivot):
            for t, p in enumerate(pivot):
                if not p:
                    trailing = [
                        [block[min(i, j)][abs(j - i)][t] for j in range(k, n)] for i in range(k, n)
                    ]
                    minors = determinant(trailing).numerator
                    results[live[t]] = minors // previous[t] ** (n - k - 1)
            keep = list(map(bool, pivot))
            for i in range(k, n):
                block[i] = [list(compress(entry, keep)) for entry in block[i]]
            live = list(compress(live, keep))
            previous = list(compress(previous, keep))
            if not live:
                return results
            pivot = block[k][0]
        head = block[k]
        for i in range(k + 1, n):
            factor = head[i - k]
            block[i] = [
                list(map(floordiv, map(sub, map(mul, pivot, x), map(mul, factor, y)), previous))
                for x, y in zip(block[i], head[i - k :])
            ]
        previous = pivot
    for t, value in zip(live, block[-1][0]):
        results[t] = value
    return results
