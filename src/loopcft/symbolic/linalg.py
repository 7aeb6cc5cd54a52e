"""Exact linear algebra over the rationals.

Everything here works on dense ``list[list[Fraction]]`` matrices.  Ranks,
kernels and inverses come from Gauss-Jordan elimination over ``Fraction``;
the determinant clears each row's denominators and runs fraction-free
Bareiss elimination on integers, which divides exactly and never reduces a
fraction.  The Kac determinant is the hot path: it evaluates the symmetric
Gram form at D + 1 weights per level (22 x 22 matrices at level 8, 30 x 30
at level 9), and :func:`symmetric_determinants` eliminates all of them in
one Bareiss pass over the upper triangle, handing any weight whose pivot
vanishes to :func:`determinant`.  Nothing here is approximate, so ranks,
kernels and inverses come out with no floating-point ambiguity.
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


def _copy(matrix: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = _copy(matrix)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
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


def invert(matrix: Sequence[Sequence[Fraction | int]]) -> Matrix:
    """Exact inverse via Gauss-Jordan on [A | I]; raises on singular input."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("only square matrices can be inverted")
    augmented = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over the rationals")
    return [row[n:] for row in reduced]


def determinant(matrix: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss 1968) elimination.

    Each row is scaled to integers by the lcm of its denominators.  Each
    step then replaces the trailing block by 2x2 minors over the pivot,
    divided exactly (``//``) by the previous pivot, so every entry stays an
    integer minor of the scaled matrix; the result is divided by the scales.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    m: list[list[int]] = []
    scale = 1
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    sign, previous = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        tail = m[k][k + 1 :]
        for row in m[k + 1 :]:
            factor = row[k]
            row[k + 1 :] = [
                (pivot * x - factor * y) // previous for x, y in zip(row[k + 1 :], tail)
            ]
        previous = pivot
    return Fraction(sign * m[-1][-1] if n else 1, scale)


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
