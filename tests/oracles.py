"""Independent oracles that the tests hold the product path against.

None of these runs in a report.  Each recomputes an object of ``loopcft``
by a route that the product path does not take:

* :func:`recursion_mode_operator` builds the modes below -2 from nested
  brackets of L_{-1} and L_{-2}, never reading the welding series of the
  deep modes (oracle for :func:`loopcft.operators.build_mode_operator`);
* :func:`level_rank` is the rank of the geometric lowered states at a pure
  left level, specialized exactly (oracle for
  :func:`loopcft.verma.gram_rank_at`);
* :func:`kac_determinant_per_node` takes one row-pivoting Bareiss
  determinant per interpolation node, on row-scaled integer matrices
  (oracle for the lockstep elimination and the symmetric scaling of
  :func:`loopcft.verma.kac_determinant_at`);
* :func:`normal_order` straightens a whole word against the Virasoro
  relation (oracle for the first-mode recursion of
  :func:`loopcft.verma.gram_entry`), with :func:`vacuum`,
  :func:`basis_vector` and :func:`apply_word` to build its vectors;
  :class:`VermaVector` and :func:`apply_mode` are the vector arithmetic
  under it, a module vector as a sum of the basis actions of
  ``loopcft.verma``;
* :func:`from_canonical_text` parses canonical polynomial text (round-trip
  oracle for :meth:`loopcft.symbolic.CoeffPoly.canonical_text`);
* :func:`partial_derivative` differentiates term by term on the decoded
  monomials of ``terms()`` (oracle for
  :meth:`loopcft.symbolic.CoeffPoly.derivative` and, summed, for the
  first-order kernel it is a case of).

The tests import them as ``from oracles import ...``: pytest's default
import mode puts this directory on ``sys.path``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterator, Mapping, Sequence

from loopcft import verma
from loopcft.operators import (
    ModeOperator,
    OperatorTable,
    OperatorWindowError,
    build_mode_operator,
    coefficient_state,
    commutator_parts,
    psi_state,
)
from loopcft.symbolic import (
    CC,
    LAMBDA,
    CoeffPoly,
    Generator,
    Partition,
    a,
    abar,
    determinant,
    partition_parts,
    partitions_of,
    rank as matrix_rank,
)
from loopcft.symbolic.poly import Monomial

# ---------------------------------------------------------------------------
# geometric realization
# ---------------------------------------------------------------------------


def recursion_mode_operator(n: int, max_index: int = 8) -> ModeOperator:
    """Mode n below -2 from nested brackets of adjacent modes.

    An oracle independent of the welding series for the deep modes:
    ``L_{-(j+1)} = [L_{-1}, L_{-j}] / (j - 1)``, starting from the welded
    L_{-1} and L_{-2} at windows wide enough that the result covers
    exactly ``max_index``.
    """
    if n > -3:
        raise ValueError("the bracket recursion only defines modes below -2")
    depth = -n
    current = build_mode_operator(-2, max_index=max_index + depth - 2)
    step = build_mode_operator(-1, max_index=max_index + depth - 1)
    for j in range(2, depth):
        current = commutator_parts(step, current).scaled(Fraction(1, j - 1))
    if current.max_index < max_index:
        raise OperatorWindowError("recursion lost more index coverage than expected")
    return current


def level_rank(
    level: int,
    weight: Fraction | int,
    charge: Fraction | int,
    table: OperatorTable,
) -> int:
    """Rank of the lowered states at a pure left level, specialized exactly."""
    if level == 0:
        return 1
    assignment = {LAMBDA: Fraction(weight), CC: Fraction(charge)}
    basis = partitions_of(level)
    monomials = [next(iter(coefficient_state(p).poly.terms()))[0] for p in basis]
    index = {mono: i for i, mono in enumerate(monomials)}
    rows = []
    for p in basis:
        poly = psi_state(p, (), table).poly.substitute(assignment)
        row = [Fraction(0)] * len(monomials)
        for mono, coeff in poly.terms():
            row[index[mono]] = coeff
        rows.append(row)
    return matrix_rank(rows)


# ---------------------------------------------------------------------------
# abstract Verma module
# ---------------------------------------------------------------------------


def kac_determinant_per_node(level: int, charge: Fraction | int) -> CoeffPoly:
    """Determinant of the level Gram matrix at ``charge``, one node at a time.

    Each row is scaled to integers by its own denominators, and the
    determinant at lambda = 0..D is one :func:`determinant` per node; the
    Newton interpolation is :func:`loopcft.verma._interpolate`.
    """
    assignment = {CC: charge}
    rows: list[list[list[int]]] = []
    scale = 1
    degree = 0
    for row in verma.gram_matrix(level):
        entries = [verma._lambda_coefficients(entry.substitute(assignment)) for entry in row]
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
            for e, c in enumerate(verma._interpolate(values))
            if c
        }
    )


def _horner(coeffs: list[int], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


Parts = tuple[int, ...]


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
        return self._terms.get(tuple(parts), CoeffPoly.zero())

    def scale(self, factor: CoeffPoly | Fraction | int) -> "VermaVector":
        if isinstance(factor, (int, Fraction)):
            factor = CoeffPoly.constant(factor)
        if factor.is_zero:
            return VermaVector()
        return VermaVector({k: v * factor for k, v in self._terms.items()})

    def __add__(self, other: "VermaVector") -> "VermaVector":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, CoeffPoly.zero()) + v
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


def apply_mode(n: int, vector: VermaVector) -> VermaVector:
    """The action of the n-th Virasoro mode on a module vector."""
    result = VermaVector()
    for parts, coeff in vector.terms():
        image = VermaVector(dict(verma._apply_mode_to_basis(n, parts)))
        result = result + image.scale(coeff)
    return result


def vacuum() -> VermaVector:
    """The highest-weight vector itself."""
    return VermaVector({(): CoeffPoly.one()})


def basis_vector(partition: Partition | Sequence[int]) -> VermaVector:
    return VermaVector({partition_parts(partition): CoeffPoly.one()})


def apply_word(word: Sequence[int], vector: VermaVector) -> VermaVector:
    """Apply a word of modes, rightmost first (operator composition order)."""
    for n in reversed(tuple(word)):
        vector = apply_mode(n, vector)
    return vector


def normal_order(word: Sequence[int]) -> VermaVector:
    """The word applied to the highest-weight vector, fully straightened."""
    return apply_word(word, vacuum())


# ---------------------------------------------------------------------------
# polynomials through their public terms
# ---------------------------------------------------------------------------


def partial_derivative(poly: CoeffPoly, gen: Generator) -> CoeffPoly:
    """d(poly)/d(gen), read off ``poly.terms()`` and rebuilt by the constructor."""
    out: dict[Monomial, Fraction] = {}
    for mono, coef in poly.terms():
        exponents = {(kind, index): exp for kind, index, exp in mono}
        exp = exponents.pop((gen.kind, gen.index), 0)
        if exp:
            if exp > 1:
                exponents[gen.kind, gen.index] = exp - 1
            out[tuple((kind, index, e) for (kind, index), e in exponents.items())] = coef * exp
    return CoeffPoly(out)


# ---------------------------------------------------------------------------
# canonical polynomial text
# ---------------------------------------------------------------------------


def from_canonical_text(text: str) -> CoeffPoly:
    """Inverse of :meth:`CoeffPoly.canonical_text` (tolerant of whitespace)."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    terms: dict[Monomial, Fraction] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("malformed polynomial text (dangling '+')")
        factors = chunk.split("*")
        coef = Fraction(factors[0])
        mono: list[tuple[int, int, int]] = []
        for factor in factors[1:]:
            if "^" in factor:
                name, _, exp_s = factor.partition("^")
                exp = int(exp_s)
            else:
                name, exp = factor, 1
            gen = _parse_generator_name(name)
            mono.append((gen.kind, gen.index, exp))
        key = tuple(sorted(mono, key=lambda t: (t[0], t[1])))
        if coef:
            terms[key] = terms.get(key, Fraction(0)) + coef
    return CoeffPoly({m: c for m, c in terms.items() if c})


def _parse_generator_name(name: str) -> Generator:
    name = name.strip()
    if name == "lambda":
        return LAMBDA
    if name == "c":
        return CC
    if name.startswith("abar"):
        return abar(int(name[4:]))
    if name.startswith("a"):
        return a(int(name[1:]))
    raise ValueError(f"unknown generator name {name!r}")
