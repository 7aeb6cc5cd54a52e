"""Integer partitions and the basis ordering used throughout the package.

Partitions index both the Verma-module basis at a given level and the
monomial bases of the coefficient ring.  Within a level the basis is ordered
by *descending* lexicographic multiplicity vector ``(k_1, ..., k_N)`` where
``k_i`` counts parts equal to ``i`` — so many-small-parts come first:
level 2 reads ``[(1,1), (2)]`` and level 3 reads ``[(1,1,1), (1,2), (3)]``.
``_basis_order`` generates the partitions in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = ["Partition", "partition_parts", "partitions_of", "partition_count"]


@dataclass(frozen=True, order=False)
class Partition:
    """A partition stored as a tuple of parts in ascending order."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError(f"partition parts must be positive, got {self.parts}")
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"partition parts must ascend, got {self.parts}")


def partition_parts(partition: Partition | Iterable[int]) -> tuple[int, ...]:
    """The ascending parts of a :class:`Partition` or of any collection of parts."""
    return partition.parts if isinstance(partition, Partition) else tuple(sorted(partition))


def _basis_order(total: int, smallest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into parts >= ``smallest``, most copies of ``smallest`` first."""
    if total == 0:
        yield ()
    elif smallest <= total:
        for count in range(total // smallest, -1, -1):
            for rest in _basis_order(total - count * smallest, smallest + 1):
                yield (smallest,) * count + rest


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, descending-lex by multiplicity vector."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return tuple(Partition(parts) for parts in _basis_order(n, 1))


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    return len(partitions_of(n))
