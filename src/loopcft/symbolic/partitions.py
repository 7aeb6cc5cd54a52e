"""Integer partitions and the basis ordering used throughout the package.

Partitions index both the Verma-module basis at a given level and the
monomial bases of the coefficient ring.  Within a level the basis is ordered
by *descending* lexicographic multiplicity vector ``(k_1, ..., k_N)`` where
``k_i`` counts parts equal to ``i`` — so many-small-parts come first:
level 2 reads ``[(1,1), (2)]`` and level 3 reads ``[(1,1,1), (1,2), (3)]``.
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

    def multiplicity_vector(self) -> tuple[int, ...]:
        """(k_1, ..., k_n) with n the sum of the parts and k_i the number of parts equal to i."""
        vec = [0] * sum(self.parts)
        for p in self.parts:
            vec[p - 1] += 1
        return tuple(vec)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def partition_parts(partition: Partition | Iterable[int]) -> tuple[int, ...]:
    """The ascending parts of a :class:`Partition` or of any collection of parts."""
    return partition.parts if isinstance(partition, Partition) else tuple(sorted(partition))


def _partitions_raw(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for largest in range(min(total, max_part), 0, -1):
        for rest in _partitions_raw(total - largest, largest):
            yield rest + (largest,)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, descending-lex by multiplicity vector."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    items = [Partition(parts) for parts in _partitions_raw(n, n if n else 1)]
    items.sort(key=lambda p: p.multiplicity_vector(), reverse=True)
    return tuple(items)


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    return len(partitions_of(n))
