"""Exact symbolic kernel: polynomials, Laurent series, partitions, linalg."""

from .linalg import (
    determinant,
    invert,
    kernel_basis,
    rank,
    rref,
    symmetric_determinants,
)
from .partitions import Partition, partition_count, partition_parts, partitions_of
from .poly import (
    CC,
    LAMBDA,
    CoeffPoly,
    Derivation,
    Generator,
    a,
    abar,
)
from .series import (
    InsufficientOrderError,
    LaurentSeries,
    pre_schwarzian,
    schwarzian,
    series_reversion,
)

__all__ = [
    "CoeffPoly",
    "Derivation",
    "Generator",
    "a",
    "abar",
    "LAMBDA",
    "CC",
    "LaurentSeries",
    "InsufficientOrderError",
    "schwarzian",
    "pre_schwarzian",
    "series_reversion",
    "Partition",
    "partition_parts",
    "partitions_of",
    "partition_count",
    "rref",
    "rank",
    "kernel_basis",
    "invert",
    "determinant",
    "symmetric_determinants",
]
