"""Exact GF(2) linear algebra on bit-packed coefficient vectors.

A length-p vector is stored as a Python int: bit i-1 is the coefficient of
part x_i.  `pivot_insert` and `pivot_reduce` are the one elimination
kernel: a pivot table maps a row's highest set bit to the row, the rank of
the inserted vectors is the table's size, and a vector lies in their span
iff it reduces to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionError

__all__ = ["PartVector", "pivot_insert", "pivot_reduce"]


@dataclass(frozen=True, slots=True)
class PartVector:
    """A GF(2) combination of parts x_1..x_length, bit-packed (bit i-1 <-> x_i)."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise DimensionError(f"vector length must be >= 1, got {self.length}")
        if self.bits < 0 or self.bits.bit_length() > self.length:
            raise DimensionError(f"bits 0x{self.bits:x} do not fit in length {self.length}")

    @classmethod
    def zero(cls, length: int) -> PartVector:
        return cls(length, 0)

    @classmethod
    def singleton(cls, length: int, part: int) -> PartVector:
        """The basis vector e_part for a 1-based part index."""
        if not 1 <= part <= length:
            raise DimensionError(f"part {part} out of range 1..{length}")
        return cls(length, 1 << (part - 1))

    @classmethod
    def from_parts(cls, length: int, parts: Iterable[int]) -> PartVector:
        bits = 0
        for part in parts:
            if not 1 <= part <= length:
                raise DimensionError(f"part {part} out of range 1..{length}")
            bits |= 1 << (part - 1)
        return cls(length, bits)

    def parts(self) -> tuple[int, ...]:
        """1-based part indices with coefficient 1, ascending."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length())
            bits ^= low
        return tuple(out)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_singleton(self) -> bool:
        return self.bits != 0 and self.bits & (self.bits - 1) == 0

    def singleton_part(self) -> int | None:
        """The 1-based part index if this is a singleton, else None."""
        return self.bits.bit_length() if self.is_singleton() else None


def pivot_insert(pivots: dict[int, int], bits: int) -> bool:
    """Reduce `bits` against the pivot table and insert the residual.

    Returns True when the residual is nonzero, i.e. the rank grew.
    The table maps highest-set-bit index -> row.
    """
    while bits:
        high = bits.bit_length() - 1
        row = pivots.get(high)
        if row is None:
            pivots[high] = bits
            return True
        bits ^= row
    return False


def pivot_reduce(pivots: dict[int, int], bits: int) -> int:
    """Residual of `bits` after elimination by the pivot table (0 iff in span)."""
    while bits:
        high = bits.bit_length() - 1
        row = pivots.get(high)
        if row is None:
            return bits
        bits ^= row
    return 0
