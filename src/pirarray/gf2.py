"""Exact GF(2) linear algebra on bit-packed coefficient vectors.

A length-p vector is stored as a Python int: bit i-1 is the coefficient of
part x_i.  Rank and span-membership run by Gaussian elimination on these
ints; `Gf2Basis` keeps a pivot table incrementally so repeated queries
against the same vector set are amortized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError

__all__ = ["PartVector", "Gf2Basis", "rank", "in_span", "pivot_insert", "pivot_reduce"]


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

    def __xor__(self, other: PartVector) -> PartVector:
        if self.length != other.length:
            raise DimensionError(f"length mismatch: {self.length} != {other.length}")
        return PartVector(self.length, self.bits ^ other.bits)

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

    def is_zero(self) -> bool:
        return self.bits == 0

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


class Gf2Basis:
    """Incrementally maintained elimination basis for one fixed vector length."""

    __slots__ = ("length", "pivots")

    def __init__(self, length: int):
        if length < 1:
            raise DimensionError(f"vector length must be >= 1, got {length}")
        self.length = length
        self.pivots: dict[int, int] = {}

    @classmethod
    def from_vectors(cls, vectors: Sequence[PartVector]) -> Gf2Basis:
        basis = cls(vectors[0].length)
        for v in vectors:
            basis.add(v)
        return basis

    def _check(self, v: PartVector) -> None:
        if v.length != self.length:
            raise DimensionError(f"length mismatch: {v.length} != {self.length}")

    def add(self, v: PartVector) -> bool:
        """Insert a vector; True iff it was independent of the basis so far."""
        self._check(v)
        return pivot_insert(self.pivots, v.bits)

    def contains(self, v: PartVector) -> bool:
        self._check(v)
        return pivot_reduce(self.pivots, v.bits) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> Gf2Basis:
        dup = Gf2Basis(self.length)
        dup.pivots = dict(self.pivots)
        return dup


def _common_length(vectors: Sequence[PartVector]) -> int | None:
    length = None
    for v in vectors:
        if length is None:
            length = v.length
        elif v.length != length:
            raise DimensionError(f"length mismatch: {v.length} != {length}")
    return length


def rank(vectors: Sequence[PartVector]) -> int:
    """GF(2) rank of a vector set; rank([]) == 0."""
    if _common_length(vectors) is None:
        return 0
    return Gf2Basis.from_vectors(vectors).rank


def in_span(vectors: Sequence[PartVector], target: PartVector) -> bool:
    """True iff `target` is a GF(2) combination of `vectors` (empty span is {0})."""
    length = _common_length(vectors)
    if length is not None and target.length != length:
        raise DimensionError(f"length mismatch: {target.length} != {length}")
    if not vectors:
        return target.is_zero()
    return Gf2Basis.from_vectors(vectors).contains(target)
