"""Exact GF(2) linear algebra on bit-packed coefficient vectors.

A length-p vector is stored as a Python int: bit i-1 is the coefficient of
part x_i, and `parts_of` lists the parts of a vector.  `pivot_insert` and
`pivot_reduce` are the one elimination kernel: a pivot table maps a row's
highest set bit to the row, the rank of the inserted vectors is the
table's size, and a vector lies in their span iff it reduces to 0.
"""

from __future__ import annotations

__all__ = ["parts_of", "pivot_insert", "pivot_reduce"]


def parts_of(bits: int) -> tuple[int, ...]:
    """1-based indices of the parts with coefficient 1 in `bits`, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


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
