"""Exact GF(2) linear algebra on bit-packed coefficient vectors.

A length-p vector is stored as a Python int: bit i-1 is the coefficient of
part x_i, and `parts_of` lists the parts of a vector.  `pivot_insert` and
`pivot_reduce` are the elimination kernel of the primal: a pivot table maps
a row's highest set bit to the row, the rank of the inserted vectors is the
table's size, and a vector lies in their span iff it reduces to 0.

`orthogonal_cut`, its dual, is used only by exhaustive mode's enumeration:
it keeps a basis of a span's parity checks over the n coordinates in play,
so the rank is n minus its size, and a vector lies in the span iff it is
orthogonal to every check (e_i iff no check has bit i).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["orthogonal_cut", "parts_of", "pivot_insert", "pivot_reduce"]


# the 1-based bit positions set in each byte value
_BYTE_PARTS = tuple(tuple(i + 1 for i in range(8) if byte >> i & 1) for byte in range(256))


def parts_of(bits: int) -> tuple[int, ...]:
    """1-based indices of the parts with coefficient 1 in `bits`, ascending.

    Taking the lowest part out of an int copies the int, so a walk part by
    part costs the int's width for each part.  A vector of more than 64
    parts is walked byte by byte instead, over one `to_bytes` copy and a
    table of each byte's parts, in time linear in its width.  Up to about
    64 parts the walk part by part is the faster one, at any width.
    """
    if bits.bit_count() > 64:
        out: list[int] = []
        for base, byte in enumerate(bits.to_bytes((bits.bit_length() + 7) // 8, "little")):
            if byte:
                out += map((base * 8).__add__, _BYTE_PARTS[byte])
        return tuple(out)
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


def orthogonal_cut(dual: Iterable[int], cell: int) -> list[int] | None:
    """The checks of the basis `dual` that are orthogonal to `cell`, as a
    basis: the first check w with odd overlap is XORed into the other odd
    ones and dropped.  None when every check already is (no rank gain)."""
    out = []
    first = 0
    for check in dual:
        if (check & cell).bit_count() & 1:
            if first:
                out.append(check ^ first)
            else:
                first = check
        else:
            out.append(check)
    return out if first else None
