"""Generators for the five code families and the xi multiplicity solver.

Families (s = p/t throughout, theta = lcm(d, t)):

  c1       1 < s <= 2, s = 1 + d/t.  Type A stores t singletons, every
           t-subset theta/d times; Type B stores t-1 singletons plus the sum
           of the remaining d+1 parts, every (t-1)-subset theta/t times.
  c2       s = 1 + 1/t, t odd: t+1 all-singleton servers (one part omitted
           each) plus (t+1)/2 servers whose j-th stores x_{2j-1} + x_{2j}.
  c3       s = 1 + 1/t, t even: every t-subset twice, plus t+1 servers whose
           j-th stores x_j + x_{j+1} (indices wrapping past t+1 to 1).
  integer  integer s >= 2: types T_1..T_s; T_1 all-singleton with every
           t-subset xi_1 times, T_r (r >= 2) stores t-1 singletons plus a
           sum of (r-1)t+1 of the remaining parts, xi_r times each.
  general  non-integer s > 2: as `integer` up to T_{ceil(s)-1}; the final
           type stores t-1 singletons plus the sum of all p-t+1 remaining
           parts, xi_{ceil(s)} times per (t-1)-subset.

The xi multiplicities balance the per-part pairing graphs so that servers
without the singleton x_i pair up perfectly; `solve_xi` returns the unique
gcd-reduced positive solution of the family's balance equations.

Counts are always evaluated symbolically before any cells are materialized;
every builder refuses a code wider than `max_columns` with `CapExceeded`
carrying the computed m.  A builder emits each column as a tuple of int
cells (bit i-1 <-> x_i) in canonical order; the copies of a repeated column
share one tuple, and the columns of one build share one int per distinct
cell (Python caches no int above 256, so p > 8 would otherwise leave a copy
of a cell in every column that holds it).

One registry, keyed by the names in `FAMILIES`, holds each family's extra
parameter (d, s or none), how s follows, its (m, k) counts and its builder;
`ConstructionParams` and the command line reach the families only through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import CapExceeded, ParameterError
from .model import ArrayCode

__all__ = [
    "DEFAULT_MAX_COLUMNS",
    "FAMILIES",
    "ConstructionParams",
    "solve_xi",
    "build_c1",
    "build_c2",
    "build_c3",
    "build_integer_s",
    "build_general_s",
    "c1_counts",
    "c2_counts",
    "c3_counts",
    "integer_s_counts",
    "general_s_counts",
]

DEFAULT_MAX_COLUMNS = 10**6


def _comb(n: int, k: int) -> int:
    # math.comb rejects negative k; the counting convention here is 0
    return comb(n, k) if k >= 0 else 0


def _part_count(s: Fraction, t: int) -> int:
    p = s * t
    if p.denominator != 1:
        raise ParameterError(f"p = s*t = {p} is not an integer")
    return p.numerator


def _check_cap(m: int, max_columns: int) -> None:
    if m > max_columns:
        raise CapExceeded(
            f"code would have m={m} columns, beyond the cap of {max_columns}; "
            "counts and rates are still available symbolically",
            columns=m,
        )


def _chain_solution(sigmas: Sequence[int], rhos: Sequence[int]) -> tuple[int, ...]:
    """Smallest positive solution of sigma_r xi_r = rho_r xi_{r+1}, r = 1..q-1."""
    q = len(sigmas) + 1
    values = []
    for r in range(1, q + 1):
        value = 1
        for j in range(r - 1):
            value *= sigmas[j]
        for j in range(r - 1, q - 1):
            value *= rhos[j]
        values.append(value)
    if any(v <= 0 for v in values):
        raise ParameterError("balance equations have no positive solution")
    shrink = 0
    for v in values:
        shrink = gcd(shrink, v)
    return tuple(v // shrink for v in values)


def solve_xi(s: Fraction | int, t: int) -> tuple[int, ...]:
    """Gcd-reduced positive multiplicities xi_1..xi_ceil(s) for the s,t balance equations."""
    s = Fraction(s)
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    p = _part_count(s, t)
    if s.denominator == 1:
        sv = s.numerator
        if sv < 2:
            raise ParameterError(f"integer s must be >= 2, got {sv}")
        sigmas = [sv - 1] + [comb(p - t, (r - 1) * t + 1) for r in range(2, sv)]
        rhos = [comb(p - t, r * t) for r in range(1, sv)]
        return _chain_solution(sigmas, rhos)
    if s <= 2:
        raise ParameterError(f"non-integer s must be > 2, got {s}")
    q = -((-s.numerator) // s.denominator)  # ceil(s)
    sigmas = [p - t] + [comb(p - t, (r - 1) * t + 1) for r in range(2, q)]
    rhos = [t * comb(p - t, t)] + [comb(p - t, r * t) for r in range(2, q - 1)] + [1]
    return _chain_solution(sigmas, rhos)


def check_xi(s: Fraction | int, t: int, xi: Sequence[int]) -> None:
    """Raise ParameterError unless xi is a positive solution of the balance equations.

    The interior equation is applied for 2 <= r <= ceil(s)-2 in the
    non-integer case; at r = ceil(s)-1 its right side is the always-zero
    binomial, so that boundary is governed by the closing equation instead.
    """
    s = Fraction(s)
    p = _part_count(s, t)
    if any(x <= 0 for x in xi):
        raise ParameterError("xi values must be positive")
    if s.denominator == 1:
        sv = s.numerator
        if len(xi) != sv:
            raise ParameterError(f"expected {sv} xi values, got {len(xi)}")
        if (sv - 1) * xi[0] != comb(p - t, t) * xi[1]:
            raise ParameterError("xi violates the leading balance equation")
        for r in range(2, sv):
            if comb(p - t, (r - 1) * t + 1) * xi[r - 1] != comb(p - t, r * t) * xi[r]:
                raise ParameterError(f"xi violates the interior balance equation at r={r}")
        return
    q = -((-s.numerator) // s.denominator)
    if len(xi) != q:
        raise ParameterError(f"expected {q} xi values, got {len(xi)}")
    if (p - t) * xi[0] != t * comb(p - t, t) * xi[1]:
        raise ParameterError("xi violates the leading balance equation")
    for r in range(2, q - 1):
        if comb(p - t, (r - 1) * t + 1) * xi[r - 1] != comb(p - t, r * t) * xi[r]:
            raise ParameterError(f"xi violates the interior balance equation at r={r}")
    if xi[q - 2] * comb(p - t, (q - 2) * t + 1) != xi[q - 1]:
        raise ParameterError("xi violates the closing balance equation")


# ---------------------------------------------------------------------------
# symbolic counts


def _c1_ranges(t: int, d: int) -> int:
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    if not 1 <= d <= t:
        raise ParameterError(f"need 1 <= d <= t, got d={d} t={t}")
    return lcm(d, t)


def c1_counts(t: int, d: int) -> tuple[int, int]:
    """(m, k) for the c1 family: m = C(p,t)theta/d + C(p,t-1)theta/t, k = m - C(p-1,t)theta/d."""
    theta = _c1_ranges(t, d)
    p = t + d
    m = comb(p, t) * theta // d + comb(p, t - 1) * theta // t
    k = m - comb(p - 1, t) * theta // d
    return m, k


def c2_counts(t: int) -> tuple[int, int]:
    """(m, k) = ((3t+3)/2, (3t+1)/2) for odd t >= 3."""
    if t < 3 or t % 2 == 0:
        raise ParameterError(f"c2 needs odd t >= 3, got {t}")
    return (3 * t + 3) // 2, (3 * t + 1) // 2


def c3_counts(t: int) -> tuple[int, int]:
    """(m, k) = (3t+3, 3t+1) for even t >= 2."""
    if t < 2 or t % 2 == 1:
        raise ParameterError(f"c3 needs even t >= 2, got {t}")
    return 3 * t + 3, 3 * t + 1


def integer_s_counts(
    s: Fraction | int, t: int, xi: Sequence[int] | None = None
) -> tuple[int, int, int, int]:
    """(m, b, c, k) for integer s: b singleton holders per part, c matched pairs, k = b + c."""
    s = Fraction(s)
    if s.denominator != 1 or s.numerator < 2:
        raise ParameterError(f"integer-s family needs integer s >= 2, got {s}")
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    sv = s.numerator
    p = sv * t
    if xi is None:
        xi = solve_xi(s, t)
    else:
        check_xi(s, t, xi)
    m = xi[0] * comb(p, t) + sum(
        xi[r - 1] * comb(p, t - 1) * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, sv + 1)
    )
    b = xi[0] * comb(p - 1, t - 1) + sum(
        xi[r - 1] * _comb(p - 1, t - 2) * comb(p - t + 1, (r - 1) * t + 1)
        for r in range(2, sv + 1)
    )
    c = sum(xi[r] * comb(p - 1, t - 1) * comb(p - t, r * t) for r in range(1, sv))
    if m != b + 2 * c:
        raise ParameterError("xi does not balance the pairing graphs (m != b + 2c)")
    return m, b, c, b + c


def general_s_counts(
    s: Fraction | int, t: int, xi: Sequence[int] | None = None
) -> tuple[int, int, int, int]:
    """(m, b, c, k) for non-integer s > 2, with the closing all-remaining-parts type."""
    s = Fraction(s)
    if s.denominator == 1 or s <= 2:
        raise ParameterError(f"general-s family needs non-integer s > 2, got {s}")
    if t < 2:
        raise ParameterError(f"need t >= 2, got {t}")
    p = _part_count(s, t)
    q = -((-s.numerator) // s.denominator)
    if xi is None:
        xi = solve_xi(s, t)
    else:
        check_xi(s, t, xi)
    m = (
        xi[0] * comb(p, t)
        + sum(xi[r - 1] * comb(p, t - 1) * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q))
        + xi[q - 1] * comb(p, t - 1)
    )
    b = (
        xi[0] * comb(p - 1, t - 1)
        + sum(
            xi[r - 1] * _comb(p - 1, t - 2) * comb(p - t + 1, (r - 1) * t + 1)
            for r in range(2, q)
        )
        + xi[q - 1] * _comb(p - 1, t - 2)
    )
    if (m - b) % 2 != 0:
        raise ParameterError("xi does not balance the pairing graphs (m - b is odd)")
    c = (m - b) // 2
    return m, b, c, b + c


# ---------------------------------------------------------------------------
# materialization


class _Cells(NamedTuple):
    """The cells one build shares among its columns: part i's singleton at
    `unit[i]`, and each summed cell made so far in `sums`, mapped to itself."""

    unit: list[int]
    sums: dict[int, int]


def _cells(p: int) -> _Cells:
    return _Cells([0] + [1 << i for i in range(p)], {})


def block(
    specs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]], cells: _Cells, mult: int = 1
) -> list[tuple[int, ...]]:
    """One type block in canonical column order, each column `mult` times.

    A spec is (singleton parts, summed parts), both ascending tuples; the
    summed parts are empty for an all-singleton type.  Within one type,
    comparing specs orders columns as comparing their canonical cells does,
    so the sort needs no cells.  A builder passes the same `cells` to all
    its blocks.
    """
    unit = cells.unit.__getitem__
    sums = cells.sums
    out: list[tuple[int, ...]] = []
    for singles, summands in sorted(specs):
        col = tuple(map(unit, singles))
        if summands:
            cell = sum(map(unit, summands))
            col += (sums.setdefault(cell, cell),)
        out.extend([col] * mult)
    return out


def build_c1(t: int, d: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> ArrayCode:
    """Materialize the c1 family for s = 1 + d/t; Type A columns first, then Type B."""
    theta = _c1_ranges(t, d)
    p = t + d
    m, _ = c1_counts(t, d)
    _check_cap(m, max_columns)
    parts = range(1, p + 1)
    cells = _cells(p)
    type_a = block(((subset, ()) for subset in combinations(parts, t)), cells, theta // d)
    type_b = block(
        (
            (subset, tuple(i for i in parts if i not in subset))
            for subset in combinations(parts, t - 1)
        ),
        cells,
        theta // t,
    )
    return ArrayCode.from_columns(p, type_a + type_b)


def build_c2(t: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> ArrayCode:
    """Materialize the small-server odd-t family (m = (3t+3)/2)."""
    m, _ = c2_counts(t)
    _check_cap(m, max_columns)
    p = t + 1
    parts = range(1, p + 1)
    cells = _cells(p)
    type_a = block(((subset, ()) for subset in combinations(parts, t)), cells)
    pairs = [(2 * j - 1, 2 * j) for j in range(1, (t + 1) // 2 + 1)]
    type_b = block(((tuple(i for i in parts if i not in pair), pair) for pair in pairs), cells)
    return ArrayCode.from_columns(p, type_a + type_b)


def build_c3(t: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> ArrayCode:
    """Materialize the small-server even-t family (m = 3t+3); every t-subset appears twice."""
    m, _ = c3_counts(t)
    _check_cap(m, max_columns)
    p = t + 1
    parts = range(1, p + 1)
    cells = _cells(p)
    type_a = block(((subset, ()) for subset in combinations(parts, t)), cells, 2)
    # server j sums x_j + x_{j+1}, wrapping past p to x_1
    pairs = [(j, j + 1) for j in range(1, p)] + [(1, p)]
    type_b = block(((tuple(i for i in parts if i not in pair), pair) for pair in pairs), cells)
    return ArrayCode.from_columns(p, type_a + type_b)


def _build_type_blocks(
    p: int, t: int, xi: Sequence[int], sum_sizes: list[int | None]
) -> list[tuple[int, ...]]:
    """Type blocks in order: entry r of sum_sizes is None for the all-singleton
    type, the summand count for interior types, or -1 for the closing
    all-remaining-parts type."""
    parts = range(1, p + 1)
    out: list[tuple[int, ...]] = []
    cells = _cells(p)
    for r, size in enumerate(sum_sizes, start=1):
        if size is None:
            specs = ((subset, ()) for subset in combinations(parts, t))
        elif size == -1:
            specs = (
                (subset, tuple(i for i in parts if i not in subset))
                for subset in combinations(parts, t - 1)
            )
        else:
            specs = (
                (subset, summands)
                for subset in combinations(parts, t - 1)
                for summands in combinations([i for i in parts if i not in subset], size)
            )
        out += block(specs, cells, xi[r - 1])
    return out


def build_integer_s(
    s: Fraction | int,
    t: int,
    xi: Sequence[int] | None = None,
    max_columns: int = DEFAULT_MAX_COLUMNS,
) -> ArrayCode:
    """Materialize the integer-s family; types T_1..T_s in order."""
    s = Fraction(s)
    m, _, _, _ = integer_s_counts(s, t, xi)
    if xi is None:
        xi = solve_xi(s, t)
    _check_cap(m, max_columns)
    sv = s.numerator
    p = sv * t
    sizes: list[int | None] = [None] + [(r - 1) * t + 1 for r in range(2, sv + 1)]
    return ArrayCode.from_columns(p, _build_type_blocks(p, t, xi, sizes))


def build_general_s(
    s: Fraction | int,
    t: int,
    xi: Sequence[int] | None = None,
    max_columns: int = DEFAULT_MAX_COLUMNS,
) -> ArrayCode:
    """Materialize the general (non-integer s > 2) family; the last type sums all remaining parts."""
    s = Fraction(s)
    m, _, _, _ = general_s_counts(s, t, xi)
    if xi is None:
        xi = solve_xi(s, t)
    _check_cap(m, max_columns)
    p = _part_count(s, t)
    q = -((-s.numerator) // s.denominator)
    sizes: list[int | None] = [None] + [(r - 1) * t + 1 for r in range(2, q)] + [-1]
    return ArrayCode.from_columns(p, _build_type_blocks(p, t, xi, sizes))


class _Family(NamedTuple):
    """A registry entry.  Each callable takes the ConstructionParams and names
    this module's function at call time, so a wrapper installed on the
    module (a tracer's, say) is reached through the registry too."""

    extra: str | None  # the parameter besides t: "d", "s" or none
    s_of: Callable[[ConstructionParams], Fraction]
    counts: Callable[[ConstructionParams], tuple[int, ...]]  # m first, k last
    build: Callable[[ConstructionParams], ArrayCode]


_REGISTRY: dict[str, _Family] = {
    "c1": _Family("d", lambda c: Fraction(c.t + c.d, c.t), lambda c: c1_counts(c.t, c.d),
                  lambda c: build_c1(c.t, c.d, c.max_columns)),
    "c2": _Family(None, lambda c: Fraction(c.t + 1, c.t), lambda c: c2_counts(c.t),
                  lambda c: build_c2(c.t, c.max_columns)),
    "c3": _Family(None, lambda c: Fraction(c.t + 1, c.t), lambda c: c3_counts(c.t),
                  lambda c: build_c3(c.t, c.max_columns)),
    "integer": _Family("s", lambda c: Fraction(c.s), lambda c: integer_s_counts(c.s, c.t),
                       lambda c: build_integer_s(c.s, c.t, max_columns=c.max_columns)),
    "general": _Family("s", lambda c: Fraction(c.s), lambda c: general_s_counts(c.s, c.t),
                       lambda c: build_general_s(c.s, c.t, max_columns=c.max_columns)),
}

FAMILIES = tuple(_REGISTRY)


@dataclass(frozen=True)
class ConstructionParams:
    """Validated parameters for one family; `build` materializes the code.

    `s` is derived for c1, c2 and c3; `d` is kept for c1 only."""

    family: str
    t: int
    d: int | None = None
    s: Fraction | None = None
    max_columns: int = DEFAULT_MAX_COLUMNS

    def __post_init__(self) -> None:
        family = _REGISTRY.get(self.family)
        if family is None:
            raise ParameterError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if family.extra is not None and getattr(self, family.extra) is None:
            raise ParameterError(f"{self.family} needs {family.extra}")
        family.counts(self)  # raises on parameters outside the family's range
        if family.extra != "d":
            object.__setattr__(self, "d", None)
        object.__setattr__(self, "s", family.s_of(self))

    def predicted_counts(self) -> tuple[int, int]:
        """(m, k) computed symbolically, without materializing anything."""
        counts = _REGISTRY[self.family].counts(self)
        return counts[0], counts[-1]

    def build(self) -> ArrayCode:
        return _REGISTRY[self.family].build(self)
