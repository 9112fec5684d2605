"""Generators for the five code families and the xi multiplicity solver.

Families (s = p/t throughout, theta = lcm(d, t)):

  c1       1 < s <= 2, s = 1 + d/t.  Type A stores t singletons, every
           t-subset theta/d times; Type B stores t-1 singletons plus the sum
           of the remaining d+1 parts, every (t-1)-subset theta/t times.
  c2       s = 1 + 1/t, t odd: t+1 all-singleton servers (one part omitted
           each) plus (t+1)/2 servers whose j-th stores x_{2j-1} + x_{2j}.
  c3       s = 1 + 1/t, t even: every t-subset twice, plus t+1 servers whose
           j-th stores x_j + x_{j+1} (indices wrapping past t+1 to 1).
  integer  integer s >= 2, and
  general  non-integer s > 2: one ladder of types T_1..T_q, q = ceil(s).
           T_1 stores t singletons, every t-subset xi_1 times.  T_r
           (2 <= r < q) stores t-1 singletons plus a sum of (r-1)t+1 of the
           remaining parts, xi_r times each; the closing type T_q stores
           t-1 singletons plus the sum of all p-t+1 remaining parts, xi_q
           times per (t-1)-subset.  For integer s, (s-1)t+1 = p-t+1, so T_s
           is already the closing type.  c1 is the same ladder with q = 2
           and xi = (theta/d, theta/t).

The xi multiplicities balance the per-part pairing graphs so that servers
without the singleton x_i pair up perfectly; `solve_xi` returns the unique
gcd-reduced positive solution of the balance equations, and the integer and
general families always use it.

Every family's counts are (m, k), evaluated symbolically before any cells
are materialized; every builder refuses a code wider than `max_columns` with
`CapExceeded` carrying the computed m.  A builder emits each column as a
tuple of int cells (bit i-1 <-> x_i) in canonical order; the copies of a
repeated column share one tuple, and the columns of one build share one int
per distinct cell (Python caches no int above 256, so p > 8 would otherwise
leave a copy of a cell in every column that holds it).

One registry, keyed by the names in `FAMILIES`, holds each family's extra
parameter (d, s or none), how s follows, its (m, k) counts and its builder;
`ConstructionParams` and the command line reach the families only through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, gcd, lcm
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


def _sum_sizes(p: int, t: int, q: int) -> list[int]:
    """Summand counts of types T_2..T_q; the closing type T_q sums all the
    p-t+1 parts its t-1 singletons leave."""
    return [(r - 1) * t + 1 for r in range(2, q)] + [p - t + 1]


def _balance(p: int, t: int, q: int) -> list[tuple[int, int]]:
    """(sigma_r, rho_r) of the balance equations sigma_r xi_r = rho_r xi_{r+1}, r = 1..q-1.

    Level r of part i's pairing graph matches the type-r columns that leave
    x_i out with the type-(r+1) columns that hold x_i in their sum; the two
    sides have sigma_r xi_r and rho_r xi_{r+1} columns, times C(p-1,t-1)/t
    at r = 1 and C(p-1,t-1) above.
    """
    sizes = _sum_sizes(p, t, q)
    sigmas = [p - t] + [comb(p - t, a) for a in sizes[:-1]]
    rhos = [comb(p - t, a - 1) for a in sizes]
    rhos[0] *= t
    return list(zip(sigmas, rhos))


def _chain_solution(equations: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Smallest positive solution of sigma_r xi_r = rho_r xi_{r+1}, r = 1..q-1.

    xi_{r+1} = xi_r sigma_r / rho_r is stepped in lowest terms from xi_1 = 1,
    then scaled by the lcm of the denominators and divided by the gcd, so
    the numbers stay the size of xi rather than of the products of all
    sigma_r and rho_r.
    """
    if any(sigma <= 0 or rho <= 0 for sigma, rho in equations):
        raise ParameterError("balance equations have no positive solution")
    ratios = [Fraction(1)]
    for sigma, rho in equations:
        ratios.append(ratios[-1] * sigma / rho)
    scale = lcm(*(r.denominator for r in ratios))
    values = [r.numerator * (scale // r.denominator) for r in ratios]
    shrink = gcd(*values)
    return tuple(v // shrink for v in values)


def _needs(integer: bool) -> str:
    return "integer-s family needs integer s >= 2" if integer else "general-s family needs non-integer s > 2"


def solve_xi(s: Fraction | int, t: int) -> tuple[int, ...]:
    """Gcd-reduced positive multiplicities xi_1..xi_ceil(s) of the integer-s
    (integer s >= 2, t >= 1) or the general-s (non-integer s > 2, t >= 2)
    family, whichever s belongs to."""
    s = Fraction(s)
    integer = s.denominator == 1
    if s < 2:  # a non-integer s cannot equal 2
        raise ParameterError(f"{_needs(integer)}, got {s}")
    low = 1 if integer else 2
    if t < low:
        raise ParameterError(f"need t >= {low}, got {t}")
    return _chain_solution(_balance(_part_count(s, t), t, ceil(s)))


def _ladder(s: Fraction | int, t: int, integer: bool) -> tuple[int, int, tuple[int, ...]]:
    """(p, t, xi) of the integer-s or the general-s family's ladder; s must
    belong to that family, and `solve_xi` checks the rest of its domain."""
    s = Fraction(s)
    if (s.denominator == 1) != integer:
        raise ParameterError(f"{_needs(integer)}, got {s}")
    xi = solve_xi(s, t)
    return (s * t).numerator, t, xi  # solve_xi found s*t integral


def _c1_ladder(t: int, d: int) -> tuple[int, int, tuple[int, int]]:
    """(p, t, xi) of c1 as the two-type ladder, xi = (theta/d, theta/t)."""
    if t < 1:
        raise ParameterError(f"c1 needs t >= 1, got {t}")
    if not 1 <= d <= t:
        raise ParameterError(f"c1 needs 1 <= d <= t, got d={d} t={t}")
    theta = lcm(d, t)
    return t + d, t, (theta // d, theta // t)


# ---------------------------------------------------------------------------
# symbolic counts


def _ladder_counts(p: int, t: int, xi: Sequence[int]) -> tuple[int, int]:
    """(m, k).  A part's b singleton holders serve it alone, and once xi
    balances its pairing graphs the other m - b columns pair up perfectly,
    so k = b + (m - b)/2."""
    # sum-type columns per (t-1)-subset of singletons
    per_subset = sum(x * comb(p - t + 1, a) for x, a in zip(xi[1:], _sum_sizes(p, t, len(xi))))
    m = xi[0] * comb(p, t) + comb(p, t - 1) * per_subset
    b = xi[0] * comb(p - 1, t - 1) + (comb(p - 1, t - 2) if t >= 2 else 0) * per_subset
    return m, (m + b) // 2


def c1_counts(t: int, d: int) -> tuple[int, int]:
    """(m, k) for the c1 family: m = C(p,t)theta/d + C(p,t-1)theta/t, k = m - C(p-1,t)theta/d."""
    return _ladder_counts(*_c1_ladder(t, d))


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


def integer_s_counts(s: Fraction | int, t: int) -> tuple[int, int]:
    """(m, k) for integer s >= 2."""
    return _ladder_counts(*_ladder(s, t, integer=True))


def general_s_counts(s: Fraction | int, t: int) -> tuple[int, int]:
    """(m, k) for non-integer s > 2, with the closing all-remaining-parts type."""
    return _ladder_counts(*_ladder(s, t, integer=False))


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


def _build_ladder(p: int, t: int, xi: Sequence[int], max_columns: int) -> ArrayCode:
    """The ladder's type blocks T_1..T_q in order, T_r's columns xi_r times each."""
    _check_cap(_ladder_counts(p, t, xi)[0], max_columns)
    parts = range(1, p + 1)
    cells = _cells(p)
    columns = block(((subset, ()) for subset in combinations(parts, t)), cells, xi[0])
    for mult, size in zip(xi[1:], _sum_sizes(p, t, len(xi))):
        specs = (
            (subset, summands)
            for subset in combinations(parts, t - 1)
            for summands in combinations([i for i in parts if i not in subset], size)
        )
        columns += block(specs, cells, mult)
    return ArrayCode.from_columns(p, columns)


def build_c1(t: int, d: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> ArrayCode:
    """Materialize the c1 family for s = 1 + d/t; Type A columns first, then Type B."""
    return _build_ladder(*_c1_ladder(t, d), max_columns)


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


def build_integer_s(s: Fraction | int, t: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> ArrayCode:
    """Materialize the integer-s family; types T_1..T_s in order."""
    return _build_ladder(*_ladder(s, t, integer=True), max_columns)


def build_general_s(s: Fraction | int, t: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> ArrayCode:
    """Materialize the general (non-integer s > 2) family; the last type sums all remaining parts."""
    return _build_ladder(*_ladder(s, t, integer=False), max_columns)


class _Family(NamedTuple):
    """A registry entry.  Each callable takes the ConstructionParams and names
    this module's function at call time, so a wrapper installed on the
    module (a tracer's, say) is reached through the registry too.  The
    integer and general families solve their ladder once, into the params'
    `ladder`, and count and build from it."""

    extra: str | None  # the parameter besides t: "d", "s" or none
    s_of: Callable[[ConstructionParams], Fraction]
    ladder: Callable[[ConstructionParams], tuple[int, int, tuple[int, ...]]] | None
    counts: Callable[[ConstructionParams], tuple[int, int]]  # (m, k)
    build: Callable[[ConstructionParams], ArrayCode]


_REGISTRY: dict[str, _Family] = {
    "c1": _Family("d", lambda c: Fraction(c.t + c.d, c.t), None, lambda c: c1_counts(c.t, c.d),
                  lambda c: build_c1(c.t, c.d, c.max_columns)),
    "c2": _Family(None, lambda c: Fraction(c.t + 1, c.t), None, lambda c: c2_counts(c.t),
                  lambda c: build_c2(c.t, c.max_columns)),
    "c3": _Family(None, lambda c: Fraction(c.t + 1, c.t), None, lambda c: c3_counts(c.t),
                  lambda c: build_c3(c.t, c.max_columns)),
    "integer": _Family("s", lambda c: Fraction(c.s), lambda c: _ladder(c.s, c.t, integer=True),
                       lambda c: _ladder_counts(*c.ladder), lambda c: _build_ladder(*c.ladder, c.max_columns)),
    "general": _Family("s", lambda c: Fraction(c.s), lambda c: _ladder(c.s, c.t, integer=False),
                       lambda c: _ladder_counts(*c.ladder), lambda c: _build_ladder(*c.ladder, c.max_columns)),
}

FAMILIES = tuple(_REGISTRY)


@dataclass(frozen=True)
class ConstructionParams:
    """Validated parameters for one family; `build` materializes the code.

    `s` is derived for c1, c2 and c3; `d` is kept for c1 only.  The family's
    counts are evaluated once, on construction, which also checks that the
    parameters lie in the family's range.  The integer and general
    families' (p, t, xi) is solved then too, kept as `ladder` (None for
    the other families), and `build` reuses it."""

    family: str
    t: int
    d: int | None = None
    s: Fraction | None = None
    max_columns: int = DEFAULT_MAX_COLUMNS
    counts: tuple[int, int] = field(init=False, compare=False, repr=False)
    ladder: tuple[int, int, tuple[int, ...]] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        family = _REGISTRY.get(self.family)
        if family is None:
            raise ParameterError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if family.extra is not None and getattr(self, family.extra) is None:
            raise ParameterError(f"{self.family} needs {family.extra}")
        object.__setattr__(self, "ladder", None if family.ladder is None else family.ladder(self))
        object.__setattr__(self, "counts", family.counts(self))
        if family.extra != "d":
            object.__setattr__(self, "d", None)
        object.__setattr__(self, "s", family.s_of(self))

    def predicted_counts(self) -> tuple[int, int]:
        """(m, k) computed symbolically, without materializing anything."""
        return self.counts

    def build(self) -> ArrayCode:
        return _REGISTRY[self.family].build(self)
