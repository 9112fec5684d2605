"""k-PIR verification: exhaustive set packing, singleton+pair matching, plan checks.

Exhaustive mode is exact but limited to small column counts: per part it
enumerates the inclusion-minimal recovery sets and solves the disjoint
packing problem by memoized search over column bitmasks.  Pair mode counts
singleton holders plus a maximum matching on the pair graph of the remaining
columns; that is exact whenever optimal recovery sets have size at most two
(true for every family this package generates) and a valid lower bound
otherwise.

Pair mode finds its edges one of two ways, whichever a size estimate says
is cheaper for the code.  The span index: for columns U, V that do not span e_i
alone, e_i lies in span(U)+span(V) iff some x in span(U) has x ^ e_i in
span(V).  The index maps each nonzero vector to the columns whose span
holds it, built from every column's 2^t - 1 span elements once per code;
the pairs of part i are then read off the index entries of x and x ^ e_i.
Its cost is O(p*m*2^t) index work plus, for every edge {U,V}, one visit per
element of span(U) & span(V) (at most 2^(t-1)); the index holds about
m*2^t entries for all parts together.  The pair scan eliminates each of
the sum_i C(m - alpha_i, 2) pairs of columns that do not hold part i alone,
in O(m) memory.  The index is used when its m*(2^t - 1) entries number no
more than those candidate pairs and no more than PAIRS_SPAN_CAP; many
columns with small t (integer(3,3), c1(8,8)) take the index, few columns
with large t (c2, c3) the scan.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

from .errors import CapExceeded
from .gf2 import Gf2Basis, pivot_insert, pivot_reduce
from .matching import PairGraph, max_general_matching
from .model import ArrayCode, RecoveryPlan, singleton_census

__all__ = [
    "EXHAUSTIVE_CAP",
    "PAIRS_SPAN_CAP",
    "VerifyReport",
    "PlanCheck",
    "k_pir_exhaustive",
    "k_pir_pairs",
    "verify_plan",
    "singleton_upper_bound",
]

EXHAUSTIVE_CAP = 14
# Pair mode builds its span index only up to this many entries (m * (2^t - 1))
# and scans column pairs past it, so that a large input cannot exhaust memory.
PAIRS_SPAN_CAP = 1 << 23


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run; `per_part[i-1]` is k_i for part i."""

    mode: str
    m: int
    k: int
    per_part: tuple[int, ...]
    plan: RecoveryPlan
    singleton_bound: Fraction
    exact: bool
    scope: str

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.m)


class PlanCheck(NamedTuple):
    ok: bool
    violation: str | None


def singleton_upper_bound(code: ArrayCode) -> Fraction:
    """min over parts of alpha_u + (m - alpha_u)/2; any achievable k is <= its floor."""
    alpha = singleton_census(code)
    return min(Fraction(a) + Fraction(code.m - a, 2) for a in alpha)


def _column_pivots(code: ArrayCode) -> list[dict[int, int]]:
    out = []
    for col in code.columns:
        basis = Gf2Basis(code.p)
        for cell in col:
            basis.add(cell)
        out.append(basis.pivots)
    return out


def _singleton_columns(code: ArrayCode) -> list[set[int]]:
    """For each part index (0-based), the 0-based columns storing it as a singleton."""
    holders: list[set[int]] = [set() for _ in range(code.p)]
    for j, col in enumerate(code.columns):
        for cell in col:
            part = cell.singleton_part()
            if part is not None:
                holders[part - 1].add(j)
    return holders


def verify_plan(code: ArrayCode, plan: RecoveryPlan) -> PlanCheck:
    """Check every set spans its part and per-part sets are pairwise disjoint."""
    for part in plan.parts():
        if not 1 <= part <= code.p:
            return PlanCheck(False, f"part {part} out of range 1..{code.p}")
        target = 1 << (part - 1)
        used: set[int] = set()
        for columns in plan.sets(part):
            for j in columns:
                if not 1 <= j <= code.m:
                    return PlanCheck(False, f"part {part}: column {j} out of range 1..{code.m}")
            overlap = used & columns
            if overlap:
                return PlanCheck(
                    False,
                    f"part {part}: column {min(overlap)} appears in two recovery sets",
                )
            used |= columns
            pivots: dict[int, int] = {}
            for j in columns:
                for cell in code.columns[j - 1]:
                    pivot_insert(pivots, cell.bits)
            if pivot_reduce(pivots, target) != 0:
                label = "{" + ",".join(str(c) for c in sorted(columns)) + "}"
                return PlanCheck(False, f"part {part}: columns {label} do not span it")
    return PlanCheck(True, None)


def _span_index(code: ArrayCode) -> dict[int, list[int]]:
    """Every nonzero vector of some column's span -> the 1-based columns whose span holds it."""
    index: defaultdict[int, list[int]] = defaultdict(list)
    for j, col in enumerate(code.columns, start=1):
        span = [0]
        for cell in col:
            bits = cell.bits
            span += [x ^ bits for x in span]
        for x in span[1:]:
            index[x].append(j)
    return index


def _lifts(index: dict[int, list[int]]) -> dict[int, list[int]]:
    """Part bit e_i -> the indexed vectors x with bit i set whose x ^ e_i is indexed too."""
    lifts: defaultdict[int, list[int]] = defaultdict(list)
    for x in index:
        rest = x
        while rest:
            bit = rest & -rest
            rest ^= bit
            if x ^ bit in index:
                lifts[bit].append(x)
    return lifts


def _pair_edges(index: dict[int, list[int]], lifted: list[int], bit: int) -> list[tuple[int, int]]:
    """The sorted column pairs {U,V} whose joint span holds e_i = `bit`
    although neither column's span does; `lifted` is `_lifts(index)[bit]`.

    e_i lies in span(U)+span(V) iff some x in span(U) has x ^ e_i in span(V).
    A column holding both x and x ^ e_i spans e_i on its own, so it is a
    holder; every other column holding x pairs with every other column
    holding x ^ e_i.  A pair {U,V} is found once per element of
    span(U) & span(V), so up to 2^(t-1) times, before the set keeps one.
    """
    edges: set[tuple[int, int]] = set()
    for x in lifted:
        cols_x, cols_y = index[x], index[x ^ bit]
        only_x = set(cols_x)
        only_x.difference_update(cols_y)
        if only_x:
            only_y = set(cols_y)
            only_y.difference_update(cols_x)
            if only_y:
                edges.update((u, v) if u < v else (v, u) for u in only_x for v in only_y)
    return sorted(edges)


def _indexed_edges(code: ArrayCode) -> Iterator[list[tuple[int, int]]]:
    """For parts 1..p in turn, the sorted pair edges read off the span index."""
    index = _span_index(code)
    lifts = _lifts(index)
    for part in range(1, code.p + 1):
        bit = 1 << (part - 1)
        yield _pair_edges(index, lifts.get(bit, []), bit)


def _scanned_edges(code: ArrayCode, holders: list[set[int]]) -> Iterator[list[tuple[int, int]]]:
    """For parts 1..p in turn, the sorted pair edges found by eliminating
    every pair of non-holder columns whose cells involve the part."""
    pivots = _column_pivots(code)
    rows = [tuple(piv.values()) for piv in pivots]
    involved = []
    for col in code.columns:
        mask = 0
        for cell in col:
            mask |= cell.bits
        involved.append(mask)
    for part in range(1, code.p + 1):
        target = 1 << (part - 1)
        rest = [j for j in range(code.m) if j not in holders[part - 1]]
        edges: list[tuple[int, int]] = []
        for a, u in enumerate(rest):
            piv_u = pivots[u]
            inv_u = involved[u]
            for v in rest[a + 1 :]:
                if not ((inv_u | involved[v]) & target):
                    continue
                merged = dict(piv_u)
                for x in rows[v]:
                    while x:
                        high = x.bit_length() - 1
                        row = merged.get(high)
                        if row is None:
                            merged[high] = x
                            break
                        x ^= row
                x = target
                while x:
                    high = x.bit_length() - 1
                    row = merged.get(high)
                    if row is None:
                        break
                    x ^= row
                if x == 0:
                    edges.append((u + 1, v + 1))
        yield edges


def _use_span_index(code: ArrayCode, holders: list[set[int]]) -> bool:
    """Whether the span index has no more entries than the pair scan has
    candidate pairs, and fits under PAIRS_SPAN_CAP."""
    entries = code.m * ((1 << code.t) - 1)
    if entries > PAIRS_SPAN_CAP:
        return False
    candidates = 0
    for held in holders:
        rest = code.m - len(held)
        candidates += rest * (rest - 1) // 2
    return entries <= candidates


def k_pir_pairs(code: ArrayCode) -> VerifyReport:
    """Singleton holders plus maximum pair matching, per part.

    Exact for codes whose optimal recovery sets have size <= 2; otherwise
    the reported k is a valid lower bound.  Pair edges come from the span
    index or the pair scan, whichever `_use_span_index` judges cheaper (see
    the module docstring); both give the same sorted edges.  The index
    costs O(p*m*2^t) plus one visit per element of span(U) & span(V) for
    every edge {U,V}, with about m*2^t index entries in memory.  On the
    c1(8,8) code (m=24310, t=8) it takes 8-10 s, and the process that
    builds and verifies it peaks at about 250 MB RSS (Python 3.11, one core
    of a 2-vCPU Xeon VM); the scan would take hours there.
    """
    holders = _singleton_columns(code)
    if _use_span_index(code, holders):
        part_edges = _indexed_edges(code)
    else:
        part_edges = _scanned_edges(code, holders)
    per_part = []
    plan_sets = {}
    for part, edges in enumerate(part_edges, start=1):
        sets = [frozenset({j + 1}) for j in sorted(holders[part - 1])]
        if edges:
            graph = PairGraph.general_graph({v for e in edges for v in e}, edges)
            sets.extend(frozenset(e) for e in max_general_matching(graph))
        per_part.append(len(sets))
        plan_sets[part] = sets
    return VerifyReport(
        mode="pairs",
        m=code.m,
        k=min(per_part),
        per_part=tuple(per_part),
        plan=RecoveryPlan(plan_sets),
        singleton_bound=singleton_upper_bound(code),
        exact=False,
        scope="exact when optimal recovery sets have size <= 2; lower bound in general",
    )


def _minimal_recovery_masks(code: ArrayCode, part: int, rows: list[tuple[int, ...]]) -> list[int]:
    """Column bitmasks of the inclusion-minimal recovery sets for one part."""
    target = 1 << (part - 1)
    minimal: list[int] = []
    for size in range(1, code.m + 1):
        for combo in combinations(range(code.m), size):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(known & mask == known for known in minimal):
                continue
            pivots: dict[int, int] = {}
            for j in combo:
                for row in rows[j]:
                    pivot_insert(pivots, row)
            if pivot_reduce(pivots, target) == 0:
                minimal.append(mask)
    minimal.sort()
    return minimal


def _max_packing(minimal: list[int], m: int) -> list[int]:
    """A maximum collection of pairwise disjoint masks drawn from `minimal`."""
    by_column: list[list[int]] = [[] for _ in range(m)]
    for mask in minimal:
        for c in range(m):
            if mask & (1 << c):
                by_column[c].append(mask)
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        c = (mask & -mask).bit_length() - 1
        value = best(mask & (mask - 1))
        for candidate in by_column[c]:
            if candidate & mask == candidate:
                trial = 1 + best(mask & ~candidate)
                if trial > value:
                    value = trial
        memo[mask] = value
        return value

    chosen: list[int] = []
    mask = (1 << m) - 1
    while mask:
        c = (mask & -mask).bit_length() - 1
        score = best(mask)
        picked = None
        for candidate in by_column[c]:
            if candidate & mask == candidate and 1 + best(mask & ~candidate) == score:
                picked = candidate
                break
        if picked is None:
            mask &= mask - 1
        else:
            chosen.append(picked)
            mask &= ~picked
    return chosen


def k_pir_exhaustive(code: ArrayCode, cap: int = EXHAUSTIVE_CAP) -> VerifyReport:
    """Exact per-part maximum packing of disjoint recovery sets; needs m <= cap."""
    if code.m > cap:
        raise CapExceeded(
            f"exhaustive verification of m={code.m} columns exceeds the cap of {cap}; "
            "use k_pir_pairs instead",
            columns=code.m,
        )
    rows = [tuple(piv.values()) for piv in _column_pivots(code)]
    per_part = []
    plan_sets = {}
    for part in range(1, code.p + 1):
        minimal = _minimal_recovery_masks(code, part, rows)
        chosen = _max_packing(minimal, code.m)
        per_part.append(len(chosen))
        plan_sets[part] = [
            frozenset(j + 1 for j in range(code.m) if mask & (1 << j)) for mask in chosen
        ]
    return VerifyReport(
        mode="exhaustive",
        m=code.m,
        k=min(per_part),
        per_part=tuple(per_part),
        plan=RecoveryPlan(plan_sets),
        singleton_bound=singleton_upper_bound(code),
        exact=True,
        scope="exact",
    )
