"""k-PIR verification: exhaustive set packing, singleton+pair matching, plan checks.

Exhaustive mode is exact but limited to small column counts: it
enumerates every part's inclusion-minimal recovery sets and solves each
part's disjoint packing problem by a depth-first search over column
bitmasks for a packing of a given size, asked first for the packing bound
below and for one set fewer each time it fails.
The enumeration is one search by set size, shared by all parts: size s+1
joins two kept s-column sets that differ in their highest column, and a
set is kept while every column adds rank and some part is unspanned.  A
candidate is tried only when all its s-column subsets are kept, and a part
it spans that none of them spans is a minimal set found once, so no
non-minimal set is recorded and none is filtered out afterwards; a part
that no set of columns spans costs nothing.  The packing is bounded by the
sizes of the sets it can use: a column that holds the part alone is in no
other minimal set, every other set has at least two columns, and only the
columns of the two-column sets can hold one of those, so with f the
non-holder columns of a mask and q those of them in some two-column set, a
packing inside the mask has at most
holders-in-mask + min(f // 2, (f + q // 2) // 3) sets, and the search
enters no branch whose remainder's bound is below the sets it still needs.
Pair mode counts
singleton holders plus a maximum matching on the pair graph of the remaining
columns; that is exact whenever optimal recovery sets have size at most two
(true for every family this package generates) and a valid lower bound
otherwise; a part whose non-holder columns number at most twice its
matching size plus two is certified exact (see `k_pir_pairs`).

A column's cells are a basis of its span, since `ArrayCode` refuses
dependent cells, so exhaustive mode and `verify_plan` eliminate the cells
themselves, with no reduced basis per column.  A column of singletons
plus at most one other cell, as every column the families build is, is
two ints (`ArrayCode._one_sum`): T, its singletons' OR, and S, the other
cell or 0.  Two such columns U, V span e_i exactly when one of e_i,
e_i ^ S_U, e_i ^ S_V and e_i ^ S_U ^ S_V has no part outside T_U | T_V
(`_pair_spans`), so when every column is one, `verify_plan` tests a
two-column set, and the pair scan a pair, by four ANDs.  Otherwise
`verify_plan` inserts a set's cells into one fresh pivot table, and the
pair scan keeps a pivot table per column, reused across its O(m) pairs.
The enumeration keeps none: each kept set carries its span's parity checks.

Pair mode builds each part's pair graph one of three ways, all giving the
same graph, as a neighbour map (column -> set of columns), and
`max_general_matching` takes that map, checks it once and indexes it
(sorted columns, each row of ascending indices); each part's graph is
freed once it is matched, and a part with no edges costs no graph.

When moreover each S is disjoint from its T and covers every part T
misses, as in every c1, c2 and c3 column, the graph can be read off the
cells: two non-holders U, V of part i span e_i exactly when i is in S_U
and S_U - {i} lies inside T_V, or the same with U and V swapped, since a
pair using neither sum has no i and one using both has i twice.  Each
part groups its U by the key S_U - {i} and finds each key's V among the
key-sized subsets of every distinct column's singletons.  Every key has
p - t parts, so a part looks up at most 1 + C(|T|, p - t) subsets per
distinct column, a count read off the input before any enumeration; the
graph is read off the cells only when that count, over every part built,
is no more than the span index's entries or the pair scan's candidate
pairs, whichever of the two the code would take (below).  A sum of more
parts than one beyond the widest T is no part's key, so a dense sum
builds nothing.  The cost is one pass over the cells plus, per part
built, that count and one set union per U and per V of each key.  c1
codes meet the count; c2 and c3 codes (but c3(2)), a few non-holders per
part, take the scan, as do long keys inside wide singleton cells.

Every other code, and one whose count is the higher, takes the span index
or the pair scan, whichever a size estimate says is cheaper.  The span
index: for columns U, V that do not span e_i alone, e_i lies in
span(U)+span(V) iff some x in span(U) has x ^ e_i in span(V).  The index
maps each nonzero vector to the columns whose span holds it, built from
every column's 2^t - 1 span elements once per code; for each x of part i,
every column holding x but not x ^ e_i then gains, by one set union, the
columns holding x ^ e_i but not x, and the other way round.  Its cost is
O(p*m*2^t) index work plus those unions, |only x| + |only x ^ e_i| of them
per x, inside which an edge {U,V} is met once per element of span(U) &
span(V) (at most 2^(t-1) times); the index holds about m*2^t entries for
all parts together.  The pair scan tests each of the
sum_i C(m - alpha_i, 2) pairs of columns that do not hold part i alone and
whose cells involve it, in O(m) memory: by four ANDs, or by copying one
column's pivot table and inserting the other's t cells.  The index is used
when its m*(2^t - 1) entries number no more than those candidate pairs and
no more than PAIRS_SPAN_CAP; many columns with small t (integer(3,3),
general(8/3,3)) take the index, few columns with large t the scan.

When the columns are closed under the part rotation e_i -> e_(i+1 mod p),
as every ladder code (c1, integer and general s) and c3 are, only part 1's
graph is built, whichever way, and matched; the span index then leaves out
part 1's holders, which pair with no column for part 1 (a holder holds both
x and x ^ e_1 for every x of its span), so it holds the other columns'
span elements only.  Each column j maps to a column
pi(j) storing the rotation of j's cells, and the rotation is a linear
bijection, so pi carries a pair spanning e_i to a pair spanning e_(i+1),
keeps disjoint sets disjoint and sends part i's holders to part i+1's:
part i+1's graph is part i's with every column renamed by pi, and part
i+1's sets are part i's mapped by pi.  So every k_i and certificate is that
of matching each part on its own graph, and the sets differ from that only
where a part's graph has more than one maximum matching.  The map turns
away in O(p) a code whose parts are stored as singletons unequally often.
Past that, a code of (T, S) columns keys each column by one int,
T | S << p, rotated by two shifts and two masks, and looks the distinct
keys up in C-level passes; any other code is keyed by its columns' cell
sets, once one pass over the cells has turned away a code whose cells' OR
or XOR the rotation moves.

`verify_plan` takes the same map through the same `_mapped` that maps a
pair plan's parts: on a rotation-closed code, a part that
follows a passed part is first compared, as an exact sequence, with the
part before's sets mapped by it and sorted.  On a match it passes with no
elimination and no range or disjointness test: pi is a permutation of
1..m, so the mapped sets are in range and disjoint because the part
before's are, and a repeated set cannot match.  So a pair-mode plan of
such a code has only part 1's multi-column sets tested, and only part 1's
columns range-tested.  A code's (T, S) walk, which fills its singleton
holders in the same pass, and its column map are computed once, the first
time a verifier reads them, and kept on the `ArrayCode` (`_one_sum`,
`_holders`, `_rotation`), so `k_pir_pairs`, `singleton_upper_bound` and
`verify_plan` share them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import comb
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceeded
from .gf2 import orthogonal_cut, parts_of, pivot_insert, pivot_reduce
from .matching import max_general_matching
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
    """Outcome of one verification run; `per_part[i-1]` is k_i for part i,
    and `certified[i-1]` says that k_i is proved to be the most disjoint
    recovery sets part i has (always, in exhaustive mode).  `k` is the
    least k_i, and only exhaustive mode is `exact`."""

    mode: str
    m: int
    per_part: tuple[int, ...]
    certified: tuple[bool, ...]
    plan: RecoveryPlan
    singleton_bound: Fraction

    @property
    def k(self) -> int:
        return min(self.per_part)

    @property
    def exact(self) -> bool:
        return self.mode == "exhaustive"

    @property
    def scope(self) -> str:
        if self.exact:
            return "exact"
        return "exact when optimal recovery sets have size <= 2; lower bound in general"

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.m)


class PlanCheck(NamedTuple):
    ok: bool
    violation: str | None


def singleton_upper_bound(code: ArrayCode) -> Fraction:
    """min over parts of alpha_u + (m - alpha_u)/2; any achievable k is <= its floor.

    alpha + (m - alpha)/2 = (m + alpha)/2 grows with alpha, so the minimum
    is taken at the smallest alpha_u.
    """
    return Fraction(code.m + min(singleton_census(code)), 2)


def _mapped(image: tuple[int, ...], sets: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """`sets` with each column j renamed image[j], each set ascending, in
    ascending order."""
    out = []
    for columns in sets:
        if len(columns) == 2:  # most sets: put in order by one comparison
            u, v = image[columns[0]], image[columns[1]]
            out.append((u, v) if u < v else (v, u))
        elif len(columns) == 1:
            out.append((image[columns[0]],))
        else:
            out.append(tuple(sorted([image[j] for j in columns])))
    out.sort()
    return out


def verify_plan(code: ArrayCode, plan: RecoveryPlan) -> PlanCheck:
    """Check every set spans its part and per-part sets are pairwise disjoint.

    On a code closed under the part rotation, a part that follows a part
    which has just passed is tested first against that part's sets mapped
    by the rotation's column map pi (`ArrayCode._rotation`), as an exact
    sequence: part i+1's sets, ascending, must equal part i's mapped and
    sorted.  Such a part has no violation, and nothing else is checked for
    it.  The cells of pi(j) are the rotation of j's and the rotation is
    linear, so each mapped set spans e_(i+1), and a mapped singleton stores
    it.  pi is a permutation of 1..m, so the mapped sets are in range and
    pairwise disjoint because part i's are, and part i passed.  Part i's
    sets are nonempty (an empty set spans nothing), so the mapped sets are
    distinct and a repeated set cannot match.  The map is read only for a
    part that follows a passed part, so a one-part plan never computes it.

    Every other part has its columns tested together first: one range test
    and one disjointness test over all its sets.  Only a part that fails
    one of them has its sets checked for range and overlap one at a time,
    in order with the span checks, so the first violation is named as if
    every set were checked in turn.  A set of one column spans the part
    only if the column stores it; a set of two columns of a code that
    `ArrayCode._one_sum` keys is tested by `_pair_spans`; any other set
    inserts its columns' cells into one fresh pivot table and reduces e_i,
    so each cell is inserted once.  A pair-mode plan of a rotation-closed
    code has only part 1's sets tested and range-tested: on the
    benchmark's family-verify workload (six codes, m 129-896) the traced
    check takes 0.97-0.98 ms per op (seed 1, two runs; Python 3.11.7, one core
    of a shared 2-vCPU Xeon VM).
    """
    last, passed = 0, None  # the part checked before, which passed, and its sets
    for part in plan.parts():
        if not 1 <= part <= code.p:
            return PlanCheck(False, f"part {part} out of range 1..{code.p}")
        sets = plan.sets(part)
        if part == last + 1 and passed is not None:
            image = code._rotation
            if image is not None and _mapped(image, passed) == list(sets):
                last, passed = part, sets
                continue
        target = 1 << (part - 1)
        flat = list(chain.from_iterable(sets))
        checked = not flat or (
            min(flat) >= 1 and max(flat) <= code.m and len(set(flat)) == len(flat)
        )
        used: set[int] = set()
        for columns in sets:
            if not checked:
                for j in columns:
                    if not 1 <= j <= code.m:
                        return PlanCheck(False, f"part {part}: column {j} out of range 1..{code.m}")
                if not used.isdisjoint(columns):
                    first = min(used.intersection(columns))
                    return PlanCheck(False, f"part {part}: column {first} appears in two recovery sets")
                used.update(columns)
            if len(columns) == 1:
                # singleton convention: a column spans e_i only if it stores it
                spans = target in code.columns[columns[0] - 1]
            elif len(columns) == 2 and code._one_sum is not None:
                _, units, sums = code._one_sum
                u, v = columns[0] - 1, columns[1] - 1
                spans = _pair_spans(target, units[u], sums[u], units[v], sums[v])
            else:
                pivots: dict[int, int] = {}
                for j in columns:
                    for cell in code.columns[j - 1]:
                        pivot_insert(pivots, cell)
                spans = pivot_reduce(pivots, target) == 0
            if not spans:
                label = "{" + ",".join(map(str, columns)) + "}"
                return PlanCheck(False, f"part {part}: columns {label} do not span it")
        last, passed = part, sets
    return PlanCheck(True, None)


def _pair_spans(bit: int, unit_u: int, sum_u: int, unit_v: int, sum_v: int) -> bool:
    """Whether columns U and V, each singletons plus at most one other cell,
    span e_i = `bit` together; `unit_*` is a column's singletons' OR T and
    `sum_*` its other cell S or 0 (`ArrayCode._one_sum`).

    Their joint span is every vector inside T_U | T_V, XORed with S_U or
    not and with S_V or not, so e_i is in it exactly when one of e_i,
    e_i ^ S_U, e_i ^ S_V and e_i ^ S_U ^ S_V has no part outside
    T_U | T_V: four ANDs.
    """
    outside = ~(unit_u | unit_v)
    return not (
        bit & outside
        and (bit ^ sum_u) & outside
        and (bit ^ sum_v) & outside
        and (bit ^ sum_u ^ sum_v) & outside
    )


def _span_index(code: ArrayCode, skip: Sequence[int] = ()) -> dict[int, list[int]]:
    """Every nonzero vector of some column's span -> the 1-based columns
    whose span holds it, leaving out the 0-based columns in `skip`.

    Part i's graph is the same with its holders (of e_i) left out: a holder
    holds x ^ e_i with every x of its span, so it is on neither side of
    `_pair_neighbours`' unions, and leaving it out only drops lifts that
    would have an empty side.
    """
    skipped = {j + 1 for j in skip}
    index: defaultdict[int, list[int]] = defaultdict(list)
    for j, col in enumerate(code.columns, start=1):
        if j in skipped:
            continue
        span = [0]
        for cell in col:
            span += [x ^ cell for x in span]
        for x in span[1:]:
            index[x].append(j)
    return index


def _lifts(index: dict[int, list[int]], parts: int) -> dict[int, list[int]]:
    """Part i (1-based) among the bits of `parts` -> the indexed vectors x
    with bit i set whose x ^ e_i is indexed too."""
    lifts: defaultdict[int, list[int]] = defaultdict(list)
    for x in index:
        rest = x & parts
        while rest:
            bit = rest & -rest
            rest ^= bit
            if x ^ bit in index:
                lifts[bit.bit_length()].append(x)
    return lifts


def _pair_neighbours(index: dict[int, list[int]], lifted: list[int], bit: int) -> dict[int, set[int]]:
    """The pair graph of e_i = `bit` as a neighbour map: U -> the columns V
    whose joint span with U holds e_i although neither column's span does;
    `lifted` is `_lifts(index)[i]`.

    e_i lies in span(U)+span(V) iff some x in span(U) has x ^ e_i in span(V).
    A column holding both x and x ^ e_i spans e_i on its own, so it is a
    holder; every other column holding x pairs with every other column
    holding x ^ e_i.  Each x costs one set union per such column, and a pair
    {U,V} is met once per element of span(U) & span(V), so up to 2^(t-1)
    times, before the sets keep one.
    """
    neighbours: defaultdict[int, set[int]] = defaultdict(set)
    for x in lifted:
        cols_x, cols_y = index[x], index[x ^ bit]
        only_x = set(cols_x)
        only_x.difference_update(cols_y)
        if only_x:
            only_y = set(cols_y)
            only_y.difference_update(cols_x)
            if only_y:
                for u in only_x:
                    neighbours[u] |= only_y
                for v in only_y:
                    neighbours[v] |= only_x
    return neighbours


def _indexed_edges(
    code: ArrayCode, holders: Sequence[Sequence[int]], parts: int, wanted: int = -1
) -> Iterator[tuple[int, dict[int, set[int]]]]:
    """For parts 1..`parts` in `wanted`, ascending, each part that has edges,
    with its pair graph read off the span index as a neighbour map (see
    `_pair_neighbours`); the index is freed before the last map is yielded.

    When only part 1 is built, its holders are left out of the index (see
    `_span_index`).  A part with no lifts has no edges; skipping it keeps
    the cost of a code whose cells touch few of its p parts linear in p.
    """
    index = _span_index(code, holders[0] if parts == 1 else ())
    lifts = _lifts(index, ((1 << parts) - 1) & wanted)
    for part in sorted(lifts):
        neighbours = _pair_neighbours(index, lifts.pop(part), 1 << (part - 1))
        if not lifts:
            del index
        if neighbours:
            yield part, neighbours
        del neighbours  # so a map the caller has dropped is freed before the next is built


def _scanned_edges(
    code: ArrayCode, holders: Sequence[Sequence[int]], parts: int, wanted: int = -1
) -> Iterator[tuple[int, dict[int, set[int]]]]:
    """For parts 1..`parts` in `wanted`, in turn, each part that has edges,
    with its pair graph as a neighbour map, found by testing every pair of
    non-holder columns whose cells involve the part: by `_pair_spans` when
    every column is singletons plus at most one other cell, and otherwise
    by eliminating the pair."""
    rows = code.columns
    walked = code._one_sum
    if walked is None:
        pivots = []  # per column, a pivot table of its cells, reused by every pair
        involved = []
        for col in rows:
            table: dict[int, int] = {}
            mask = 0
            for cell in col:
                pivot_insert(table, cell)
                mask |= cell
            pivots.append(table)
            involved.append(mask)
    else:
        _, units, sums = walked
        involved = list(map(or_, units, sums))
    for part in parts_of(((1 << parts) - 1) & wanted):
        target = 1 << (part - 1)
        held = set(holders[part - 1])
        rest = [j for j in range(code.m) if j not in held]
        neighbours: defaultdict[int, set[int]] = defaultdict(set)
        for a, u in enumerate(rest):
            inv_u = involved[u]
            for v in rest[a + 1 :]:
                if not ((inv_u | involved[v]) & target):
                    continue
                if walked is None:
                    merged = dict(pivots[u])
                    for x in rows[v]:
                        pivot_insert(merged, x)
                    spans = pivot_reduce(merged, target) == 0
                else:
                    spans = _pair_spans(target, units[u], sums[u], units[v], sums[v])
                if spans:
                    neighbours[u + 1].add(v + 1)
                    neighbours[v + 1].add(u + 1)
        if neighbours:
            yield part, neighbours


def _summed_columns(code: ArrayCode) -> list[tuple[tuple[int, ...], int, int, list[int]]] | None:
    """Each distinct column as (its singleton cells, their OR, its sum cell
    or 0, its 1-based positions), when every column is singletons plus at
    most one sum cell disjoint from them and every column with a sum covers
    all p parts; None otherwise.

    The OR and the sum are `ArrayCode._one_sum`'s T and S.  Columns are
    told apart by identity: `ArrayCode`
    gives columns that were given alike one tuple, and equal columns given
    in other cell orders only cost their kinds' work twice.
    """
    walked = code._one_sum
    if walked is None:
        return None
    _, units, sums = walked
    full = (1 << code.p) - 1
    kinds: dict[int, tuple[tuple[int, ...], int, int, list[int]]] = {}
    for j, (col, mask, total) in enumerate(zip(code.columns, units, sums), start=1):
        kind = kinds.get(id(col))
        if kind is None:
            if total and (mask & total or mask | total != full):
                return None
            kind = kinds[id(col)] = (col[:-1] if total else col, mask, total, [])
        kind[3].append(j)
    return list(kinds.values())


def _summed_edges(
    kinds: Sequence[tuple[tuple[int, ...], int, int, list[int]]], parts: int, wanted: int = -1
) -> Iterator[tuple[int, dict[int, set[int]]]]:
    """For parts 1..`parts` in `wanted`, ascending, each part that has edges,
    with its pair graph as a neighbour map, read off the distinct columns
    `kinds` of a code that `_summed_columns` accepts: the columns U whose
    sum S_U holds part i, grouped by the key S_U - {i}, each joined to the
    non-holders V whose singletons T hold its key, found among the
    key-sized subsets of every distinct column's T (see the module
    docstring and `_subset_count`).  When no key fits in any T, no part has
    edges, and nothing is built.
    """
    sums = [(total, at) for _, _, total, at in kinds if total]
    if not sums:
        return
    size = sums[0][0].bit_count() - 1  # the parts of every key
    if size > max(len(units) for units, _, _, _ in kinds):
        return
    span = ((1 << parts) - 1) & wanted
    users: defaultdict[int, list[tuple[int, list[int]]]] = defaultdict(list)  # part -> its (S_U, U)
    for total, at in sums:
        if total & span:
            for part in parts_of(total & span):
                users[part].append((total, at))
    for part in sorted(users):
        bit = 1 << (part - 1)
        groups: defaultdict[int, list[int]] = defaultdict(list)  # key -> the U
        for total, at in users.pop(part):
            groups[total ^ bit] += at
        matches: defaultdict[int, list[int]] = defaultdict(list)  # key -> the V
        for units, mask, _, at in kinds:
            if not mask & bit:
                for key in map(sum, combinations(units, size)):
                    if key in groups:
                        matches[key] += at
        neighbours: defaultdict[int, set[int]] = defaultdict(set)
        for key, found in matches.items():
            us = groups[key]
            near_u, near_v = set(found), set(us)
            for u in us:
                neighbours[u] |= near_u
            for v in found:
                neighbours[v] |= near_v
        del groups, matches
        if neighbours:
            yield part, neighbours
        del neighbours  # so a map the caller has dropped is freed before the next is built


def _subset_count(kinds: Sequence[tuple[tuple[int, ...], int, int, list[int]]], parts: int) -> int:
    """At most how many key-sized singleton subsets `_summed_edges` looks
    up to build `parts` parts' graphs; 0 when no part has edges.

    Every sum covers the p - t + 1 parts that its column's t - 1 singletons
    miss, so every key has p - t parts, and a part looks up at most
    1 + C(|T|, p - t) subsets per distinct column; when p - t is more than
    the widest T, no key fits in any T.
    """
    size = next((total.bit_count() - 1 for _, _, total, _ in kinds if total), None)
    widths = Counter(len(units) for units, _, _, _ in kinds)  # distinct columns per singleton count
    if size is None or size > max(widths):
        return 0
    return parts * sum(n * (1 + comb(width, size)) for width, n in widths.items())


def _pair_cost(code: ArrayCode, holders: Sequence[Sequence[int]]) -> tuple[bool, int]:
    """Whether the span index is taken over the pair scan, and the count of
    the one taken: the index's m*(2^t - 1) entries or the scan's candidate
    pairs.  The index is taken when its entries number no more than the
    candidate pairs and fit under PAIRS_SPAN_CAP."""
    candidates = 0
    for alpha, parts in Counter(map(len, holders)).items():
        rest = code.m - alpha
        candidates += parts * (rest * (rest - 1) // 2)
    entries = code.m * ((1 << code.t) - 1)
    indexed = entries <= min(candidates, PAIRS_SPAN_CAP)
    return indexed, entries if indexed else candidates


def k_pir_pairs(code: ArrayCode) -> VerifyReport:
    """Singleton holders plus maximum pair matching, per part.

    Exact for codes whose optimal recovery sets have size <= 2; otherwise
    the reported k is a valid lower bound.  Each part's pair graph comes
    from the span index or the pair scan, whichever `_pair_cost` judges
    cheaper, unless `_summed_columns` accepts the code and `_subset_count`
    is no more than the chosen one's count, when it is read off the cells
    (`_summed_edges`; see the module docstring); it goes to
    `max_general_matching` as the neighbour map it is built as.
    For a code closed under the part rotation only part 1 is matched, and
    part i+1's pairs are part i's mapped by the column map
    `ArrayCode._rotation` through `_mapped`, as `verify_plan` maps them, so
    each part's sets are as many as a matching of its own graph would give.
    Every part's holders come from `ArrayCode._holders`.

    Part i is certified when f <= 2*nu + 2, with f = m - alpha_i its
    non-holder columns and nu its matching size.  Some optimal packing
    uses every holder alone; its other sets are a <= nu pairs and b sets of
    three or more columns inside the f non-holders, so 2a + 3b <= f and
    k_i <= alpha_i + min(f // 2, (f + nu) // 3), which alpha_i + nu meets
    exactly when f <= 2*nu + 2.  Read off the cells, a part costs its
    subset count plus one set union per U and per V of each key; the index
    costs O(p*m*2^t) plus one visit per element of span(U) & span(V) for
    every edge {U,V}, with about m*2^t index entries in memory, and a
    one-part build leaves part 1's holders out of it.  The c1(8,8) code
    (m=24310, t=8) is rotation-closed and read off its cells: `pirarray
    verify` parses it, verifies it and writes its plan in 0.45-0.57 s and
    peaks at 62 MB RSS.  c1(9,9) (m=92378), past the index's cap, where
    the scan would take hours, does the same in 1.6-1.9 s and peaks at
    204 MB (Python 3.11.7, one core of a shared 2-vCPU Xeon VM whose speed
    drifts).  A part with no
    holders and no edges costs one step of two
    loops over the parts, so a header of many parts stored nowhere stays
    cheap.
    A column that involves part i but does not hold e_i has i in a sum cell,
    so a build of every part skips parts in no sum cell, or builds nothing.
    """
    holders = code._holders
    image = code._rotation
    wanted = 1 if image is not None else reduce(or_, {c for col in code.columns for c in col if c & (c - 1)}, 0)
    pairs = {}
    if wanted:
        parts = code.p if image is None else 1
        indexed, cost = _pair_cost(code, holders)
        summed = _summed_columns(code)
        if summed is not None and _subset_count(summed, wanted.bit_count()) <= cost:
            edges = _summed_edges(summed, parts, wanted)
        elif indexed:
            edges = _indexed_edges(code, holders, parts, wanted)
        else:
            edges = _scanned_edges(code, holders, parts, wanted)
        for part, neighbours in edges:
            pairs[part] = max_general_matching(neighbours)
            del neighbours  # free this part's graph before the next one is built
    if image is not None and pairs:
        # part i+1's pairs are part i's mapped through the rotation (see the
        # module docstring)
        for part in range(2, code.p + 1):
            pairs[part] = _mapped(image, pairs[part - 1])
    # a part with no holders and no pairs costs one step of each loop below
    plan_sets = dict.fromkeys(range(1, code.p + 1), ())
    for part, held in enumerate(holders, start=1):
        if held:
            plan_sets[part] = [(j + 1,) for j in held]
    for part, found in pairs.items():
        plan_sets[part] = [*plan_sets[part], *found]
    per_part = list(map(len, plan_sets.values()))
    # f <= 2*nu + 2 with f = m - alpha_i and nu = k_i - alpha_i
    certified = [code.m + len(held) <= 2 * k + 2 for k, held in zip(per_part, holders)]
    return VerifyReport(
        mode="pairs",
        m=code.m,
        per_part=tuple(per_part),
        certified=tuple(certified),
        plan=RecoveryPlan._of_ascending(plan_sets),
        singleton_bound=singleton_upper_bound(code),
    )


def _cut_all(dual: Sequence[int], cells: Iterable[int]) -> Sequence[int]:
    """The parity checks `dual` cut by each of `cells` in turn."""
    for cell in cells:
        cut = orthogonal_cut(dual, cell)
        if cut is not None:
            dual = cut
    return dual


def _minimal_recovery_masks(rows: Sequence[Sequence[int]], p: int) -> list[Sequence[int]]:
    """For each part index (0-based), the sorted column bitmasks of the
    inclusion-minimal sets of columns whose rows span that part; `rows[j]`
    are column j's cells, and parts that no set of columns spans share one
    empty tuple.

    One search by set size serves every part; its targets are the parts
    that all columns together span, so a part stored nowhere costs nothing.
    Each set's span is held by its parity checks: a basis of the vectors
    orthogonal to it, over only the n parts the cells involve, so its rank
    is n minus the basis's size and it spans e_i iff no check has bit i.
    Adding a cell cuts the basis by `gf2.orthogonal_cut`.  Level s keeps
    each s-column set in which every column adds rank and some target is
    still unspanned, with its checks and those targets.  Kept sets are
    grouped by their columns but the highest, and two of a group, S + a
    and S + b with a < b, join into the candidate S + a + b.  It is tried
    only when its other s-column subsets are kept too and `open`, the
    targets that none of its s-column subsets spans, is not empty; it is
    dropped when b adds no rank to S + a or its rank equals a subset's
    (that subset's missing column adds none), both read off basis sizes.
    A part of `open` that the candidate spans is spanned by none of its
    proper subsets, so every set recorded is minimal; those parts are
    `open` less the OR of its checks.  A candidate whose rank is the
    code's rank spans what all columns span, so it is recorded for every
    part of `open` with no OR, and it is not kept: no target is left
    unspanned in it.  Every proper subset T of a minimal set M is kept: a
    column adding no rank to T adds none to M either, and then M is not
    minimal.  So each minimal set is tried, from its two highest columns,
    and recorded once.
    """
    m = len(rows)
    involved = reduce(or_, chain.from_iterable(rows), 0)
    units = [1 << part - 1 for part in parts_of(involved)]  # the empty span's checks
    whole = _cut_all(units, chain.from_iterable(rows))
    targets = involved & ~reduce(or_, whole, 0)
    found: dict[int, list[int]] = {bit: [] for bit in units if bit & targets}  # target -> minimal sets
    full_dim = len(whole)

    # A kept set is (mask, parity checks, unspanned targets).  `level` holds
    # one size's by mask, and `groups` the same sets grouped by mask minus
    # the highest column, each group's highest columns ascending.
    level: dict[int, tuple[int, tuple[int, ...], int]] = {}
    for c in range(m):
        dual = _cut_all(units, rows[c])
        checked = reduce(or_, dual, 0)
        for bit, minimal in found.items():
            if not bit & checked:
                minimal.append(1 << c)
        unspanned = targets & checked
        if len(dual) < len(units) and unspanned:
            level[1 << c] = (1 << c, tuple(dual), unspanned)
    groups = [list(level.values())] if level else []
    while groups:
        next_level: dict[int, tuple[int, tuple[int, ...], int]] = {}
        next_groups = []
        for group in groups:
            shared = group[0][0]
            shared ^= 1 << shared.bit_length() - 1
            others = []  # the columns of `shared`, as bits
            while shared:
                bit = shared & -shared
                shared ^= bit
                others.append(bit)
            for x, (base, base_dual, base_unspanned) in enumerate(group):
                joined = []
                for mask, top_dual, top_unspanned in group[x + 1 :]:
                    open_parts = base_unspanned & top_unspanned
                    if not open_parts:
                        continue
                    candidate = base | mask
                    least = min(len(base_dual), len(top_dual))
                    for bit in others:
                        subset = level.get(candidate ^ bit)
                        if subset is None:
                            break
                        open_parts &= subset[2]
                        if len(subset[1]) < least:
                            least = len(subset[1])
                    else:
                        if not open_parts:
                            continue
                        dual = _cut_all(base_dual, rows[mask.bit_length() - 1])
                        if len(dual) >= least:
                            continue
                        # at the code's rank it spans what all columns span: every target
                        unspanned = 0 if len(dual) == full_dim else open_parts & reduce(or_, dual, 0)
                        spanned = open_parts ^ unspanned
                        while spanned:
                            bit = spanned & -spanned
                            spanned ^= bit
                            found[bit].append(candidate)
                        if unspanned:
                            entry = (candidate, tuple(dual), unspanned)
                            next_level[candidate] = entry
                            joined.append(entry)
                if joined:
                    next_groups.append(joined)
        level, groups = next_level, next_groups
    out: list[Sequence[int]] = [()] * p
    for bit, minimal in found.items():
        minimal.sort()
        out[bit.bit_length() - 1] = minimal
    return out


def _max_packing(minimal: Sequence[int], m: int) -> list[int]:
    """A maximum collection of pairwise disjoint masks drawn from `minimal`.

    A candidate that fits inside `mask` and contains mask's lowest column c
    has c as its own lowest column, so candidates are grouped by lowest
    column only.  Let H be the columns of the one-column sets and Q those
    of the two-column sets.  The sets are inclusion-minimal, so every other
    set has at least 2 columns and none of H, and a mask whose lowest
    column is in H takes it.  With f = |mask - H|, a packing inside `mask`
    of a sets of two columns, all inside Q, and b larger ones has
    2a <= |mask & Q|, 2a + 3b <= f and so a + b <= (f + a) / 3, giving

        UB(mask) = |mask & H| + min(f // 2, (f + |mask & Q| // 2) // 3).

    `find(mask, need)` looks depth first for `need` disjoint sets inside
    `mask`, appending each set it picks to `chosen` and taking it back if
    its branch fails.  At c it takes {c} if c is in H; else it tries each
    candidate that fits, in order, where the remainder's UB is at least
    need - 1, and last drops c where UB(mask - c) is at least need.
    `fail[mask]` is the least need shown out of reach.  `need` starts at UB
    of all columns and steps down until `find` succeeds, which is at the
    maximum.  There a candidate's branch succeeds exactly when the
    remainder's maximum is one less than mask's, so at every step the
    search keeps the first candidate that attains the maximum, or else
    drops c, whatever the bound and the memo prune.
    """
    held = paired = 0
    for mask in minimal:
        size = mask.bit_count()
        if size == 1:
            held |= mask
        elif size == 2:
            paired |= mask
    by_low: list[list[int]] = [[] for _ in range(m)]
    for mask in minimal:
        by_low[(mask & -mask).bit_length() - 1].append(mask)
    full = (1 << m) - 1
    free = full ^ held
    fail: dict[int, int] = {}  # mask -> the least need shown out of reach
    chosen: list[int] = []

    def find(mask: int, need: int) -> bool:
        if not need:
            return True
        if fail.get(mask, need + 1) <= need:
            return False
        low = mask & -mask
        if low & held:
            chosen.append(low)
            if find(mask ^ low, need - 1):
                return True
            chosen.pop()
        else:
            # the sets other than holders that a packing inside mask needs
            others = need - (mask & held).bit_count()
            free_in = (mask & free).bit_count()
            paired_in = (mask & paired).bit_count()
            for candidate in by_low[low.bit_length() - 1]:
                if candidate & mask == candidate:
                    rest = free_in - candidate.bit_count()
                    if (
                        rest // 2 >= others - 1
                        and (rest + (paired_in - (candidate & paired).bit_count()) // 2) // 3 >= others - 1
                    ):
                        chosen.append(candidate)
                        if find(mask ^ candidate, need - 1):
                            return True
                        chosen.pop()
            free_in -= 1
            if low & paired:
                paired_in -= 1
            if free_in // 2 >= others and (free_in + paired_in // 2) // 3 >= others and find(mask ^ low, need):
                return True
        fail[mask] = need
        return False

    free_in = free.bit_count()
    need = held.bit_count() + min(free_in // 2, (free_in + paired.bit_count() // 2) // 3)
    while not find(full, need):
        need -= 1
    # `find` refers to itself through its closure cell, a cycle that would
    # keep it, `fail` and `by_low` alive until the collector runs
    del find
    return chosen


def k_pir_exhaustive(code: ArrayCode, cap: int = EXHAUSTIVE_CAP) -> VerifyReport:
    """Exact per-part maximum packing of disjoint recovery sets; needs m <= cap.

    `_minimal_recovery_masks` finds every part's minimal recovery sets, each
    once, by one search by set size (its kept sets are the column subsets in
    which every column adds rank and some part is still unspanned), and
    `_max_packing` packs each part's sets by a depth-first search over
    column bitmasks for as many sets as the size-aware packing bound
    allows, then one fewer each time it fails (see its docstring); a part
    with no minimal set gets k_i = 0 without a search.  With `cap=16`, 72
    seeded random codes of 16 columns (p 5-16, t 2-6) take 0.0001-0.22 s,
    median 0.004 s; the slowest, t = 2 at p = 16, have 13,400-13,700
    minimal sets, and enumerating them is about three quarters of their
    time.  With `cap=20`, the seeded m=20, p=12, t=4 code takes about
    0.03 s, about three quarters of it the packing (Python 3.11.7, one core
    of a shared 2-vCPU Xeon VM).
    """
    if code.m > cap:
        raise CapExceeded(
            f"exhaustive verification of m={code.m} columns exceeds the cap of {cap}; "
            "use k_pir_pairs instead",
            columns=code.m,
        )
    per_part = []
    plan_sets = {}
    for part, minimal in enumerate(_minimal_recovery_masks(code.columns, code.p), start=1):
        chosen = _max_packing(minimal, code.m) if minimal else []
        per_part.append(len(chosen))
        plan_sets[part] = [parts_of(mask) for mask in chosen]
    return VerifyReport(
        mode="exhaustive",
        m=code.m,
        per_part=tuple(per_part),
        certified=(True,) * code.p,
        plan=RecoveryPlan._of_ascending(plan_sets),
        singleton_bound=singleton_upper_bound(code),
    )
