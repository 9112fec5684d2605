"""k-PIR verification: exhaustive set packing, singleton+pair matching, plan checks.

Exhaustive mode is exact but limited to small column counts: it
enumerates every part's inclusion-minimal recovery sets and solves each
part's disjoint packing problem by memoized search over column bitmasks.
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
holders-in-mask + min(f // 2, (f + q // 2) // 3) sets; one more column
raises it by at most one.  Pair mode counts
singleton holders plus a maximum matching on the pair graph of the remaining
columns; that is exact whenever optimal recovery sets have size at most two
(true for every family this package generates) and a valid lower bound
otherwise; a part whose non-holder columns number at most twice its
matching size plus two is certified exact (see `k_pir_pairs`).

Pair mode builds each part's pair graph one of two ways, whichever a size
estimate says is cheaper for the code, as a neighbour map (column -> set of
columns), and `matching.IndexedGraph.of` checks it once and indexes it
(sorted columns, each row of ascending indices) for the matching; each
part's graph is freed once it is matched, and a part with no edges costs
no graph.  The span index: for columns U, V
that do not span e_i alone, e_i lies in span(U)+span(V) iff some x in
span(U) has x ^ e_i in span(V).  The index maps each nonzero vector to
the columns whose span holds it, built from every column's 2^t - 1 span
elements once per code; for each x of part i,
every column holding x but not x ^ e_i then gains, by one set union, the
columns holding x ^ e_i but not x, and the other way round.  Its cost is
O(p*m*2^t) index work plus those unions, |only x| + |only x ^ e_i| of them
per x, inside which an edge {U,V} is met once per element of span(U) &
span(V) (at most 2^(t-1) times); the index holds about m*2^t entries for
all parts together.  The pair scan eliminates each of the
sum_i C(m - alpha_i, 2) pairs of columns that do not hold part i alone, in
O(m) memory.  The index is used when its m*(2^t - 1) entries number no more
than those candidate pairs and no more than PAIRS_SPAN_CAP; many columns
with small t (integer(3,3), c1(8,8)) take the index, few columns with large
t (c2, c3) the scan.

When the columns are closed under the part rotation e_i -> e_(i+1 mod p),
as every ladder code (c1, integer and general s) and c3 are, only part 1's
graph is built, either way, and matched; the span index then leaves out
part 1's holders, which pair with no column for part 1 (a holder holds both
x and x ^ e_1 for every x of its span), so it holds the other columns'
span elements only.  Each column j maps to a column
pi(j) storing the rotation of j's cells, and the rotation is a linear
bijection, so pi carries a pair spanning e_i to a pair spanning e_(i+1),
keeps disjoint sets disjoint and sends part i's holders to part i+1's:
part i+1's graph is part i's with every column renamed by pi, and part
i+1's sets are part i's mapped by pi.  So every k_i and certificate is that
of matching each part on its own graph, and the sets differ from that only
where a part's graph has more than one maximum matching.  O(p) checks and
one pass over the cells turn most other codes away before any cell is
rotated.

`verify_plan` takes the same map: on a rotation-closed code, a part that
follows a passed part is first compared, as an exact sequence, with the
part before's sets mapped by it and sorted.  On a match it passes with no
elimination and no range or disjointness test: pi is a permutation of
1..m, so the mapped sets are in range and disjoint because the part
before's are, and a repeated set cannot match.  So a pair-mode plan of
such a code has only part 1's multi-column sets eliminated and only part
1's columns tested.  A code's singleton holders and its column map are
computed once, the first time a verifier reads them, and kept on the
`ArrayCode` (`_holders`, `_rotation`), so `k_pir_pairs`,
`singleton_upper_bound` and `verify_plan` share them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from .errors import CapExceeded
from .gf2 import parts_of, pivot_insert, pivot_reduce
from .matching import IndexedGraph, max_general_matching
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


def _column_pivots(code: ArrayCode) -> list[dict[int, int]]:
    out = []
    for col in code.columns:
        pivots: dict[int, int] = {}
        for cell in col:
            pivot_insert(pivots, cell)
        out.append(pivots)
    return out


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
    every set were checked in turn.  A pair-mode plan of a rotation-closed code has only
    part 1's sets eliminated and tested part-wide: on the benchmark's
    family-verify workload (six codes, m 129-896) the traced check takes
    1.58-1.64 ms per op, against 2.19-2.25 ms when each mapped part also
    took the part-wide tests and 3.8-4.3 ms when every part was eliminated
    (seed 1, three runs each; Python 3.11.7, one core of a shared 2-vCPU
    Xeon VM).
    """
    tables: dict[int, dict[int, int]] = {}  # column -> pivot table of its cells

    def table(j: int) -> dict[int, int]:
        found = tables.get(j)
        if found is None:
            found = tables[j] = {}
            for cell in code.columns[j - 1]:
                pivot_insert(found, cell)
        return found

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
            else:
                pivots = dict(table(columns[0])) if columns else {}
                for j in columns[1:]:
                    for row in table(j).values():
                        pivot_insert(pivots, row)
                spans = pivot_reduce(pivots, target) == 0
            if not spans:
                label = "{" + ",".join(map(str, columns)) + "}"
                return PlanCheck(False, f"part {part}: columns {label} do not span it")
        last, passed = part, sets
    return PlanCheck(True, None)


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
    code: ArrayCode, holders: Sequence[Sequence[int]], parts: int
) -> Iterator[tuple[int, dict[int, set[int]]]]:
    """For parts 1..`parts` in ascending order, each part that has edges,
    with its pair graph read off the span index as a neighbour map (see
    `_pair_neighbours`); the index is freed before the last map is yielded.

    When only part 1 is built, its holders are left out of the index (see
    `_span_index`).  A part with no lifts has no edges; skipping it keeps
    the cost of a code whose cells touch few of its p parts linear in p.
    """
    index = _span_index(code, holders[0] if parts == 1 else ())
    lifts = _lifts(index, (1 << parts) - 1)
    for part in sorted(lifts):
        neighbours = _pair_neighbours(index, lifts.pop(part), 1 << (part - 1))
        if not lifts:
            del index
        if neighbours:
            yield part, neighbours


def _scanned_edges(
    code: ArrayCode, holders: Sequence[Sequence[int]], parts: int
) -> Iterator[tuple[int, dict[int, set[int]]]]:
    """For parts 1..`parts` in turn, each part that has edges, with its pair
    graph as a neighbour map, found by eliminating every pair of non-holder
    columns whose cells involve the part."""
    pivots = _column_pivots(code)
    rows = [tuple(piv.values()) for piv in pivots]
    involved = []
    for col in code.columns:
        mask = 0
        for cell in col:
            mask |= cell
        involved.append(mask)
    for part in range(1, parts + 1):
        target = 1 << (part - 1)
        held = set(holders[part - 1])
        rest = [j for j in range(code.m) if j not in held]
        neighbours: defaultdict[int, set[int]] = defaultdict(set)
        for a, u in enumerate(rest):
            piv_u = pivots[u]
            inv_u = involved[u]
            for v in rest[a + 1 :]:
                if not ((inv_u | involved[v]) & target):
                    continue
                merged = dict(piv_u)
                for x in rows[v]:
                    pivot_insert(merged, x)
                if pivot_reduce(merged, target) == 0:
                    neighbours[u + 1].add(v + 1)
                    neighbours[v + 1].add(u + 1)
        if neighbours:
            yield part, neighbours


def _use_span_index(code: ArrayCode, holders: Sequence[Sequence[int]]) -> bool:
    """Whether the span index has no more entries than the pair scan has
    candidate pairs, and fits under PAIRS_SPAN_CAP."""
    entries = code.m * ((1 << code.t) - 1)
    if entries > PAIRS_SPAN_CAP:
        return False
    candidates = 0
    for alpha, parts in Counter(map(len, holders)).items():
        rest = code.m - alpha
        candidates += parts * (rest * (rest - 1) // 2)
    return entries <= candidates


def _part_graphs(
    code: ArrayCode, holders: Sequence[Sequence[int]], parts: int
) -> Iterator[tuple[int, IndexedGraph]]:
    """For parts 1..`parts` in turn, each part that has edges, with its pair
    graph checked and indexed: each neighbour map is built from the span
    index or the pair scan, whichever `_use_span_index` judges cheaper, and
    indexed by `IndexedGraph.of`; the span index is freed before the last
    graph is indexed and matched."""
    if _use_span_index(code, holders):
        maps = _indexed_edges(code, holders, parts)
    else:
        maps = _scanned_edges(code, holders, parts)
    for part, neighbours in maps:
        yield part, IndexedGraph.of(neighbours)


def k_pir_pairs(code: ArrayCode) -> VerifyReport:
    """Singleton holders plus maximum pair matching, per part.

    Exact for codes whose optimal recovery sets have size <= 2; otherwise
    the reported k is a valid lower bound.  Each part's pair graph comes
    from the span index or the pair scan, whichever `_use_span_index`
    judges cheaper (see the module docstring), and goes to
    `max_general_matching` as it is indexed.  For a code closed under the
    part rotation only part 1 is matched, and part i+1's pairs are part i's
    mapped by the column map `ArrayCode._rotation`, so each part's sets are
    as many as a matching of its own graph would give.

    Part i is certified when f <= 2*nu + 2, with f = m - alpha_i its
    non-holder columns and nu its matching size.  Some optimal packing
    uses every holder alone; its other sets are a <= nu pairs and b sets of
    three or more columns inside the f non-holders, so 2a + 3b <= f and
    k_i <= alpha_i + min(f // 2, (f + nu) // 3), which alpha_i + nu meets
    exactly when f <= 2*nu + 2.  The index costs O(p*m*2^t) plus one
    visit per element of span(U) & span(V) for every edge {U,V}, with about
    m*2^t index entries in memory; a one-part build leaves part 1's holders
    out of the index.  The c1(8,8) code (m=24310, t=8) is rotation-closed
    and takes 0.9-1.3 s, and the process that builds and verifies it peaks
    at 72 MB RSS (Python 3.11.7, one core of a shared 2-vCPU Xeon VM whose
    speed drifts); the span index is most of both, and the scan would take
    hours there.  A part with no holders and no edges costs one step of two
    loops over the parts, so a header of many parts stored nowhere stays
    cheap.
    """
    holders = code._holders
    image = code._rotation
    pairs = {}
    for part, graph in _part_graphs(code, holders, code.p if image is None else 1):
        pairs[part] = max_general_matching(graph)
        del graph  # free this part's graph before the next one is built
    if image is not None and pairs:
        # part i+1's pairs are part i's mapped through the rotation, each
        # put in order by one comparison (see the module docstring)
        lows = [u for u, _ in pairs[1]]
        highs = [v for _, v in pairs[1]]
        for part in range(2, code.p + 1):
            lows = list(map(image.__getitem__, lows))
            highs = list(map(image.__getitem__, highs))
            pairs[part] = [(u, v) if u < v else (v, u) for u, v in zip(lows, highs)]
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


def _minimal_recovery_masks(rows: list[tuple[int, ...]], p: int) -> list[Sequence[int]]:
    """For each part index (0-based), the sorted column bitmasks of the
    inclusion-minimal sets of columns whose rows span that part; `rows[j]`
    spans column j, and parts that no set of columns spans share one empty
    tuple.

    One search by set size serves every part; its targets are the parts
    that all columns together span, so a part stored nowhere costs nothing.
    Level s keeps each s-column set in which every column adds rank and
    some target is still unspanned, with its pivot rows and those targets.
    Kept sets are grouped by their columns but the highest, and two of a
    group, S + a and S + b with a < b, join into the candidate S + a + b.
    It is tried only when its other s-column subsets are kept too and
    `open`, the targets that none of its s-column subsets spans, is not
    empty; it is dropped when b adds no rank to S + a or its rank equals a
    subset's (that subset's missing column adds none).  A part of `open`
    that the candidate spans is spanned by none of its proper subsets, so
    every set recorded is minimal.  A candidate whose rank is the code's
    rank spans what all columns span, so it is recorded for every part of
    `open` with no elimination, and it is not kept: no target is left
    unspanned in it.  Every proper subset T of a minimal set M is kept: a
    column adding no rank to T adds none to M either, and then M is not
    minimal.  So each minimal set is tried, from its two highest columns,
    and recorded once.
    """
    m = len(rows)
    whole: dict[int, int] = {}  # pivot table of every column
    involved = 0
    for col in rows:
        for row in col:
            pivot_insert(whole, row)
            involved |= row
    found: dict[int, list[int]] = {}  # target part's bit -> its minimal sets
    targets = 0
    while involved:
        bit = involved & -involved
        involved ^= bit
        if pivot_reduce(whole, bit) == 0:
            found[bit] = []
            targets |= bit
    full_rank = len(whole)

    # A kept set is (mask, pivot rows, unspanned targets).  `level` holds
    # one size's by mask, and `groups` the same sets grouped by mask minus
    # the highest column, each group's highest columns ascending.
    level: dict[int, tuple[int, tuple[int, ...], int]] = {}
    for c in range(m):
        pivots: dict[int, int] = {}
        for row in rows[c]:
            pivot_insert(pivots, row)
        unspanned = targets
        for bit, minimal in found.items():
            if pivot_reduce(pivots, bit) == 0:
                minimal.append(1 << c)
                unspanned ^= bit
        if pivots and unspanned:
            level[1 << c] = (1 << c, tuple(pivots.values()), unspanned)
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
            for x, (base, base_rows, base_unspanned) in enumerate(group):
                pivots = None
                joined = []
                for mask, top_rows, top_unspanned in group[x + 1 :]:
                    open_parts = base_unspanned & top_unspanned
                    if not open_parts:
                        continue
                    candidate = base | mask
                    rank = max(len(base_rows), len(top_rows))
                    for bit in others:
                        subset = level.get(candidate ^ bit)
                        if subset is None:
                            break
                        open_parts &= subset[2]
                        if len(subset[1]) > rank:
                            rank = len(subset[1])
                    else:
                        if not open_parts:
                            continue
                        if pivots is None:
                            pivots = {row.bit_length() - 1: row for row in base_rows}
                        trial = pivots
                        for row in rows[mask.bit_length() - 1]:
                            residual = pivot_reduce(trial, row)
                            if residual:
                                if trial is pivots:
                                    trial = dict(pivots)
                                trial[residual.bit_length() - 1] = residual
                        if len(trial) <= rank:
                            continue
                        if len(trial) == full_rank:
                            # it spans what all columns span, so every target
                            while open_parts:
                                bit = open_parts & -open_parts
                                open_parts ^= bit
                                found[bit].append(candidate)
                            continue
                        unspanned = open_parts
                        while open_parts:
                            bit = open_parts & -open_parts
                            open_parts ^= bit
                            if pivot_reduce(trial, bit) == 0:
                                found[bit].append(candidate)
                                unspanned ^= bit
                        if unspanned:
                            entry = (candidate, tuple(trial.values()), unspanned)
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

    At most one set of a packing holds c, so best(mask) is best(mask - c)
    or one more: `best(mask)` scans no candidate when best(mask - c) meets
    UB(mask), stops at the first candidate that raises it, and skips a
    candidate whose remainder's UB, read off its precomputed size and
    |candidate & Q|, is below best(mask - c).  Both minimums are tested as
    two comparisons, with no call per memo state.  Every value stays exact,
    so the sets picked are those of the unbounded search.
    """
    held = paired = 0
    for mask in minimal:
        size = mask.bit_count()
        if size == 1:
            held |= mask
        elif size == 2:
            paired |= mask
    by_low: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for mask in minimal:
        by_low[(mask & -mask).bit_length() - 1].append(
            (mask, mask.bit_count(), (mask & paired).bit_count())
        )
    free = ((1 << m) - 1) ^ held
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        value = best(mask ^ low)
        if low & held:
            value += 1
        else:
            # best(mask - c) packs the holders in mask and `others` other sets
            others = value - (mask & held).bit_count()
            free_in = (mask & free).bit_count()
            if free_in // 2 > others:
                paired_in = (mask & paired).bit_count()
                if (free_in + paired_in // 2) // 3 > others:
                    for candidate, size, pairs in by_low[low.bit_length() - 1]:
                        rest = free_in - size
                        if (
                            candidate & mask == candidate
                            and rest // 2 >= others
                            and (rest + (paired_in - pairs) // 2) // 3 >= others
                            and best(mask ^ candidate) == value
                        ):
                            value += 1
                            break
        memo[mask] = value
        return value

    chosen: list[int] = []
    mask = (1 << m) - 1
    while mask:
        c = (mask & -mask).bit_length() - 1
        score = best(mask)
        picked = None
        for candidate, _, _ in by_low[c]:
            if candidate & mask == candidate and 1 + best(mask ^ candidate) == score:
                picked = candidate
                break
        if picked is None:
            mask &= mask - 1
        else:
            chosen.append(picked)
            mask ^= picked
    return chosen


def k_pir_exhaustive(code: ArrayCode, cap: int = EXHAUSTIVE_CAP) -> VerifyReport:
    """Exact per-part maximum packing of disjoint recovery sets; needs m <= cap.

    `_minimal_recovery_masks` finds every part's minimal recovery sets, each
    once, by one search by set size (its kept sets are the column subsets in
    which every column adds rank and some part is still unspanned), and
    `_max_packing` packs each part's sets by memoized search over column
    bitmasks, which visits up to 2^m masks but stops at the size-aware
    packing bound (see its docstring); a part with no minimal set gets
    k_i = 0 without a search.  With `cap=16`, 72 seeded random codes of 16
    columns (p 5-16, t 2-6) take 0.0003-0.50 s, median 0.011 s; the slowest,
    t <= 3 at p = 16, have 13,000-17,700 minimal sets, and at t = 2
    enumerating them is most of the time.  With `cap=20`, the seeded m=20,
    p=12, t=4 code takes about 0.2 s, the packing most of it (Python
    3.11.7, one core of a shared 2-vCPU Xeon VM).
    """
    if code.m > cap:
        raise CapExceeded(
            f"exhaustive verification of m={code.m} columns exceeds the cap of {cap}; "
            "use k_pir_pairs instead",
            columns=code.m,
        )
    rows = [tuple(piv.values()) for piv in _column_pivots(code)]
    per_part = []
    plan_sets = {}
    for part, minimal in enumerate(_minimal_recovery_masks(rows, code.p), start=1):
        chosen = _max_packing(minimal, code.m) if minimal else []
        per_part.append(len(chosen))
        plan_sets[part] = [parts_of(mask) for mask in chosen]
    return VerifyReport(
        mode="exhaustive",
        m=code.m,
        per_part=tuple(per_part),
        certified=(True,) * code.p,
        plan=RecoveryPlan(plan_sets),
        singleton_bound=singleton_upper_bound(code),
    )
