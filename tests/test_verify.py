import dataclasses
import functools
import gc
import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirarray import (
    ArrayCode,
    ConstructionParams,
    RecoveryPlan,
    VerifyReport,
    build_c1,
    build_c2,
    build_c3,
    build_general_s,
    build_integer_s,
    k_pir_exhaustive,
    k_pir_pairs,
    max_general_matching,
    parse_code,
    serialize_code,
    serialize_plan,
    simulate,
    singleton_census,
    singleton_upper_bound,
    verify_plan,
)
from pirarray import verify as verify_module
from pirarray.errors import CapExceeded
from pirarray.gf2 import parts_of, pivot_insert, pivot_reduce
from pirarray.model import _rotation_image, _singleton_columns
from pirarray.verify import (
    _indexed_edges,
    _mapped,
    _max_packing,
    _minimal_recovery_masks,
    _pair_cost,
    _pair_spans,
    _scanned_edges,
    _span_index,
    _summed_columns,
    _summed_edges,
)

from conftest import FAMILY_BUILDERS, random_column, seeded_code


def test_intro_exhaustive_is_three(intro_code):
    report = k_pir_exhaustive(intro_code)
    assert report.k == 3
    assert report.per_part == (3,) * 12
    assert report.exact
    assert verify_plan(intro_code, report.plan).ok


def test_intro_pairs_agrees(intro_code):
    report = k_pir_pairs(intro_code)
    assert report.k == 3
    assert report.per_part == (3,) * 12
    assert not report.exact
    assert verify_plan(intro_code, report.plan).ok


def test_intro_singleton_bound_is_tight(intro_code):
    assert singleton_upper_bound(intro_code) == Fraction(3)


def test_single_column_code():
    code = ArrayCode.from_columns(3, [[0b001, 0b010, 0b100]])
    report = k_pir_exhaustive(code)
    assert report.k == 1 and report.per_part == (1, 1, 1)
    assert singleton_upper_bound(code) == Fraction(1)


def test_replication_code_bound_equals_m():
    cols = [[0b01, 0b10]] * 5
    code = ArrayCode.from_columns(2, cols)
    assert singleton_upper_bound(code) == Fraction(5)
    assert k_pir_exhaustive(code).k == 5


def test_c1_21_exhaustive_k_seven():
    code = build_c1(2, 1)
    report = k_pir_exhaustive(code)
    assert report.k == 7
    assert k_pir_pairs(code).k == 7


def test_c1_22_bound_and_k():
    code = build_c1(2, 2)
    # every part is a singleton on 4 columns, so the diagnostic gives 4 + 6/2
    assert singleton_upper_bound(code) == Fraction(7)
    assert k_pir_pairs(code).k == 7


def test_pairs_equals_exhaustive_on_family_codes(intro_code):
    for code in (build_c1(1, 1), build_c1(2, 1), build_c1(2, 2), build_c2(3), build_c2(5), build_c3(2), intro_code):
        pairs = k_pir_pairs(code)
        assert pairs.k == k_pir_exhaustive(code).k
        assert all(pairs.certified)


def test_pairs_is_strict_lower_bound_when_sets_need_three_columns():
    # x_1 needs all three columns: (x1+x2) + (x2+x3) + x3
    code = parse_code("PIRCODE v1\np=3 t=1 m=3\n1+2\n2+3\n3\n")
    pairs = k_pir_pairs(code)
    full = k_pir_exhaustive(code)
    assert pairs.per_part[0] == 0 and full.per_part[0] == 1
    assert pairs.certified == (False, True, True)
    assert pairs.k == 0 and full.k == 1
    assert pairs.k <= full.k


def test_k_zero_code_is_reported_not_crashed():
    code = parse_code("PIRCODE v1\np=3 t=1 m=2\n1+2\n2+3\n")
    assert k_pir_exhaustive(code).k == 0


def test_exhaustive_cap_refuses_large_codes():
    code = build_c3(4)  # m = 15
    with pytest.raises(CapExceeded) as err:
        k_pir_exhaustive(code)
    assert err.value.columns == 15
    assert k_pir_exhaustive(code, cap=15).k == 13


def test_verify_plan_examples(intro_code):
    good = RecoveryPlan({5: [{1}, {2}, {3, 4}]})
    assert verify_plan(intro_code, good) == (True, None)

    overlap = RecoveryPlan({5: [{1}, {1, 2}]})
    ok, violation = verify_plan(intro_code, overlap)
    assert not ok and "two recovery sets" in violation

    wrong = RecoveryPlan({3: [{1}]})
    ok, violation = verify_plan(intro_code, wrong)
    assert not ok and "do not span" in violation


def test_verify_plan_reports_range_violations(intro_code):
    ok, violation = verify_plan(intro_code, RecoveryPlan({99: [{1}]}))
    assert not ok and "part 99" in violation
    ok, violation = verify_plan(intro_code, RecoveryPlan({1: [{9}]}))
    assert not ok and "column 9" in violation


def _oracle_verify_plan(code: ArrayCode, plan: RecoveryPlan) -> tuple[bool, str | None]:
    """The reference check: eliminate every cell of every set from scratch."""
    for part in plan.parts():
        if not 1 <= part <= code.p:
            return False, f"part {part} out of range 1..{code.p}"
        used: set[int] = set()
        for columns in plan.sets(part):
            for j in columns:
                if not 1 <= j <= code.m:
                    return False, f"part {part}: column {j} out of range 1..{code.m}"
            if used & set(columns):
                return False, f"part {part}: column {min(used & set(columns))} appears in two recovery sets"
            used.update(columns)
            pivots: dict[int, int] = {}
            for j in columns:
                for cell in code.columns[j - 1]:
                    pivot_insert(pivots, cell)
            if pivot_reduce(pivots, 1 << (part - 1)) != 0:
                return False, f"part {part}: columns {{{','.join(map(str, columns))}}} do not span it"
    return True, None


def test_verify_plan_matches_the_reference_check_on_seeded_plans():
    # plans with sets of 0-4 columns, some overlapping, out of range or not
    # spanning, on codes whose pair and exhaustive plans are also checked
    violations = {
        "part": r"^part \d+ out of range",
        "column": r"^part \d+: column \d+ out of range",
        "overlap": r"appears in two recovery sets$",
        "span": r"do not span it$",
    }
    rng = random.Random(9)
    kinds = set()
    for seed in range(30):
        code = seeded_code(seed, rng.randint(4, 12), rng.randint(3, 8), rng.randint(1, 3))
        plans = [k_pir_pairs(code).plan, k_pir_exhaustive(code).plan]
        for _ in range(20):
            parts = rng.sample(range(0, code.p + 2), rng.randint(1, code.p))
            plans.append(
                RecoveryPlan(
                    {
                        part: [rng.sample(range(1, code.m + 2), rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
                        for part in parts
                    }
                )
            )
        for plan in plans:
            found = verify_plan(code, plan)
            assert tuple(found) == _oracle_verify_plan(code, plan)
            if found.ok:
                kinds.add("ok")
            else:
                kinds.update(kind for kind, pattern in violations.items() if re.search(pattern, found.violation))
    assert kinds == {"ok", *violations}


def test_verify_plan_names_the_first_violation_in_set_order():
    # odd columns store x1 and even ones x2; part 1's sets are ascending
    # singletons of odd columns and {1,19}, plus out-of-range, overlapping
    # and non-spanning sets led by columns 4, 8 and 12 in every order and
    # combination, so the part-wide range and disjointness tests must not
    # change which violation is named first
    code = ArrayCode.from_columns(2, [[1 if j % 2 else 2] for j in range(1, 21)])
    bad = {
        "range": lambda lead: ((lead, 21), "part 1: column 21 out of range 1..20"),
        "overlap": lambda lead: ((lead, 19), "part 1: column 19 appears in two recovery sets"),
        "span": lambda lead: ((lead,), f"part 1: columns {{{lead}}} do not span it"),
    }
    good = [(1, 19), (3,), (5,), (7,), (9,), (11,), (13,), (15,), (17,)]
    assert verify_plan(code, RecoveryPlan({1: good, 2: [(2,), (6,)]})) == (True, None)
    for size in range(1, 4):
        for kinds in permutations(bad, size):
            made = [bad[kind](lead) for kind, lead in zip(kinds, (4, 8, 12))]
            plan = RecoveryPlan({1: good + [columns for columns, _ in made], 2: [(2,), (6,)]})
            found = verify_plan(code, plan)
            assert found == (False, made[0][1])
            assert tuple(found) == _oracle_verify_plan(code, plan)


# Codes closed under the part rotation, whose pair plans take the mapped
# parts of verify_plan, and c2(5), which is not closed and has m <= 14.
PLAN_CHECK_CODES = {
    "c1(3,2)": lambda: build_c1(3, 2),
    "c1(4,4)": lambda: build_c1(4, 4),
    "c3(6)": lambda: build_c3(6),
    "integer(3,2)": lambda: build_integer_s(3, 2),
    "general(7/3,3)": lambda: build_general_s(Fraction(7, 3), 3),
    "c2(5)": lambda: build_c2(5),
}


def _mutated_plans(code: ArrayCode, plan: RecoveryPlan, rng: random.Random) -> dict[str, list[RecoveryPlan]]:
    """Seeded changes of `plan` in one part q >= 2 each, by kind."""
    kinds: dict[str, list[RecoveryPlan]] = {}
    parts = plan.parts()
    for q in rng.sample(parts[1:], min(3, len(parts) - 1)):
        sets = [list(columns) for columns in plan.sets(q)]
        used = {j for columns in sets for j in columns}
        unused = [j for j in range(1, code.m + 1) if j not in used]
        a, b = rng.sample(range(len(sets)), 2)
        x, y = rng.randrange(len(sets[a])), rng.randrange(len(sets[b]))

        def with_part(new_sets, part=q, drop=()):
            return RecoveryPlan({**{r: plan.sets(r) for r in parts if r not in drop}, part: new_sets})

        swapped = [list(columns) for columns in sets]
        swapped[a][x], swapped[b][y] = swapped[b][y], swapped[a][x]
        kinds.setdefault("swapped column", []).append(with_part(swapped))
        if unused:
            moved = [list(columns) for columns in sets]
            moved[a][x] = rng.choice(unused)
            kinds["swapped column"].append(with_part(moved))
        kinds.setdefault("dropped set", []).append(with_part(sets[:a] + sets[a + 1 :]))
        added = rng.sample(range(1, code.m + 1), rng.randint(1, 3))
        kinds.setdefault("added set", []).append(with_part(sets + [added]))
        kinds.setdefault("overlap", []).append(
            with_part([columns + [sets[b][y]] if i == a else columns for i, columns in enumerate(sets)])
        )
        kinds["overlap"].append(with_part(sets + [sets[a]]))  # a repeated set
        image = code._rotation
        if image is not None:  # part q - 1's sets mapped by the column map, one of them twice
            mapped = sorted(sorted(image[j] for j in columns) for columns in plan.sets(q - 1))
            repeated = with_part(mapped + [rng.choice(mapped)])
            kinds.setdefault("repeated image set", []).append(repeated)
        kinds.setdefault("out of range", []).append(
            with_part([columns[:x] + [code.m + 1] + columns[x + 1 :] if i == a else columns for i, columns in enumerate(sets)])
        )
        target = 1 << (q - 1)
        lone = [j for j in range(1, code.m + 1) if target not in code.columns[j - 1] and j not in used]
        if lone:
            kinds.setdefault("not spanning", []).append(with_part(sets[:a] + [[rng.choice(lone)]] + sets[a + 1 :]))
        for r in (q - 1, q + 1):
            if r in parts:  # a valid set list, but another part's
                kinds.setdefault("not spanning", []).append(with_part(plan.sets(r)))
        merged = [sorted(sets[a] + sets[b])] + [columns for i, columns in enumerate(sets) if i not in (a, b)]
        kinds.setdefault("valid, not the image", []).append(with_part(merged))
        # part q follows part q - 2: with part q - 1's sets (which span
        # e_(q-1)) and with its own
        kinds.setdefault("non-contiguous parts", []).append(with_part(plan.sets(q - 1), drop=(q - 1,)))
        kinds["non-contiguous parts"].append(with_part(plan.sets(q), drop=(q - 1,)))
    return kinds


def test_mapped_plan_parts_match_the_reference_check():
    outcomes = set()
    for label, build in PLAN_CHECK_CODES.items():
        code = build()
        assert (code._rotation is None) == (label == "c2(5)")
        rng = random.Random(label)
        bases = [k_pir_pairs(code).plan]
        if code.m <= 14:
            bases.append(k_pir_exhaustive(code).plan)
        for base in bases:
            assert verify_plan(code, base) == (True, None)
            for kind, plans in _mutated_plans(code, base, rng).items():
                for plan in plans:
                    found = verify_plan(code, plan)
                    assert tuple(found) == _oracle_verify_plan(code, plan), (label, kind)
                    if kind == "repeated image set":
                        assert found.violation.endswith("appears in two recovery sets")
                    outcomes.add((kind, found.ok))
    assert {kind for kind, ok in outcomes if not ok} == {
        "swapped column",
        "added set",
        "overlap",
        "repeated image set",
        "out of range",
        "not spanning",
        "non-contiguous parts",
    }
    assert {kind for kind, ok in outcomes if ok} >= {"dropped set", "valid, not the image", "non-contiguous parts"}


def _counted(monkeypatch, name: str) -> list[int]:
    """A one-item list that counts the calls to `verify.<name>` from now on."""
    calls = [0]
    original = getattr(verify_module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(verify_module, name, counted)
    return calls


def _pair_plan_tests(code: ArrayCode, plan: RecoveryPlan, monkeypatch) -> tuple[int, int]:
    """How many `_pair_spans` tests and `pivot_insert` calls `verify_plan`
    makes on `plan`, which must pass."""
    spans, inserts = _counted(monkeypatch, "_pair_spans"), _counted(monkeypatch, "pivot_insert")
    assert verify_plan(code, plan) == (True, None)
    monkeypatch.undo()
    return spans[0], inserts[0]


def test_a_rotation_closed_pair_plan_eliminates_part_1_only(monkeypatch):
    code = build_c1(5, 5)
    plan = k_pir_pairs(code).plan
    whole = _pair_plan_tests(code, plan, monkeypatch)
    assert any(len(columns) > 1 for columns in plan.sets(1))
    # each of part 1's two-column sets is tested once, by four ANDs, and
    # no cell is eliminated
    pairs = sum(len(columns) == 2 for columns in plan.sets(1))
    assert whole == _pair_plan_tests(code, RecoveryPlan({1: plan.sets(1)}), monkeypatch) == (pairs, 0)
    assert pairs > 0


def test_a_rotation_closed_plan_of_two_sum_columns_eliminates_part_1_only(monkeypatch):
    # columns of two sums have no (T, S) keys: part 1's sets are eliminated,
    # each multi-column set inserting each of its columns' t cells once
    code = parse_code("PIRCODE v1\np=3 t=2 m=6\n1+2;2+3\n2+3;1+3\n1+2;1+3\n1;2\n2;3\n1;3\n")
    assert code._one_sum is None and code._rotation is not None
    plan = k_pir_pairs(code).plan
    inserts = code.t * sum(len(columns) for columns in plan.sets(1) if len(columns) > 1)
    assert inserts > 0
    assert _pair_plan_tests(code, plan, monkeypatch) == (0, inserts)
    assert _pair_plan_tests(code, RecoveryPlan({1: plan.sets(1)}), monkeypatch) == (0, inserts)


def _census(code: ArrayCode) -> list[int]:
    """alpha_i by a walk over every cell."""
    alpha = [0] * code.p
    for col in code.columns:
        for cell in col:
            if cell & (cell - 1) == 0:
                alpha[cell.bit_length() - 1] += 1
    return alpha


def test_cached_holders_and_column_map_are_not_seen():
    names = ("p", "columns", "t", "m", "s")
    assert tuple(field.name for field in dataclasses.fields(ArrayCode)) == names
    for build in PLAN_CHECK_CODES.values():
        code = build()
        text = serialize_code(code)
        assert "_holders" not in vars(code) and "_rotation" not in vars(code)
        report = k_pir_pairs(code)
        assert verify_plan(code, report.plan).ok
        fresh = parse_code(text)
        assert "_holders" not in vars(fresh) and "_rotation" not in vars(fresh)
        assert code == fresh and hash(code) == hash(fresh) and repr(code) == repr(fresh)
        assert code._holders == _singleton_columns(fresh)
        assert code._rotation == _rotation_image(fresh, _singleton_columns(fresh))
        assert tuple(field.name for field in dataclasses.fields(ArrayCode)) == names
        # a one-part plan never computes the map
        assert verify_plan(fresh, RecoveryPlan({2: report.plan.sets(2)})).ok
        assert "_rotation" not in vars(fresh)
        # a session checks its whole plan, through the rotation, as a sweep does
        simulate.retrieve(simulate.Fleet(code=fresh, seed=1), report.plan, 2)
        assert vars(fresh)["_rotation"] == code._rotation


def test_singleton_census_reads_the_cached_holders_unchanged():
    codes = [build() for build in FAMILY_BUILDERS.values()]
    for family, t, d, s in [*GOLDEN_PLAN_SHA256, *ROTATION_CLOSED]:
        codes.append(ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s)).build())
    rng = random.Random(50)
    for seed in range(50):
        p = rng.randint(2, 12)
        codes.append(seeded_code(seed, rng.randint(1, 20), p, rng.randint(1, min(p, 4))))
    for code in codes:
        assert singleton_census(code) == _census(code)
        assert singleton_upper_bound(code) == Fraction(code.m + min(_census(code)), 2)


def test_reports_respect_singleton_diagnostic():
    for code in (build_c1(2, 2), build_c2(3), build_c3(2)):
        report = k_pir_pairs(code)
        bound = report.singleton_bound
        assert report.k <= bound.numerator // bound.denominator


def test_rate_property():
    report = k_pir_pairs(build_c1(2, 2))
    assert report.rate == Fraction(7, 10)


def test_plans_have_per_part_counts(intro_code):
    report = k_pir_exhaustive(intro_code)
    for part in range(1, 13):
        assert report.plan.k_for(part) == report.per_part[part - 1]
    assert report.plan.plan_k == report.k


@functools.lru_cache(maxsize=32)
def _oracle_edges(code: ArrayCode, part: int) -> tuple[tuple[int, int], ...]:
    """The quadratic reference scan: eliminate every pair of columns that
    do not hold the part alone.  Cached, since on the largest family codes
    it takes seconds and two tests check part 1 of each against it."""
    target = 1 << (part - 1)
    holders = set(_singleton_columns(code)[part - 1])
    rest = [j for j in range(code.m) if j not in holders]
    edges = []
    for a, u in enumerate(rest):
        for v in rest[a + 1 :]:
            pivots: dict[int, int] = {}
            for cell in code.columns[u] + code.columns[v]:
                pivot_insert(pivots, cell)
            if pivot_reduce(pivots, target) == 0:
                edges.append((u + 1, v + 1))
    return tuple(edges)


def _as_neighbours(edges: Sequence[tuple[int, int]]) -> dict[int, set[int]]:
    """The neighbour map of an edge list: each endpoint -> its neighbours."""
    neighbours: dict[int, set[int]] = {}
    for u, v in edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    return neighbours


def _oracle_plan(code: ArrayCode, parts: int | None = None) -> RecoveryPlan:
    """Singleton holders plus a maximum matching on the oracle's pair graph,
    for parts 1..`parts` (every part by default)."""
    sets_by_part = {}
    for part, holders in enumerate(_singleton_columns(code)[:parts], start=1):
        sets = [frozenset({j + 1}) for j in sorted(holders)]
        edges = _oracle_edges(code, part)
        if edges:
            sets.extend(frozenset(e) for e in max_general_matching(_as_neighbours(edges)))
        sets_by_part[part] = sets
    return RecoveryPlan(sets_by_part)


def _check_pair_plan(code: ArrayCode, parts: int | None = None) -> list[int] | None:
    """Check `k_pir_pairs(code)` against `_oracle_plan(code, parts)` and
    return the code's rotation map.  With no map the plans are equal.  With
    one, part 1's sets equal the oracle's, every part has as many sets as
    each oracle part (the parts' pair graphs are isomorphic), part i+1's
    sets are part i's mapped by the map, and `verify_plan` passes."""
    report, oracle = k_pir_pairs(code), _oracle_plan(code, parts)
    image = _rotation_image(code, _singleton_columns(code))
    if image is None:
        assert report.plan == oracle
        return None
    plan = report.plan
    assert plan.sets(1) == oracle.sets(1)
    assert report.per_part == (oracle.k_for(1),) * code.p
    assert {oracle.k_for(part) for part in oracle.parts()} == {oracle.k_for(1)}
    for part in range(1, code.p):
        mapped = sorted(tuple(sorted(map(image.__getitem__, columns))) for columns in plan.sets(part))
        assert plan.sets(part + 1) == tuple(mapped)
    assert verify_plan(code, plan).ok
    return image


def test_seeded_codes_refuse_more_cells_than_parts():
    # over fewer than t parts no t cells are independent, so drawing them
    # would never end
    with pytest.raises(ValueError, match="no 5 independent cells over 2 parts"):
        seeded_code(0, 3, 2, 5)
    with pytest.raises(ValueError, match="no 3 independent cells over 2 parts"):
        random_column(random.Random(0), 6, 3, 2, 0b11)


@st.composite
def valid_codes(draw, max_m: int, max_p: int = 14, max_t: int = 6, duplicates: bool = False) -> ArrayCode:
    """Random codes under the singleton convention.  Parts above `used` are
    stored nowhere; with `chain` set, columns 1-3 hold x1+x2, x2+x3 and x3,
    which often leaves x1 recoverable only from three columns.  With
    `duplicates`, some columns may repeat earlier ones."""
    p = draw(st.integers(1, max_p))
    t = draw(st.integers(1, min(max_t, p)))
    used = draw(st.integers(t, p))
    m = draw(st.integers(1, max_m))
    chain = used >= 3 and m >= 3 and draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    forced = [0b011, 0b110, 0b100] if chain else []
    columns = [
        random_column(rng, p, t, used, forced[j] if j < len(forced) else 0) for j in range(m)
    ]
    if duplicates:
        for j in range(1, m):
            if draw(st.integers(0, 3)) == 0:
                columns[j] = columns[draw(st.integers(0, j - 1))]
    return ArrayCode.from_columns(p, columns)


@st.composite
def summed_codes(draw, max_p: int = 9) -> ArrayCode:
    """Random codes whose columns are t singletons, or t-1 singletons plus
    the sum of every other part, some repeated.  Half of them hold each
    column with all its part rotations, so they are closed under the
    rotation, and the rest mostly are not."""
    p = draw(st.integers(2, max_p))
    t = draw(st.integers(1, p - 1))
    rotated = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    units = [1 << i for i in range(p)]
    columns = []
    for _ in range(draw(st.integers(1, 4 if rotated else 14))):
        if draw(st.booleans()):
            columns.append(rng.sample(units, t))
        else:
            singles = rng.sample(units, t - 1)
            columns.append([*singles, (1 << p) - 1 - sum(singles)])
    if rotated:
        columns = [[_rotated(cell, p, steps) for cell in col] for steps in range(p) for col in columns]
    return ArrayCode.from_columns(p, columns)


def _oracle_parts(code: ArrayCode) -> list:
    """The oracle's (part, neighbour map) for each part that has edges."""
    oracle = []
    for part in range(1, code.p + 1):
        edges = _oracle_edges(code, part)
        if edges:
            oracle.append((part, _as_neighbours(edges)))
    return oracle


@settings(max_examples=150, deadline=None)
@given(valid_codes(max_m=40))
def test_both_edge_paths_match_quadratic_oracle(code):
    # each path yields the parts that have edges, in ascending order
    holders = _singleton_columns(code)
    oracle = _oracle_parts(code)
    assert list(_indexed_edges(code, holders, code.p)) == oracle
    assert list(_scanned_edges(code, holders, code.p)) == oracle
    # every part with edges is held by some sum cell, so k_pir_pairs may skip the rest
    sums = functools.reduce(int.__or__, (cell for col in code.columns for cell in col if cell & (cell - 1)), 0)
    assert all(sums >> (part - 1) & 1 for part, _ in oracle)
    _check_one_part_index(code)
    _check_pair_plan(code)


@settings(max_examples=100, deadline=None)
@given(summed_codes())
def test_summed_edges_match_quadratic_oracle(code):
    # a code of singletons and sums that cover the parts, read off its
    # cells, gives every other builder's graphs, part 1's alone too
    holders = _singleton_columns(code)
    kinds = _summed_columns(code)
    assert kinds is not None
    oracle = _oracle_parts(code)
    assert list(_summed_edges(kinds, code.p)) == oracle
    assert list(_indexed_edges(code, holders, code.p)) == oracle
    assert list(_scanned_edges(code, holders, code.p)) == oracle
    assert list(_summed_edges(kinds, 1)) == [edges for edges in oracle if edges[0] == 1]
    _check_pair_plan(code)


@st.composite
def one_sum_codes(draw, max_p: int = 10) -> tuple[ArrayCode, bool]:
    """A random code whose columns are t singletons, or t-1 singletons T and
    one other cell S, and whether it is sure to be closed under the rotation.

    S has at least two parts outside T, so that `ArrayCode` admits the
    column, and each of T's parts with even odds, so that S often overlaps
    T.  Half of the codes hold each column with all its part rotations, one
    orbit twice, shuffled, each column's cells in a shuffled order, and of
    those half lose one column; the other half repeat some columns.
    """
    p = draw(st.integers(3, max_p))
    t = draw(st.integers(1, p - 2))
    rotated = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    columns = []
    for _ in range(draw(st.integers(1, 3 if rotated else 8))):
        parts = rng.sample(range(p), p)
        singles = [1 << i for i in parts[: t - 1]]
        if rng.random() < 0.25:
            columns.append([*singles, 1 << parts[t - 1]])
        else:
            outside = parts[t - 1 :]
            total = sum(1 << i for i in rng.sample(outside, rng.randint(2, len(outside))))
            total |= sum(cell for cell in singles if rng.random() < 0.5)
            columns.append([*singles, total])
    closed = False
    if rotated:
        columns = [[_rotated(cell, p, steps) for cell in col] for col in columns for steps in range(p)]
        columns += columns[:p]
        rng.shuffle(columns)
        columns = [rng.sample(col, len(col)) for col in columns]
        closed = draw(st.booleans())
        if not closed:
            del columns[rng.randrange(len(columns))]
    else:
        columns += [rng.choice(columns) for _ in range(rng.randint(0, 3))]
        rng.shuffle(columns)
    return ArrayCode.from_columns(p, columns), closed


@settings(max_examples=150, deadline=None)
@given(one_sum_codes())
def test_one_sum_walk_matches_the_generic_holders_and_column_map(drawn):
    code, closed = drawn
    walked = code._one_sum
    assert walked is not None
    holders, units, sums = walked
    for col, unit, total in zip(code.columns, units, sums):
        assert set(col) == {1 << (part - 1) for part in parts_of(unit)} | ({total} - {0})
    assert holders == _singleton_columns(code)
    image = _rotation_image(code, holders)
    assert code._rotation == image
    if closed:
        assert image is not None
    assert code._holders is holders


@settings(max_examples=150, deadline=None)
@given(one_sum_codes())
def test_four_and_span_test_equals_elimination(drawn):
    code = drawn[0]
    _, units, sums = code._one_sum
    for u, v in combinations(range(code.m), 2):
        pivots: dict[int, int] = {}
        for cell in code.columns[u] + code.columns[v]:
            pivot_insert(pivots, cell)
        for part in range(1, code.p + 1):
            bit = 1 << (part - 1)
            spans = pivot_reduce(pivots, bit) == 0
            assert _pair_spans(bit, units[u], sums[u], units[v], sums[v]) == spans


def test_codes_with_two_sums_in_a_column_take_the_generic_walks():
    codes = [parse_code("PIRCODE v1\np=3 t=2 m=4\n1+2;2+3\n1;2\n2;3\n1;3\n")]
    codes += [seeded_code(seed, 12, 8, 3) for seed in range(5)]
    for code in codes:
        assert code._one_sum is None
        assert code._holders == _singleton_columns(code)
        assert code._rotation == _rotation_image(code, _singleton_columns(code))


def _pairs_and_builders(code: ArrayCode) -> tuple[VerifyReport, list[tuple[str, int]]]:
    """`k_pir_pairs(code)` and each pair-edge builder it called, by name,
    with the parts it asked of it."""
    builders = ("_summed_edges", "_indexed_edges", "_scanned_edges")
    spies = [mock.patch.object(verify_module, name, wraps=getattr(verify_module, name)) for name in builders]
    mocks = [spy.start() for spy in spies]
    try:
        report = k_pir_pairs(code)
    finally:
        for spy in spies:
            spy.stop()
    return report, [(name, call.args[-2]) for name, spy in zip(builders, mocks) for call in spy.call_args_list]


@settings(max_examples=100, deadline=None)
@given(valid_codes(max_m=10))
def test_pairs_never_beats_exhaustive_on_small_codes(code):
    pairs, full = k_pir_pairs(code), k_pir_exhaustive(code)
    assert pairs.k <= full.k
    assert all(a <= b for a, b in zip(pairs.per_part, full.per_part))
    assert all(a == b for a, b, sure in zip(pairs.per_part, full.per_part, pairs.certified) if sure)
    assert full.certified == (True,) * code.p
    assert verify_plan(code, pairs.plan).ok
    assert verify_plan(code, full.plan).ok


# (m, p, t) of seeded random codes, seeds 0-2, on whose 168 parts pair mode
# is exact 88 times and certifies 86 of them; m=16, p=12, t=3 and m=16, p=8,
# t=2 certify no part.
CERTIFICATE_SHAPES = ((14, 6, 2), (14, 8, 3), (16, 10, 4), (16, 12, 3), (16, 8, 2), (14, 12, 5))


def _certificate_cases() -> list[tuple[ArrayCode, list[int], VerifyReport, VerifyReport]]:
    """Per code: the code, alpha_i per part, and its pair and exhaustive
    reports at cap=m; the seeded codes come first, then family codes."""
    codes = [seeded_code(seed, *shape) for seed in range(3) for shape in CERTIFICATE_SHAPES]
    codes += [build_c2(t) for t in (9, 11, 13, 15, 17, 19)] + [build_c3(t) for t in (4, 6, 8, 10)]
    codes += [build_c1(3, 1), build_c1(4, 1)]
    return [
        (code, list(map(len, _singleton_columns(code))), k_pir_pairs(code), k_pir_exhaustive(code, cap=code.m))
        for code in codes
    ]


def test_certified_pair_counts_equal_the_exhaustive_ones():
    seeded = len(CERTIFICATE_SHAPES) * 3
    certified = exact = 0
    for position, (code, _, pairs, full) in enumerate(_certificate_cases()):
        assert len(pairs.certified) == code.p
        assert full.certified == (True,) * code.p
        assert not pairs.exact and full.exact
        for got, best, sure in zip(pairs.per_part, full.per_part, pairs.certified):
            assert got <= best
            if sure:
                assert got == best
        if position < seeded:
            certified += sum(pairs.certified)
            exact += sum(map(int.__eq__, pairs.per_part, full.per_part))
        else:  # every family part meets the certificate
            assert all(pairs.certified)
    assert (certified, exact) == (86, 88)


def test_pair_certificate_bound_is_never_below_the_exhaustive_count():
    for code, alphas, pairs, full in _certificate_cases():
        for alpha, got, best in zip(alphas, pairs.per_part, full.per_part):
            f, nu = code.m - alpha, got - alpha
            assert alpha + min(f // 2, (f + nu) // 3) >= best


# SHA-256 of the PIRPLAN text of these codes' pair plans.  Every family but
# c2 is closed under the part rotation, so its plan is part 1's matching with
# each next part's sets mapped through the rotation; c1 with d = t keeps the
# digest of matching every part on its own, since each part's pair graph is a
# perfect matching there.  The first two were first pinned from the quadratic
# pair scan; the next six are the family-verify benchmark codes.  c1 is read
# off its cells, c2 and c3 take the pair scan, every other code the span index.
GOLDEN_PLAN_SHA256 = {
    ("integer", 3, None, 3): "34b44d5685d6d1aa97975bffc9694d40b557fdf35b90787c8710886807b87fae",
    ("c1", 6, 6, None): "30c9ac1e759436d07b18110938deb49c92a3a3aea2ef182b7bf95ed7631caa64",
    ("integer", 2, None, 3): "a061f61c283791066ff07db4c9a0645f8b55e24daebd2ca62ef2f4abc8d5a291",
    ("general", 3, None, "7/3"): "bb09ba3e822d705715c86c14467b5c728a25e112ab43d1f1ef35ecdc730a002a",
    ("c1", 6, 3, None): "79b5c1b388f1a22116370a5bfedcf409afcc94261ccbd1c86ebc380bd0c7e283",
    ("c1", 5, 5, None): "4dcfd2b0dcadac721b4cee60e2ad13afe367de759282da773ed477162c9a71a3",
    ("c1", 5, 3, None): "4e254fd20a14ad7e85e07c92f40a4aa164f6315e4e1df830a7852959b6f32379",
    ("general", 3, None, "8/3"): "78ee45cfce613315af9411ecea7da2ff16b05bb90200cac2527c40ac15121e8e",
    ("c2", 15, None, None): "33d93af8cbcbb5a13807d22dbe318a87d08423de5ced416f65deb0511682e3b0",
    ("c3", 14, None, None): "df86ed0d803316c09c6aa628d4c0ddce60be90f949be5724dd5046ee5bf3e471",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_PLAN_SHA256, key=str))
def test_pair_plans_at_scale_are_unchanged(key):
    family, t, d, s = key
    params = ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s))
    code = params.build()
    assert (_summed_columns(code) is not None) == (family in ("c1", "c2", "c3"))
    report, builders = _pairs_and_builders(code)
    # c1 is read off its cells; c2(15) and c3(14), a few non-holders per
    # part, take the scan; the ladders of integer and general s the index
    taken = {"c1": "_summed_edges", "c2": "_scanned_edges", "c3": "_scanned_edges"}.get(family, "_indexed_edges")
    assert [name for name, _ in builders] == [taken]
    assert (code.m, report.k) == params.predicted_counts()
    assert all(report.certified)
    assert verify_plan(code, report.plan).ok
    digest = hashlib.sha256(serialize_plan(report.plan).encode()).hexdigest()
    assert digest == GOLDEN_PLAN_SHA256[key]


ROTATION_CLOSED = sorted(
    [(family, t, d, s) for family, t, d, s in GOLDEN_PLAN_SHA256 if family != "c2"]
    + [("c3", t, None, None) for t in range(4, 17, 2)]
    + [("c1", 3, 1, None)],
    key=str,
)


def _check_one_part_index(code: ArrayCode) -> None:
    """Part 1's graph from the span index built without part 1's holders,
    as a one-part build makes it, equals the oracle's, and no holder is in
    that index."""
    holders = _singleton_columns(code)
    edges = _oracle_edges(code, 1)
    assert list(_indexed_edges(code, holders, 1)) == ([(1, _as_neighbours(edges))] if edges else [])
    skipped = {j + 1 for j in holders[0]}
    assert all(skipped.isdisjoint(columns) for columns in _span_index(code, holders[0]).values())


def test_only_singletons_and_one_covering_sum_are_read_off_the_cells():
    def kinds(rows: str, p: int):
        return _summed_columns(parse_code(f"PIRCODE v1\np={p} t=2 m={rows.count(chr(10))}\n{rows}"))

    assert kinds("1;2+3\n1;2\n1;2+3\n", 3) == [((1,), 1, 6, [1, 3]), ((1, 2), 3, 0, [2])]
    assert kinds("1+2;3+4\n", 4) is None  # two sums
    assert kinds("1;1+2+3\n", 3) is None  # a sum that overlaps a singleton
    assert kinds("1;2+3\n", 4) is None  # a sum that leaves part 4 out


SUMMED_FAMILIES = sorted({key for key in [*GOLDEN_PLAN_SHA256, *ROTATION_CLOSED] if key[0] in ("c1", "c2", "c3")})


@pytest.mark.parametrize("key", SUMMED_FAMILIES, ids=str)
def test_summed_edges_match_the_other_paths_on_family_codes(key):
    # every part's graph as the span index or the scan builds it, and part
    # 1's as the oracle finds it
    family, t, d, _ = key
    code = ConstructionParams(family, t, d=d).build()
    holders = _singleton_columns(code)
    kinds = _summed_columns(code)
    edges = _indexed_edges if _pair_cost(code, holders)[0] else _scanned_edges
    assert list(_summed_edges(kinds, code.p)) == list(edges(code, holders, code.p))
    oracle = _oracle_edges(code, 1)
    assert list(_summed_edges(kinds, 1)) == ([(1, _as_neighbours(oracle))] if oracle else [])


@pytest.mark.parametrize("key", ROTATION_CLOSED, ids=str)
def test_one_part_index_matches_the_oracle(key):
    family, t, d, s = key
    code = ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s)).build()
    assert _singleton_columns(code)[0]
    _check_one_part_index(code)


@pytest.mark.parametrize("key", ROTATION_CLOSED, ids=str)
def test_rotated_part_graphs_equal_the_built_ones(key):
    # part i+1's pair graph, built on its own, is part i's with every column
    # renamed by the rotation map, so part 1's matching mapped part to part
    # is a maximum matching of every part
    family, t, d, s = key
    code = ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s)).build()
    image = _check_pair_plan(code, parts=1)
    assert image is not None
    assert sorted(image[1:]) == list(range(1, code.m + 1))
    holders = _singleton_columns(code)
    edges = _indexed_edges if _pair_cost(code, holders)[0] else _scanned_edges
    built = [neighbours for _, neighbours in edges(code, holders, code.p)]
    assert len(built) == code.p
    for part, neighbours in enumerate(built):
        renamed = {image[u]: {image[v] for v in near} for u, near in neighbours.items()}
        assert renamed == built[(part + 1) % code.p]


@pytest.mark.parametrize("key", ROTATION_CLOSED, ids=str)
def test_pair_plan_parts_are_the_part_before_mapped(key, monkeypatch):
    # part i+1's sets are part i's through verify_plan's own `_mapped`, so
    # verify_plan eliminates part 1's sets and no other part's
    family, t, d, s = key
    code = ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s)).build()
    plan = k_pir_pairs(code).plan
    for part in range(1, code.p):
        assert plan.sets(part + 1) == tuple(_mapped(code._rotation, plan.sets(part)))
    # every family column is singletons plus at most one other cell, so each
    # of part 1's two-column sets takes one four-AND test, and none is eliminated
    assert code._one_sum is not None
    pairs = sum(len(columns) == 2 for columns in plan.sets(1))
    assert all(len(columns) <= 2 for columns in plan.sets(1))
    assert _pair_plan_tests(code, plan, monkeypatch) == (pairs, 0)


def test_codes_not_closed_under_rotation_get_no_column_map():
    codes = [build_c2(t) for t in range(9, 16, 2)]
    codes += [seeded_code(seed, *shape) for seed, shape in enumerate(GOLDEN_RANDOM_SHAPES * 2)]
    for code in codes:
        assert _rotation_image(code, _singleton_columns(code)) is None


def _reference_rotation_image(code: ArrayCode, holders) -> tuple[int, ...] | None:
    """The column map with every column keyed and rotated cell by cell on
    its own, repeated columns mapping in order of occurrence."""
    p = code.p
    if len({len(held) for held in holders}) != 1:
        return None
    full = (1 << p) - 1
    union = parity = 0
    for col in code.columns:
        for cell in col:
            union |= cell
            parity ^= cell
    if union != full or parity not in (0, full):
        return None
    by_cells: dict[frozenset[int], list[int]] = {}
    for j in range(code.m, 0, -1):
        by_cells.setdefault(frozenset(code.columns[j - 1]), []).append(j)
    image = [0]
    for col in code.columns:
        same = by_cells.get(frozenset(_rotated(cell, p, 1) for cell in col))
        if not same:
            return None
        image.append(same.pop())
    return tuple(image)


def test_rotation_image_matches_the_per_column_reference():
    codes = [build() for build in (*FAMILY_BUILDERS.values(), *PLAN_CHECK_CODES.values())]
    for family, t, d, s in [*GOLDEN_PLAN_SHA256, *ROTATION_CLOSED]:
        codes.append(ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s)).build())
    repeats = [code for code in (build_c1(5, 3), build_c3(6)) if len(set(code.columns)) < code.m]
    assert len(repeats) == 2
    codes += repeats
    rng = random.Random(27)
    for seed in range(50):
        p = rng.randint(2, 8)
        base = seeded_code(seed, rng.randint(1, 4), p, rng.randint(1, min(p, 4)))
        # every column with all its rotations, one orbit twice, shuffled;
        # then the same with one column dropped, and the base code itself
        columns = [[_rotated(cell, p, steps) for cell in col] for col in base.columns for steps in range(p)]
        columns += columns[:p]
        rng.shuffle(columns)
        codes += [ArrayCode(p, columns), ArrayCode(p, columns[1:]), base]
    mapped = 0
    for code in codes:
        holders = _singleton_columns(code)
        image = _rotation_image(code, holders)
        assert image == _reference_rotation_image(code, holders)
        mapped += image is not None
    assert mapped > 50


def test_a_rotation_closed_span_stored_in_other_bases_falls_back():
    # {x1+x2, x2+x3} spans the even-weight vectors, which the rotation fixes,
    # but its rotated cells {x2+x3, x1+x3} are stored in no column
    code = parse_code("PIRCODE v1\np=3 t=2 m=4\n1+2;2+3\n1;2\n2;3\n1;3\n")
    assert _rotation_image(code, _singleton_columns(code)) is None
    report = k_pir_pairs(code)
    assert report.per_part == (3, 3, 3)
    assert report.plan == _oracle_plan(code)
    # stored in all three rotated bases, the same span takes the column map
    closed = parse_code("PIRCODE v1\np=3 t=2 m=6\n1+2;2+3\n2+3;1+3\n1+2;1+3\n1;2\n2;3\n1;3\n")
    assert _check_pair_plan(closed) is not None


def _rotated(cell: int, p: int, steps: int) -> int:
    full = (1 << p) - 1
    return ((cell << steps) | (cell >> (p - steps))) & full


@settings(max_examples=60, deadline=None)
@given(valid_codes(max_m=5, max_p=8, max_t=4, duplicates=True))
def test_pair_plans_of_rotation_closed_codes_match_the_oracle(base):
    # every column with all its part rotations: the verifier takes the map
    columns = [
        [_rotated(cell, base.p, steps) for cell in col]
        for steps in range(base.p)
        for col in base.columns
    ]
    code = ArrayCode.from_columns(base.p, columns)
    assert _check_pair_plan(code) is not None


@pytest.mark.parametrize("family,t", [("c3", 18), ("c2", 19)])
def test_narrow_codes_with_large_t_verify_by_scan(family, t):
    # m * (2^t - 1) is ~15M span elements but the candidate pairs number
    # 114 (c3) or 20 (c2) in all, and the cells' key-sized subsets, 703 or
    # 11,800, are more than those too, so the code is not read off its cells
    params = ConstructionParams(family, t)
    code = params.build()
    assert _summed_columns(code) is not None and not _pair_cost(code, _singleton_columns(code))[0]
    report, builders = _pairs_and_builders(code)
    assert builders == [("_scanned_edges", 1 if code._rotation is not None else code.p)]
    assert (code.m, report.k) == params.predicted_counts()
    assert all(report.certified)
    assert verify_plan(code, report.plan).ok


def test_pairs_time_does_not_grow_faster_than_header_p():
    # two copies of x_1 and 199999 parts stored nowhere: every part costs a
    # k_i, but no part may cost work proportional to p
    p = 200000
    start = time.perf_counter()
    report = k_pir_pairs(parse_code(f"PIRCODE v1\np={p} t=1 m=2\n1\n1\n"))
    elapsed = time.perf_counter() - start
    assert report.k == 0
    assert len(report.per_part) == p
    assert report.per_part[0] == 2
    assert report.singleton_bound == Fraction(1)
    assert elapsed < 1.0


def test_exhaustive_time_does_not_grow_with_parts_stored_nowhere():
    # a 12-column code over parts 1-5 under a header of 20000 parts: the
    # shared search starts from the parts all columns span, and a part with
    # no recovery set gets k_i = 0 without a packing search
    small = seeded_code(0, 12, 5, 2)
    start = time.perf_counter()
    report = k_pir_exhaustive(ArrayCode.from_columns(20000, small.columns))
    elapsed = time.perf_counter() - start
    assert report.per_part[:5] == k_pir_exhaustive(small).per_part
    assert len(report.per_part) == 20000
    assert not any(report.per_part[5:])
    assert report.k == 0
    assert elapsed < 1.0


def test_pairs_verifies_codes_whose_span_index_exceeds_the_cap():
    # one column of 24 singletons: a short file, but 2^24 - 1 span elements
    code = ArrayCode.from_columns(24, [[1 << (i - 1) for i in range(1, 25)]])
    report = k_pir_pairs(code)
    assert report.per_part == (1,) * 24
    assert verify_plan(code, report.plan).ok


def _oracle_minimal_masks(code: ArrayCode, part: int) -> list[int]:
    """The size-ordered reference enumeration: every column subset by size,
    skipping supersets of the minimal sets found so far."""
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
                for cell in code.columns[j]:
                    pivot_insert(pivots, cell)
            if pivot_reduce(pivots, target) == 0:
                minimal.append(mask)
    minimal.sort()
    return minimal


def _oracle_packing(minimal: list[int], m: int) -> list[int]:
    """The reference packing: candidates indexed under every column they contain."""
    by_column: list[list[int]] = [[] for _ in range(m)]
    for mask in minimal:
        for c in range(m):
            if mask & (1 << c):
                by_column[c].append(mask)
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        if mask not in memo:
            c = (mask & -mask).bit_length() - 1
            value = best(mask & (mask - 1))
            for candidate in by_column[c]:
                if candidate & mask == candidate:
                    value = max(value, 1 + best(mask & ~candidate))
            memo[mask] = value
        return memo[mask]

    chosen: list[int] = []
    mask = (1 << m) - 1
    while mask:
        c = (mask & -mask).bit_length() - 1
        score = best(mask)
        for candidate in by_column[c]:
            if candidate & mask == candidate and 1 + best(mask & ~candidate) == score:
                chosen.append(candidate)
                mask &= ~candidate
                break
        else:
            mask &= mask - 1
    return chosen


def _oracle_exhaustive_plan(code: ArrayCode) -> RecoveryPlan:
    """Per part, the reference packing of the reference enumeration's minimal sets."""
    sets_by_part = {}
    for part in range(1, code.p + 1):
        chosen = _oracle_packing(_oracle_minimal_masks(code, part), code.m)
        sets_by_part[part] = [
            frozenset(j + 1 for j in range(code.m) if mask >> j & 1) for mask in chosen
        ]
    return RecoveryPlan(sets_by_part)


@settings(max_examples=200, deadline=None)
@given(valid_codes(max_m=10, max_p=9, max_t=9, duplicates=True))
def test_exhaustive_enumeration_matches_size_ordered_oracle(code):
    found = _minimal_recovery_masks(code.columns, code.p)
    assert len(found) == code.p
    for part in range(1, code.p + 1):
        assert list(found[part - 1]) == _oracle_minimal_masks(code, part)
    report = k_pir_exhaustive(code)
    oracle = _oracle_exhaustive_plan(code)
    assert report.per_part == tuple(oracle.k_for(part) for part in range(1, code.p + 1))
    assert serialize_plan(report.plan) == serialize_plan(oracle)


def test_a_column_made_redundant_by_a_later_one_is_in_no_recorded_set():
    # column 1's cells are x1+x2, stored by column 2, and x3+x4, stored by
    # column 3, so {1,2,3} has the rank of {2,3}: column 3 adds rank to
    # {1,2} but makes column 1 redundant, and no set holding all three is
    # minimal for a part
    code = ArrayCode.from_columns(
        5, [[0b00011, 0b01100], [0b00011, 0b10000], [0b01100, 0b00001], [0b01000, 0b10010]]
    )
    found = _minimal_recovery_masks(code.columns, code.p)
    for part in range(1, code.p + 1):
        assert list(found[part - 1]) == _oracle_minimal_masks(code, part)
    assert list(found[4]) == [0b0010, 0b1101]
    assert all(mask & 0b111 != 0b111 for masks in found for mask in masks)


# (m, p, t) of seeded random codes past the hypothesis codes' 10 columns;
# seed 0 each.
LARGE_ENUMERATION_SHAPES = ((16, 16, 2), (16, 16, 3), (18, 10, 4), (20, 12, 4))
# SHA-256 over every part of those codes, in order, of its sorted masks as
# comma-joined decimals and a newline, as the depth-first enumeration with
# its same-top leaf filter produced them (commit 5d4c43a).
GOLDEN_LARGE_ENUMERATION_SHA256 = "a1b83f79248e7359439616d407428f1de0b3f626209ecb65ef357498333e6724"


def test_enumeration_past_the_hypothesis_sizes_is_unchanged():
    # the size-ordered oracle would take minutes here; it is compared on the
    # hypothesis codes and on the hand-built case above
    digest = hashlib.sha256()
    total = 0
    for shape in LARGE_ENUMERATION_SHAPES:
        code = seeded_code(0, *shape)
        for masks in _minimal_recovery_masks(code.columns, code.p):
            digest.update((",".join(map(str, masks)) + "\n").encode())
            total += len(masks)
    assert total == 41_692
    assert digest.hexdigest() == GOLDEN_LARGE_ENUMERATION_SHA256


# Parts a wide code's cells use: both sides of bit 63 (part 64), with parts
# 6-61 and 67-69 stored nowhere.
WIDE_PARTS = (1, 2, 3, 4, 5, 62, 63, 64, 65, 66, 70)


@pytest.mark.parametrize("seed, m, t", [(0, 8, 2), (1, 9, 3), (2, 10, 2), (3, 10, 4)])
def test_enumeration_on_cells_past_bit_63_matches_the_oracle(seed, m, t):
    narrow = seeded_code(seed, m, len(WIDE_PARTS), t)
    columns = [
        [sum(1 << WIDE_PARTS[i - 1] - 1 for i in parts_of(cell)) for cell in column] for column in narrow.columns
    ]
    code = ArrayCode.from_columns(70, columns)
    found = _minimal_recovery_masks(code.columns, code.p)
    assert len(found) == 70
    for part in range(1, 71):
        if part in WIDE_PARTS:
            assert list(found[part - 1]) == _oracle_minimal_masks(code, part)
        else:
            assert found[part - 1] == ()
    assert any(found[63]) and any(found[:5])


# (m, p, t) of the seeded random codes in the exhaustive golden set; seed = position.
GOLDEN_RANDOM_SHAPES = (
    (12, 5, 2), (12, 8, 3), (12, 12, 4), (12, 10, 5),
    (13, 6, 2), (13, 9, 3), (13, 11, 4), (13, 7, 2),
    (14, 5, 2), (14, 8, 3), (14, 6, 3), (14, 10, 4),
)
# SHA-256 of the concatenated PIRPLAN texts of the exhaustive plans for the
# intro code, c1(2,2), c2(5), c3(2) and the seeded random codes above, as the
# size-ordered enumeration produced them.
GOLDEN_EXHAUSTIVE_SHA256 = "692a4fb67e5f22f069a5bbb7fb5dc3dc20a1e6652cc18d7eee0fd37d9a584d60"


def _golden_exhaustive_codes(intro_code) -> list[ArrayCode]:
    codes = [intro_code, build_c1(2, 2), build_c2(5), build_c3(2)]
    codes += [seeded_code(seed, *shape) for seed, shape in enumerate(GOLDEN_RANDOM_SHAPES)]
    return codes


# (m, p, t) of seeded random codes past the golden set's m <= 14, on which
# the packing's search makes 9-135x fewer calls than the unbounded oracle
# memoizes masks; seed = 100 + position.
BOUNDED_RANDOM_SHAPES = ((15, 6, 2), (15, 8, 3), (15, 10, 4), (16, 5, 2), (16, 8, 3), (16, 7, 2))
# (m, p, t) of seeded random codes on which 90-98% of the minimal sets have
# three or more columns, so the size-aware part of the packing bound is what
# prunes; seed = 200 + position.
LARGE_SET_SHAPES = ((16, 12, 5), (16, 16, 6), (18, 10, 4))
ORACLE_CASES = (
    *enumerate(BOUNDED_RANDOM_SHAPES, start=100),
    *enumerate(LARGE_SET_SHAPES, start=200),
)


@pytest.mark.parametrize("position", range(len(ORACLE_CASES)))
def test_bounded_packing_matches_the_unbounded_oracle(position):
    seed, shape = ORACLE_CASES[position]
    code = seeded_code(seed, *shape)
    masks = _minimal_recovery_masks(code.columns, code.p)
    if shape in LARGE_SET_SHAPES:
        sizes = [mask.bit_count() for minimal in masks for mask in minimal]
        assert sum(size >= 3 for size in sizes) > 0.8 * len(sizes)
    sets_by_part = {}
    for part, minimal in enumerate(masks, start=1):
        chosen = _oracle_packing(list(minimal), code.m)
        sets_by_part[part] = [
            frozenset(j + 1 for j in range(code.m) if mask >> j & 1) for mask in chosen
        ]
    report = k_pir_exhaustive(code, cap=code.m)
    assert verify_plan(code, report.plan).ok
    assert serialize_plan(report.plan) == serialize_plan(RecoveryPlan(sets_by_part))


def _random_antichain(rng: random.Random, m: int) -> list[int]:
    """A seeded inclusion-minimal family of column masks on m columns, sorted:
    up to m // 3 one-column sets and 1 to 3m draws of 2 to 5 columns, less
    every draw that holds another."""
    columns = range(m)
    drawn = {1 << c for c in rng.sample(columns, rng.randint(0, m // 3))}
    for _ in range(rng.randint(1, 3 * m)):
        drawn.add(sum(1 << c for c in rng.sample(columns, min(m, rng.choice((2, 2, 3, 3, 4, 5))))))
    return sorted(mask for mask in drawn if not any(other != mask and other & mask == other for other in drawn))


def _packing_bound(minimal: list[int], m: int) -> int:
    """The size-aware bound `_max_packing` starts its search at, on all m columns."""
    held = paired = 0
    for mask in minimal:
        if mask.bit_count() == 1:
            held |= mask
        elif mask.bit_count() == 2:
            paired |= mask
    free = m - held.bit_count()
    return held.bit_count() + min(free // 2, (free + paired.bit_count() // 2) // 3)


def test_downward_packing_search_matches_the_oracle_on_synthetic_families():
    # the search starts at the bound and steps down to the maximum, so the
    # families must include bounds 1 and 2 or more above it
    gaps = set()
    sizes = set()
    for seed in range(500):
        rng = random.Random(seed)
        m = rng.randint(2, 12)
        minimal = _random_antichain(rng, m)
        chosen = _oracle_packing(minimal, m)
        assert _max_packing(minimal, m) == chosen, seed
        gaps.add(min(_packing_bound(minimal, m) - len(chosen), 2))
        sizes.update(min(mask.bit_count(), 3) for mask in minimal)
    assert gaps == {0, 1, 2}
    assert sizes == {1, 2, 3}


def test_exhaustive_plans_are_unchanged(intro_code):
    digest = hashlib.sha256()
    for code in _golden_exhaustive_codes(intro_code):
        report = k_pir_exhaustive(code)
        assert verify_plan(code, report.plan).ok
        digest.update(serialize_plan(report.plan).encode())
    assert digest.hexdigest() == GOLDEN_EXHAUSTIVE_SHA256


# SHA-256 of the PIRPLAN text of seeded_code(0, 20, 12, 4)'s exhaustive plan
# at cap=20, as the packing bounded only by |mask & H| + |mask - H| // 2
# produced it (commit 91d0f7d, 4.9 s on one core of a 2-vCPU Xeon VM).
GOLDEN_M20_SHA256 = "68322b1e4a1f0a285cb5768cca57ea864871e8ddf9d7647ed5a8aee18c91c0fc"


def test_exhaustive_plan_of_a_twenty_column_code_is_unchanged():
    code = seeded_code(0, 20, 12, 4)
    report = k_pir_exhaustive(code, cap=20)
    assert report.k == 8
    assert verify_plan(code, report.plan).ok
    assert hashlib.sha256(serialize_plan(report.plan).encode()).hexdigest() == GOLDEN_M20_SHA256


def test_exhaustive_mode_leaves_no_cyclic_garbage(intro_code):
    # the packing search's memoized closure must not outlive the call as a
    # reference cycle: with the collector off, nothing is left for it to free
    codes = [intro_code] + [seeded_code(seed, m, 8, 3) for seed, m in ((1, 12), (2, 13), (3, 14))]
    gc.collect()
    gc.disable()
    try:
        for code in codes:
            assert k_pir_exhaustive(code).k > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_code_of_singletons_only_builds_no_pair_graph(monkeypatch):
    # 100 columns of 16 singletons over p = 1400: no sum cell holds a part,
    # so no part has pair edges and no pair graph is built: not from the
    # cells, nor the span index (100 * 65535 vectors of 1400 bits), nor
    # the pair scan
    rows = (";".join(map(str, sorted((16 * j + r) % 1400 + 1 for r in range(16)))) for j in range(100))
    text = "PIRCODE v1\np=1400 t=16 m=100\n" + "\n".join(rows) + "\n"
    assert len(text.encode()) == 6614
    code = parse_code(text)

    def refused(*args):
        raise AssertionError("a pair graph was built")

    monkeypatch.setattr(verify_module, "_indexed_edges", refused)
    monkeypatch.setattr(verify_module, "_scanned_edges", refused)
    monkeypatch.setattr(verify_module, "_summed_edges", refused)
    start = time.perf_counter()
    report = k_pir_pairs(code)
    assert time.perf_counter() - start < 1.0
    assert report.k == 1
    assert all(len(columns) == 1 for part in report.plan.parts() for columns in report.plan.sets(part))
    # the plan of the full scan, which finds no edge
    digest = hashlib.sha256(serialize_plan(report.plan).encode()).hexdigest()
    assert digest == "bef88887d3ab26f79147cbcb0cf9ec27baaefe7dc8376949b2a4011f6382d5dd"


def test_a_long_sum_less_a_part_takes_the_pair_scan():
    # column 1 holds parts 22-60 and the sum of parts 1-21, columns 2 and 3
    # parts 2-41 and 21-60: part 1's one key, parts 2-21, lies inside
    # column 2's 40 singletons, where the 20-part subsets number
    # C(40, 20) ~ 1.4e11, against at most 3 candidate pairs per part, so
    # the code is not read off its cells
    rows = [
        ";".join(map(str, range(22, 61))) + ";" + "+".join(map(str, range(1, 22))),
        ";".join(map(str, range(2, 42))),
        ";".join(map(str, range(21, 61))),
    ]
    text = "PIRCODE v1\np=60 t=40 m=3\n" + "\n".join(rows) + "\n"
    assert len(text.encode()) == 428
    code = parse_code(text)
    assert _summed_columns(code) is not None and code._rotation is None
    start = time.perf_counter()
    report, builders = _pairs_and_builders(code)
    assert time.perf_counter() - start < 1.0
    assert [name for name, _ in builders] == ["_scanned_edges"]
    assert report.k == 1
    assert report.plan.sets(1) == ((1, 2),)
    # the plan of the pair scan
    digest = hashlib.sha256(serialize_plan(report.plan).encode()).hexdigest()
    assert digest == "50965e2a6818793ebe02e24468409fdb8ef569b47e3a22e0f4ca68f34449c927"
