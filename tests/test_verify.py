import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirarray import (
    ArrayCode,
    ConstructionParams,
    PairGraph,
    PartVector,
    RecoveryPlan,
    build_c1,
    build_c2,
    build_c3,
    k_pir_exhaustive,
    k_pir_pairs,
    max_general_matching,
    parse_code,
    serialize_plan,
    singleton_upper_bound,
    verify_plan,
)
from pirarray.errors import CapExceeded
from pirarray.gf2 import pivot_insert, pivot_reduce
from pirarray.verify import (
    _indexed_edges,
    _scanned_edges,
    _singleton_columns,
    _use_span_index,
)


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
    code = ArrayCode.from_columns(3, [[PartVector.singleton(3, i) for i in (1, 2, 3)]])
    report = k_pir_exhaustive(code)
    assert report.k == 1 and report.per_part == (1, 1, 1)
    assert singleton_upper_bound(code) == Fraction(1)


def test_replication_code_bound_equals_m():
    cols = [[PartVector.singleton(2, 1), PartVector.singleton(2, 2)]] * 5
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
        assert k_pir_pairs(code).k == k_pir_exhaustive(code).k


def test_pairs_is_strict_lower_bound_when_sets_need_three_columns():
    # x_1 needs all three columns: (x1+x2) + (x2+x3) + x3
    code = parse_code("PIRCODE v1\np=3 t=1 m=3\n1+2\n2+3\n3\n")
    pairs = k_pir_pairs(code)
    full = k_pir_exhaustive(code)
    assert pairs.per_part[0] == 0 and full.per_part[0] == 1
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


def _oracle_edges(code: ArrayCode, part: int, holders: set[int]) -> list[tuple[int, int]]:
    """The quadratic reference scan: eliminate every pair of non-holder columns."""
    target = 1 << (part - 1)
    rest = [j for j in range(code.m) if j not in holders]
    edges = []
    for a, u in enumerate(rest):
        for v in rest[a + 1 :]:
            pivots: dict[int, int] = {}
            for cell in code.columns[u] + code.columns[v]:
                pivot_insert(pivots, cell.bits)
            if pivot_reduce(pivots, target) == 0:
                edges.append((u + 1, v + 1))
    return edges


def _oracle_plan(code: ArrayCode) -> RecoveryPlan:
    """Singleton holders plus a maximum matching on the oracle's pair graph."""
    sets_by_part = {}
    for part, holders in enumerate(_singleton_columns(code), start=1):
        sets = [frozenset({j + 1}) for j in sorted(holders)]
        edges = _oracle_edges(code, part, holders)
        if edges:
            graph = PairGraph.general_graph({v for e in edges for v in e}, edges)
            sets.extend(frozenset(e) for e in max_general_matching(graph))
        sets_by_part[part] = sets
    return RecoveryPlan(sets_by_part)


def _random_column(rng: random.Random, p: int, t: int, used: int, forced: int) -> list[int]:
    """t cells over parts 1..used spanning a random space that contains `forced`
    (when nonzero), storing every singleton of that space as a cell."""
    span: dict[int, int] = {}
    cells = [forced] if forced else []
    for bits in cells:
        pivot_insert(span, bits)
    while len(cells) < t:
        bits = rng.randrange(1, 1 << used)
        if pivot_insert(span, bits):
            cells.append(bits)
    singletons = [1 << i for i in range(p) if pivot_reduce(span, 1 << i) == 0]
    basis: dict[int, int] = {}
    return [bits for bits in singletons + cells if pivot_insert(basis, bits)][:t]


@st.composite
def valid_codes(draw, max_m: int) -> ArrayCode:
    """Random codes under the singleton convention.  Parts above `used` are
    stored nowhere; with `chain` set, columns 1-3 hold x1+x2, x2+x3 and x3,
    which often leaves x1 recoverable only from three columns."""
    p = draw(st.integers(1, 14))
    t = draw(st.integers(1, min(6, p)))
    used = draw(st.integers(t, p))
    m = draw(st.integers(1, max_m))
    chain = used >= 3 and m >= 3 and draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    forced = [0b011, 0b110, 0b100] if chain else []
    columns = [
        _random_column(rng, p, t, used, forced[j] if j < len(forced) else 0) for j in range(m)
    ]
    return ArrayCode.from_columns(p, [[PartVector(p, bits) for bits in col] for col in columns])


@settings(max_examples=150, deadline=None)
@given(valid_codes(max_m=40))
def test_both_edge_paths_match_quadratic_oracle(code):
    holders = _singleton_columns(code)
    oracle = [_oracle_edges(code, part, held) for part, held in enumerate(holders, start=1)]
    assert list(_indexed_edges(code)) == oracle
    assert list(_scanned_edges(code, holders)) == oracle
    assert k_pir_pairs(code).plan == _oracle_plan(code)


@settings(max_examples=100, deadline=None)
@given(valid_codes(max_m=10))
def test_pairs_never_beats_exhaustive_on_small_codes(code):
    pairs, full = k_pir_pairs(code), k_pir_exhaustive(code)
    assert pairs.k <= full.k
    assert all(a <= b for a, b in zip(pairs.per_part, full.per_part))
    assert verify_plan(code, pairs.plan).ok
    assert verify_plan(code, full.plan).ok


# SHA-256 of the PIRPLAN text the quadratic pair scan produced for these codes.
GOLDEN_PLAN_SHA256 = {
    ("integer", 3, None, 3): "93780efcf99edd72c9ae61e56add9c8c0aa6eb67eb70fa899df3ed097445f5e3",
    ("c1", 6, 6, None): "30c9ac1e759436d07b18110938deb49c92a3a3aea2ef182b7bf95ed7631caa64",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_PLAN_SHA256, key=str))
def test_pair_plans_at_scale_are_unchanged(key):
    family, t, d, s = key
    params = ConstructionParams(family, t, d=d, s=None if s is None else Fraction(s))
    code = params.build()
    assert _use_span_index(code, _singleton_columns(code))
    report = k_pir_pairs(code)
    assert (code.m, report.k) == params.predicted_counts()
    assert verify_plan(code, report.plan).ok
    digest = hashlib.sha256(serialize_plan(report.plan).encode()).hexdigest()
    assert digest == GOLDEN_PLAN_SHA256[key]


@pytest.mark.parametrize("family,t", [("c3", 18), ("c2", 19)])
def test_narrow_codes_with_large_t_verify_by_scan(family, t):
    # m * (2^t - 1) is ~15M span elements but only ~2K candidate pairs
    params = ConstructionParams(family, t)
    code = params.build()
    assert not _use_span_index(code, _singleton_columns(code))
    report = k_pir_pairs(code)
    assert (code.m, report.k) == params.predicted_counts()
    assert verify_plan(code, report.plan).ok


def test_pairs_verifies_codes_whose_span_index_exceeds_the_cap():
    # one column of 24 singletons: a short file, but 2^24 - 1 span elements
    code = ArrayCode.from_columns(24, [[PartVector.singleton(24, i) for i in range(1, 25)]])
    report = k_pir_pairs(code)
    assert report.per_part == (1,) * 24
    assert verify_plan(code, report.plan).ok
