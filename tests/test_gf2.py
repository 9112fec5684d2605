from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pirarray.errors import DimensionError, ParameterError
from pirarray.gf2 import PartVector, pivot_insert, pivot_reduce

from conftest import INTRO_TEXT
from pirarray import ArrayCode, parse_code


def pv(p, *parts):
    return PartVector.from_parts(p, parts)


def span_bruteforce(vectors):
    """All XOR combinations of the vectors' bit patterns."""
    out = {0}
    for v in vectors:
        out |= {x ^ v.bits for x in out}
    return out


def pivots_of(vectors):
    """The kernel's pivot table after inserting every vector."""
    pivots = {}
    for v in vectors:
        pivot_insert(pivots, v.bits)
    return pivots


def rank(vectors):
    return len(pivots_of(vectors))


def in_span(vectors, target):
    return pivot_reduce(pivots_of(vectors), target.bits) == 0


def columns_cells(code, columns):
    return [cell for j in sorted(columns) for cell in code.columns[j - 1]]


def test_rank_empty():
    assert rank([]) == 0


def test_rank_duplicate_vector():
    v = pv(5, 1, 3)
    assert rank([v, v]) == 1


def test_rank_intro_column_one():
    code = parse_code(INTRO_TEXT)
    assert rank(code.columns[0]) == 7


def test_in_span_intro_recovery_sets():
    code = parse_code(INTRO_TEXT)
    assert in_span(columns_cells(code, {3, 4}), PartVector.singleton(12, 5))
    assert in_span(columns_cells(code, {1, 4}), PartVector.singleton(12, 11))


def test_in_span_empty_is_zero_only():
    assert in_span([], PartVector.zero(4))
    assert not in_span([], PartVector.singleton(4, 1))


def test_dimension_mismatch_rejected():
    # the kernel works on bare ints, so lengths are checked where vectors
    # enter: a part outside the length, and a code mixing cell lengths
    with pytest.raises(DimensionError):
        pv(4, 5)
    with pytest.raises(ParameterError, match="length 5, expected p=4"):
        ArrayCode.from_columns(4, [[pv(4, 1), pv(5, 2)]])


def test_partvector_basics():
    v = pv(12, 10, 11, 12)
    assert v.parts() == (10, 11, 12)
    assert v.weight() == 3
    assert not v.is_singleton()
    assert PartVector.singleton(12, 7).singleton_part() == 7
    with pytest.raises(DimensionError):
        PartVector(3, 8)  # bit outside the length
    with pytest.raises(DimensionError):
        PartVector.singleton(3, 4)
    assert PartVector(3, 0b111).parts() == (1, 2, 3)
    with pytest.raises(DimensionError, match="do not fit in length 3"):
        PartVector(3, -1)


vectors_strategy = st.integers(min_value=3, max_value=8).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=0, max_value=2**p - 1), max_size=6),
        st.integers(min_value=0, max_value=2**p - 1),
    )
)


@given(vectors_strategy)
def test_rank_matches_bruteforce_span(case):
    p, raw, _ = case
    vs = [PartVector(p, bits) for bits in raw]
    assert 2 ** rank(vs) == len(span_bruteforce(vs))


@given(vectors_strategy)
def test_in_span_matches_bruteforce(case):
    p, raw, target = case
    vs = [PartVector(p, bits) for bits in raw]
    assert in_span(vs, PartVector(p, target)) == (target in span_bruteforce(vs))


@given(vectors_strategy)
def test_rank_monotone_under_extension(case):
    p, raw, extra = case
    vs = [PartVector(p, bits) for bits in raw]
    before = rank(vs)
    after = rank(vs + [PartVector(p, extra)])
    assert before <= after <= before + 1


@given(vectors_strategy)
def test_in_span_invariant_under_permutation_and_reduction(case):
    p, raw, target = case
    vs = [PartVector(p, bits) for bits in raw]
    tgt = PartVector(p, target)
    expected = in_span(vs, tgt)
    if len(vs) <= 4:
        for perm in permutations(vs):
            assert in_span(list(perm), tgt) == expected
    reduced = [PartVector(p, row) for row in pivots_of(vs).values()]
    assert in_span(reduced, tgt) == expected


def test_incremental_basis_matches_batch():
    p = 6
    vs = [pv(p, 1, 2), pv(p, 2, 3), pv(p, 1, 3), pv(p, 4)]
    pivots = {}
    grew = [pivot_insert(pivots, v.bits) for v in vs]
    assert grew == [True, True, False, True]
    assert len(pivots) == rank(vs) == 3
    snapshot = dict(pivots)
    pivot_insert(pivots, pv(p, 5).bits)
    assert len(snapshot) == 3 and len(pivots) == 4


def test_generated_columns_have_full_rank():
    from pirarray import build_c1

    code = build_c1(3, 2)
    for col in code.columns:
        assert rank(col) == code.t
