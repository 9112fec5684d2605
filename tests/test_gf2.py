import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pirarray.errors import ParameterError
from pirarray.gf2 import orthogonal_cut, parts_of, pivot_insert, pivot_reduce

from conftest import INTRO_TEXT
from pirarray import ArrayCode, parse_code


def pv(*parts):
    return sum(1 << (i - 1) for i in parts)


def span_bruteforce(vectors):
    """All XOR combinations of the vectors' bit patterns."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def pivots_of(vectors):
    """The kernel's pivot table after inserting every vector."""
    pivots = {}
    for v in vectors:
        pivot_insert(pivots, v)
    return pivots


def rank(vectors):
    return len(pivots_of(vectors))


def in_span(vectors, target):
    return pivot_reduce(pivots_of(vectors), target) == 0


def columns_cells(code, columns):
    return [cell for j in sorted(columns) for cell in code.columns[j - 1]]


def test_rank_empty():
    assert rank([]) == 0


def test_rank_duplicate_vector():
    v = pv(1, 3)
    assert rank([v, v]) == 1


def test_rank_intro_column_one():
    code = parse_code(INTRO_TEXT)
    assert rank(code.columns[0]) == 7


def test_in_span_intro_recovery_sets():
    code = parse_code(INTRO_TEXT)
    assert in_span(columns_cells(code, {3, 4}), pv(5))
    assert in_span(columns_cells(code, {1, 4}), pv(11))


def test_in_span_empty_is_zero_only():
    assert in_span([], 0)
    assert not in_span([], pv(1))


def test_out_of_range_cells_rejected():
    # the kernel works on bare ints, so a cell's range is checked where it
    # enters a code: no negative cell, no zero cell and no part above p
    for bad, message in ((-1, "a negative cell -1"), (0, "a zero cell"), (pv(5), "a cell with a part above p=4")):
        with pytest.raises(ParameterError, match=f"^column 2 holds {message}$"):
            ArrayCode.from_columns(4, [[pv(1), pv(2)], [pv(3), bad], [bad, pv(4)]])


def test_parts_of():
    v = pv(10, 11, 12)
    assert parts_of(v) == (10, 11, 12)
    assert parts_of(pv(7)) == (7,)
    assert parts_of(0b111) == (1, 2, 3)
    assert parts_of(0) == ()
    assert parts_of(1 << 299 | 1) == (1, 300)


def _parts_one_by_one(bits):
    """The part-by-part walk: each step copies the int, so it is quadratic
    in a dense vector's width."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


def test_parts_of_matches_the_part_by_part_walk_at_every_width():
    # vectors of more than 64 parts take the byte walk, so each width gets a
    # dense vector and vectors of 63, 64 and 65 parts where they fit
    rng = random.Random(36)
    widths = sorted({*range(1, 200), *range(200, 4097, 7), 255, 256, 257, 511, 512, 513, 4095, 4096})
    for width in widths:
        top = 1 << width - 1
        vectors = [top, rng.getrandbits(width) | top]
        for count in (63, 64, 65):
            if count <= width:
                vectors.append(top | sum(1 << i for i in rng.sample(range(width - 1), count - 1)))
        for bits in vectors:
            assert parts_of(bits) == _parts_one_by_one(bits), (width, bits)


def test_parts_of_a_vector_of_every_part_is_linear():
    width = 1 << 18
    start = time.perf_counter()
    assert parts_of((1 << width) - 1) == tuple(range(1, width + 1))
    # the part-by-part walk took seconds here
    assert time.perf_counter() - start < 1
    assert parts_of((1 << width) - 1 ^ 1 << 70) == tuple(p for p in range(1, width + 1) if p != 71)


vectors_strategy = st.integers(min_value=3, max_value=8).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=0, max_value=2**p - 1), max_size=6),
        st.integers(min_value=0, max_value=2**p - 1),
    )
)


@given(vectors_strategy)
def test_rank_matches_bruteforce_span(case):
    _, vs, _ = case
    assert 2 ** rank(vs) == len(span_bruteforce(vs))


@given(vectors_strategy)
def test_in_span_matches_bruteforce(case):
    _, vs, target = case
    assert in_span(vs, target) == (target in span_bruteforce(vs))


@given(vectors_strategy)
def test_rank_monotone_under_extension(case):
    _, vs, extra = case
    before = rank(vs)
    after = rank(vs + [extra])
    assert before <= after <= before + 1


@given(vectors_strategy)
def test_in_span_invariant_under_permutation_and_reduction(case):
    _, vs, target = case
    expected = in_span(vs, target)
    if len(vs) <= 4:
        for perm in permutations(vs):
            assert in_span(list(perm), target) == expected
    reduced = list(pivots_of(vs).values())
    assert in_span(reduced, target) == expected


def test_incremental_basis_matches_batch():
    vs = [pv(1, 2), pv(2, 3), pv(1, 3), pv(4)]
    pivots = {}
    grew = [pivot_insert(pivots, v) for v in vs]
    assert grew == [True, True, False, True]
    assert len(pivots) == rank(vs) == 3
    snapshot = dict(pivots)
    pivot_insert(pivots, pv(5))
    assert len(snapshot) == 3 and len(pivots) == 4


def test_generated_columns_have_full_rank():
    from pirarray import build_c1

    code = build_c1(3, 2)
    for col in code.columns:
        assert rank(col) == code.t


def _cut_cases():
    """Seeded cell lists at widths on both sides of bit 63, each with
    dependent cells, a repeated cell and a zero cell mixed in, plus the
    empty list."""
    yield 5, []
    for width in (1, 3, 8, 62, 63, 64, 65, 70):
        for seed in range(6):
            rng = random.Random(width * 100 + seed)
            cells = [rng.getrandbits(width) | 1 << rng.randrange(width) for _ in range(rng.randint(1, width + 2))]
            for _ in range(3):
                a, b = rng.sample(range(len(cells)), 2) if len(cells) > 1 else (0, 0)
                cells.insert(rng.randrange(len(cells) + 1), cells[a] ^ cells[b])
            cells.insert(rng.randrange(len(cells) + 1), rng.choice(cells))
            cells.insert(rng.randrange(len(cells) + 1), 0)
            yield width, cells


@pytest.mark.parametrize("width, cells", list(_cut_cases()))
def test_orthogonal_cut_keeps_the_parity_checks_of_the_span(width, cells):
    rng = random.Random(width + len(cells))
    dual = [1 << i for i in range(width)]
    pivots = {}
    for n, cell in enumerate(cells, start=1):
        cut = orthogonal_cut(dual, cell)
        assert (cut is None) == (not pivot_insert(pivots, cell))
        if cut is not None:
            dual = cut
        assert width - len(dual) == len(pivots)
        assert all((check & earlier).bit_count() % 2 == 0 for check in dual for earlier in cells[:n])
        inside = 0
        for earlier in cells[:n]:
            if rng.getrandbits(1):
                inside ^= earlier
        for vector in (inside, rng.getrandbits(width), inside ^ 1 << rng.randrange(width)):
            orthogonal = all((check & vector).bit_count() % 2 == 0 for check in dual)
            assert orthogonal == (pivot_reduce(pivots, vector) == 0)
    assert len(dual) == width - rank(cells)
