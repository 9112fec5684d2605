import hashlib
from fractions import Fraction
from math import ceil, comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pirarray import (
    ConstructionParams,
    build_c1,
    build_c2,
    build_c3,
    build_general_s,
    build_integer_s,
    parse_code,
    serialize_code,
    singleton_census,
    solve_xi,
)
from pirarray import constructions
from pirarray.constructions import (
    FAMILIES,
    c1_counts,
    c2_counts,
    c3_counts,
    general_s_counts,
    integer_s_counts,
)
from pirarray.errors import CapExceeded, ParameterError
from pirarray.gf2 import parts_of


# ---------------------------------------------------------------------------
# xi solver


def test_solve_xi_frozen_values():
    assert solve_xi(3, 2) == (3, 1, 4)
    assert solve_xi(4, 2) == (15, 3, 4, 24)
    assert solve_xi(2, 2) == (1, 1)
    assert solve_xi(2, 1) == (1, 1)
    assert solve_xi(Fraction(5, 2), 2) == (2, 1, 1)
    assert solve_xi(Fraction(7, 2), 2) == (4, 1, 2, 2)


def test_solve_xi_satisfies_balance_equations():
    for s, t in [(2, 3), (3, 2), (3, 4), (4, 2), (5, 3), (6, 2)]:
        xi = solve_xi(s, t)
        p = s * t
        assert (s - 1) * xi[0] == comb(p - t, t) * xi[1]
        for r in range(2, s):
            assert comb(p - t, (r - 1) * t + 1) * xi[r - 1] == comb(p - t, r * t) * xi[r]
        assert len(xi) == s


def test_solve_xi_general_satisfies_balance_equations():
    for s, t in [(Fraction(5, 2), 2), (Fraction(7, 2), 2), (Fraction(7, 3), 3), (Fraction(5, 2), 4)]:
        xi = solve_xi(s, t)
        p = (s * t).numerator
        q = len(xi)
        assert (p - t) * xi[0] == t * comb(p - t, t) * xi[1]
        for r in range(2, q - 1):
            assert comb(p - t, (r - 1) * t + 1) * xi[r - 1] == comb(p - t, r * t) * xi[r]
        assert xi[q - 2] * comb(p - t, (q - 2) * t + 1) == xi[q - 1]
        assert q == ceil(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8))
def test_solve_xi_gcd_reduced(s, t):
    xi = solve_xi(s, t)
    acc = 0
    for x in xi:
        acc = gcd(acc, x)
    assert acc == 1 and all(x > 0 for x in xi)


def test_solve_xi_rejects_bad_domains():
    with pytest.raises(ParameterError):
        solve_xi(Fraction(3, 2), 2)  # non-integer s must exceed 2
    with pytest.raises(ParameterError):
        solve_xi(Fraction(5, 2), 3)  # p not an integer
    with pytest.raises(ParameterError, match="^integer-s family needs integer s >= 2, got 1$"):
        solve_xi(1, 4)
    with pytest.raises(ParameterError, match="^need t >= 2, got 1$"):
        solve_xi(Fraction(5, 2), 1)


def test_c1_names_itself_in_domain_errors():
    for call in (c1_counts, build_c1):
        with pytest.raises(ParameterError, match="^c1 needs t >= 1, got 0$"):
            call(0, 1)
        with pytest.raises(ParameterError, match="^c1 needs 1 <= d <= t, got d=3 t=2$"):
            call(2, 3)
        with pytest.raises(ParameterError, match="^c1 needs 1 <= d <= t, got d=0 t=2$"):
            call(2, 0)


def test_ladder_families_name_themselves_in_domain_errors():
    for call in (integer_s_counts, build_integer_s):
        with pytest.raises(ParameterError, match="^integer-s family needs integer s >= 2, got 5/2$"):
            call(Fraction(5, 2), 2)
        with pytest.raises(ParameterError, match="^integer-s family needs integer s >= 2, got 1$"):
            call(1, 2)
    for call in (general_s_counts, build_general_s):
        with pytest.raises(ParameterError, match="^general-s family needs non-integer s > 2, got 3$"):
            call(3, 2)
        with pytest.raises(ParameterError, match="^general-s family needs non-integer s > 2, got 3/2$"):
            call(Fraction(3, 2), 2)


# ---------------------------------------------------------------------------
# family shapes and counts


def single(cell):
    return cell & (cell - 1) == 0


def column_type(code, col):
    """1 for all-singleton columns, else the pairing level of the sum cell."""
    sums = [c for c in col if not single(c)]
    if not sums:
        return 1
    size = sums[0].bit_count()
    if size == code.p - code.t + 1 and code.s.denominator != 1:
        return -((-code.s.numerator) // code.s.denominator)
    return (size - 1) // code.t + 1


def test_c1_counts_and_shape():
    code = build_c1(2, 2)
    assert code.m == 10 and (code.p, code.t) == (4, 2)
    assert c1_counts(2, 2) == (10, 7)
    assert c1_counts(2, 1) == (9, 7)
    assert c1_counts(1, 1) == (3, 2)
    assert sum(1 for col in code.columns if all(single(c) for c in col)) == 6
    code11 = build_c1(1, 1)
    assert [sorted(parts_of(c) for c in col) for col in code11.columns] == [[(1,)], [(2,)], [(1, 2)]]
    assert Fraction(*reversed(c1_counts(1, 1))) == Fraction(2, 3)


def test_c1_type_b_sums_remaining_parts():
    code = build_c1(3, 2)  # p=5, Type B sums d+1 = 3 parts
    for col in code.columns:
        sums = [c for c in col if not single(c)]
        if sums:
            assert len(sums) == 1 and sums[0].bit_count() == 3
            stored = {c.bit_length() for c in col if single(c)}
            assert stored.isdisjoint(parts_of(sums[0]))
            assert stored | set(parts_of(sums[0])) == set(range(1, 6))


def test_c1_rejects_bad_d():
    with pytest.raises(ParameterError):
        build_c1(2, 3)
    with pytest.raises(ParameterError):
        build_c1(2, 0)


def test_c2_counts_and_shape():
    code = build_c2(3)
    assert code.m == 6 and code.p == 4
    assert c2_counts(3) == (6, 5)
    assert c2_counts(5) == (9, 8)
    type_a = [col for col in code.columns if all(single(c) for c in col)]
    type_b = [col for col in code.columns if not all(single(c) for c in col)]
    assert len(type_a) == 4 and len(type_b) == 2
    pair_sums = sorted(parts_of(c) for col in type_b for c in col if not single(c))
    assert pair_sums == [(1, 2), (3, 4)]
    with pytest.raises(ParameterError):
        build_c2(4)
    with pytest.raises(ParameterError):
        build_c2(1)


def test_c3_counts_and_shape():
    code = build_c3(2)
    assert code.m == 9 and code.p == 3
    assert c3_counts(2) == (9, 7)
    assert c3_counts(4) == (15, 13)
    type_a = [col for col in code.columns if all(single(c) for c in col)]
    assert len(type_a) == 6
    # each part omitted exactly twice among Type A
    for part in (1, 2, 3):
        omitted = sum(1 for col in type_a if part not in {c.bit_length() for c in col})
        assert omitted == 2
    pair_sums = sorted(parts_of(c) for col in code.columns for c in col if not single(c))
    assert pair_sums == [(1, 2), (1, 3), (2, 3)]  # wrap-around pair lands on (1, t+1)
    with pytest.raises(ParameterError):
        build_c3(3)


def test_integer_s_counts_and_type_blocks():
    assert integer_s_counts(3, 2) == (129, 79)
    code = build_integer_s(3, 2)
    assert code.m == 129
    assert singleton_census(code) == [29] * 6  # b singleton holders per part; c = (129 - 29)/2 = 50
    by_type = {}
    for col in code.columns:
        by_type[column_type(code, col)] = by_type.get(column_type(code, col), 0) + 1
    assert by_type == {1: 45, 2: 60, 3: 24}


def test_integer_s_t1_degenerates_to_three_column_code():
    code = build_integer_s(2, 1)
    assert [sorted(parts_of(c) for c in col) for col in code.columns] == [[(1,)], [(2,)], [(1, 2)]]


def test_integer_s_coincides_with_c1_at_s2():
    for t in (2, 3):
        assert build_integer_s(2, t) == build_c1(t, t)


def test_general_s_counts_and_type_blocks():
    assert general_s_counts(Fraction(5, 2), 2) == (45, 29)
    code = build_general_s(Fraction(5, 2), 2)
    assert singleton_census(code) == [13] * 5  # b per part; c = (45 - 13)/2 = 16
    by_type = {}
    for col in code.columns:
        tcode = column_type(code, col)
        by_type[tcode] = by_type.get(tcode, 0) + 1
    assert by_type == {1: 20, 2: 20, 3: 5}
    assert general_s_counts(Fraction(7, 2), 2) == (322, 190)
    assert singleton_census(build_general_s(Fraction(7, 2), 2)) == [58] * 7  # c = (322 - 58)/2 = 132


def test_every_column_has_at_most_one_sum_cell():
    for code in (build_c1(3, 2), build_c2(3), build_c3(2), build_integer_s(3, 2), build_general_s(Fraction(5, 2), 2)):
        for col in code.columns:
            assert sum(1 for c in col if not single(c)) <= 1
            assert len(col) == code.t


def pairing_side_sizes(code, part):
    """|V_1^r| and |V_2^r| per pairing level by direct scan of a generated code."""
    q = max(column_type(code, col) for col in code.columns)
    v1 = {r: 0 for r in range(1, q)}
    v2 = {r: 0 for r in range(1, q)}
    for col in code.columns:
        level = column_type(code, col)
        stored = {c.bit_length() for c in col if single(c)}
        involved = set()
        for c in col:
            involved |= set(parts_of(c))
        if part in stored:
            continue
        if part not in involved:
            v1[level] += 1
        else:
            v2[level - 1] += 1
    return v1, v2


@pytest.mark.parametrize(
    "code_builder",
    [
        lambda: build_c1(2, 2),
        lambda: build_c1(3, 1),
        lambda: build_integer_s(3, 2),
        lambda: build_general_s(Fraction(5, 2), 2),
        lambda: build_general_s(Fraction(7, 2), 2),
    ],
)
def test_pairing_graph_sides_balance(code_builder):
    code = code_builder()
    for part in range(1, code.p + 1):
        v1, v2 = pairing_side_sizes(code, part)
        assert v1 == v2


def test_generation_cap_reports_symbolic_count():
    with pytest.raises(CapExceeded) as err:
        build_integer_s(3, 2, max_columns=100)
    assert err.value.columns == 129
    with pytest.raises(CapExceeded):
        build_c1(5, 4, max_columns=1000)


FAMILY_CASES = {
    "c1": dict(t=3, d=2),
    "c2": dict(t=9),
    "c3": dict(t=8),
    "integer": dict(t=2, s=Fraction(3)),
    "general": dict(t=2, s=Fraction(5, 2)),
}


def test_every_family_builds_its_count_and_honours_the_cap():
    assert set(FAMILY_CASES) == set(FAMILIES)
    for family in FAMILIES:
        params = ConstructionParams(family=family, **FAMILY_CASES[family])
        m, _ = params.predicted_counts()
        assert params.build().m == m, family
        capped = ConstructionParams(family=family, max_columns=m - 1, **FAMILY_CASES[family])
        with pytest.raises(CapExceeded) as err:
            capped.build()
        assert err.value.columns == m, family


def test_construction_params_dispatch():
    params = ConstructionParams(family="c1", t=2, d=2)
    assert params.s == Fraction(2)
    assert params.predicted_counts() == (10, 7)
    assert params.build().m == 10
    params_i = ConstructionParams(family="integer", t=2, s=Fraction(3))
    assert params_i.predicted_counts() == (129, 79)
    with pytest.raises(ParameterError):
        ConstructionParams(family="c1", t=2)
    with pytest.raises(ParameterError):
        ConstructionParams(family="nope", t=2)
    with pytest.raises(ParameterError):
        ConstructionParams(family="general", t=2, s=Fraction(5, 3))  # p not integral


@pytest.mark.parametrize(
    "family, s, t, builder",
    [("integer", Fraction(3), 2, build_integer_s), ("general", Fraction(7, 3), 3, build_general_s)],
)
def test_construct_solves_xi_once(monkeypatch, family, s, t, builder):
    solve = constructions.solve_xi
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(constructions, "solve_xi", counted)
    params = ConstructionParams(family=family, t=t, s=s)
    code = params.build()
    assert len(calls) == 1
    assert params.ladder == (code.p, t, solve(s, t))
    assert (code.m, (code.m + min(singleton_census(code))) // 2) == params.counts
    assert code == builder(s, t)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, t))))
def test_c1_generated_m_matches_formula(params):
    t, d = params
    theta = lcm(d, t)
    code = build_c1(t, d)
    assert code.m == comb(t + d, t) * theta // d + comb(t + d, t - 1) * theta // t
    assert all(len(col) == t for col in code.columns)


# ---------------------------------------------------------------------------
# golden bytes
#
# SHA-256 of the concatenated PIRCODE texts as the builders produced them
# when every cell was built per column and every block was sorted on its
# cells' parts; a change to a builder's column order, cell order or cell
# content changes it.

GOLDEN_BUILDS_SHA256 = "37aa3b69bd75590a5a772070820ccd701baa82e4efc7222a5de7fe03b114cfb8"
GOLDEN_SMALL_SERVER_SHA256 = "c19b64e10fe9d27bd8a4794c5d1a315b4b0bfbdff6d4ab758baa4f4b471a41f2"


def _digest_and_round_trip(codes):
    texts = [serialize_code(code) for code in codes]
    for text in texts:
        assert serialize_code(parse_code(text)) == text
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_builder_bytes_are_unchanged():
    codes = [
        build_integer_s(4, 2),
        build_integer_s(3, 3),
        build_c1(6, 6),
        build_c1(7, 4),
        build_general_s(Fraction(5, 2), 4),
        build_c1(7, 7),
    ]
    assert _digest_and_round_trip(codes) == GOLDEN_BUILDS_SHA256


def test_small_server_builder_bytes_are_unchanged():
    codes = [build_c2(t) for t in (3, 5, 7, 9)] + [build_c3(t) for t in (2, 4, 6, 8)]
    assert _digest_and_round_trip(codes) == GOLDEN_SMALL_SERVER_SHA256


def test_builders_share_one_cell_per_part_set():
    code = build_integer_s(3, 2)
    cells = [cell for col in code.columns for cell in col]
    assert len({id(cell) for cell in cells}) == len(set(cells))
