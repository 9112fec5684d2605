import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pirarray import (
    ArrayCode,
    PartVector,
    RecoveryPlan,
    build_c1,
    build_c2,
    build_integer_s,
    parse_code,
    parse_plan,
    serialize_code,
    serialize_plan,
    singleton_census,
)
from pirarray.errors import FormatError, ParameterError
from pirarray.model import format_cell, parse_cell


def test_intro_parses_with_expected_shape(intro_code):
    assert (intro_code.p, intro_code.t, intro_code.m) == (12, 7, 4)
    assert intro_code.s == Fraction(12, 7)


def test_intro_census_is_two_everywhere(intro_code):
    assert singleton_census(intro_code) == [2] * 12


def test_census_sum_never_exceeds_cells(intro_code):
    for code in (intro_code, build_c1(2, 2), build_c2(3), build_integer_s(3, 2)):
        census = singleton_census(code)
        assert sum(census) <= code.t * code.m


def test_census_equality_iff_all_singletons():
    all_singleton = build_c1(2, 2).columns[:6]  # the Type A block
    code = ArrayCode.from_columns(4, all_singleton)
    assert sum(singleton_census(code)) == code.t * code.m


def test_census_single_replicated_column():
    cols = [[PartVector.singleton(3, i) for i in (1, 2, 3)]] * 4
    code = ArrayCode.from_columns(3, cols)
    assert singleton_census(code) == [4, 4, 4]
    one = ArrayCode.from_columns(3, cols[:1])
    assert singleton_census(one) == [1, 1, 1]


def test_cell_text_round_trip():
    cell = PartVector.from_parts(12, [1, 2, 3])
    assert format_cell(cell) == "1+2+3"
    assert parse_cell("10+11+12", 12).parts() == (10, 11, 12)
    assert parse_cell("7", 12).singleton_part() == 7


def test_intro_sum_cell_serializes_verbatim(intro_code):
    lines = serialize_code(intro_code).splitlines()
    assert lines[0] == "PIRCODE v1"
    assert lines[1] == "p=12 t=7 m=4"
    # canonical order puts the three-part sum last in its column
    assert lines[5].endswith("1+2+3")
    assert "1+2+3" in lines[5].split(";")


def test_parse_minimal_code():
    code = parse_code("PIRCODE v1\np=2 t=1 m=2\n1\n2\n")
    assert code.columns[0][0].singleton_part() == 1
    assert code.columns[1][0].singleton_part() == 2


def test_round_trip_identity(intro_code):
    for code in (intro_code, build_c1(2, 1), build_c2(3), build_integer_s(2, 2)):
        assert parse_code(serialize_code(code)) == code


@given(st.integers(min_value=1, max_value=3).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, t))))
def test_round_trip_identity_c1_family(params):
    t, d = params
    code = build_c1(t, d)
    assert parse_code(serialize_code(code)) == code


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("PIRCODES v1\np=2 t=1 m=1\n1\n", "header"),
        ("PIRCODE v1\np=2 t=1\n1\n", "parameter line"),
        ("PIRCODE v1\np=2 t=1 m=2\n1\n", "column lines"),
        ("PIRCODE v1\np=2 t=2 m=1\n1\n", "cells"),
        ("PIRCODE v1\np=2 t=1 m=1\n3\n", "out of range"),
        ("PIRCODE v1\np=2 t=1 m=1\n1+1\n", "duplicate"),
        ("PIRCODE v1\np=3 t=1 m=1\n2+1\n", "ascending"),
        ("PIRCODE v1\np=2 t=1 m=1\nx\n", "malformed"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_code(text)


def test_dependent_cells_rejected():
    with pytest.raises(ParameterError, match="dependent"):
        parse_code("PIRCODE v1\np=3 t=2 m=1\n1+2;1+2\n")


def test_singleton_convention_enforced():
    # the column spans x_1 = (x_1+x_2) + x_2 without storing it
    with pytest.raises(ParameterError, match="singleton"):
        parse_code("PIRCODE v1\np=2 t=2 m=1\n1+2;2\n")


def test_zero_cell_rejected_directly():
    with pytest.raises(ParameterError, match="zero"):
        ArrayCode.from_columns(2, [[PartVector.zero(2)]])


def test_plan_round_trip():
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}], 11: [{2}, {3}, {1, 4}]})
    text = serialize_plan(plan)
    assert text.splitlines()[0] == "PIRPLAN v1"
    assert "part 5: {1};{2};{3,4}" in text
    assert parse_plan(text) == plan


def test_plan_k_is_min_over_parts():
    plan = RecoveryPlan({1: [{1}, {2}], 2: [{3}]})
    assert plan.k_for(1) == 2
    assert plan.k_for(2) == 1
    assert plan.plan_k == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("PIRPLANS v1\npart 1: {1}\n", "header"),
        ("PIRPLAN v1\npartx 1: {1}\n", "malformed plan line"),
        ("PIRPLAN v1\npart 1: {1};{1,}\n", "malformed column set"),
        ("PIRPLAN v1\npart 1: {2,1}\n", "ascending"),
        ("PIRPLAN v1\npart 1: {1,1}\n", "repeated"),
        ("PIRPLAN v1\npart 1: {1}\npart 1: {2}\n", "duplicate"),
    ],
)
def test_plan_parse_rejections(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_plan(text)


def test_columns_keep_file_order():
    text = "PIRCODE v1\np=2 t=1 m=2\n2\n1\n"
    code = parse_code(text)
    assert code.columns[0][0].singleton_part() == 2
    assert serialize_code(code) == text


def test_parse_time_does_not_grow_with_header_p():
    # a 30-byte file must not cost work proportional to its declared p
    text = "PIRCODE v1\np=300000 t=1 m=1\n1\n"
    start = time.perf_counter()
    code = parse_code(text)
    elapsed = time.perf_counter() - start
    assert (code.p, code.m) == (300000, 1)
    assert elapsed < 0.5
