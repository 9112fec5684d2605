from fractions import Fraction

import pytest

from pirarray import (
    corollary_bound,
    fvy_rate,
    general_s_rate,
    integer_s_rate,
    min_servers_bound,
    reference_rates,
    render_decimal,
    s3_rate,
    s4_rate,
    t1_rate,
    table1,
    table1_csv,
    table1_text,
    upper_g_s,
    upper_g_st,
)
from pirarray.bounds import c1_rate, general_beta_gamma, integer_beta_gamma
from pirarray.errors import ParameterError

from conftest import PRINTED_TABLE


def test_upper_g_s_values():
    assert upper_g_s(2) == Fraction(3, 4)
    assert upper_g_s(3) == Fraction(2, 3)
    assert upper_g_s(Fraction(5, 2)) == Fraction(7, 10)
    with pytest.raises(ParameterError):
        upper_g_s(1)
    with pytest.raises(ParameterError):
        upper_g_s(Fraction(1, 2))


def test_upper_g_st_values():
    assert upper_g_st(2, 2) == Fraction(7, 10)
    assert upper_g_st(3, 1) == Fraction(5, 6)
    assert upper_g_st(2, 1) == Fraction(7, 9)
    assert upper_g_st(1, 1) == Fraction(2, 3)
    with pytest.raises(ParameterError):
        upper_g_st(0, 1)
    with pytest.raises(ParameterError):
        upper_g_st(2, 0)


def test_corollary_bound_literal_form():
    assert corollary_bound(1, 2, 1) == Fraction(7, 9)
    assert corollary_bound(1, 1, 2) == Fraction(11, 14)
    assert corollary_bound(3, 2, 1) == Fraction(5, 9)
    with pytest.raises(ParameterError):
        corollary_bound(2, 4, 1)


def test_reference_formula_values():
    assert t1_rate(6) == Fraction(32, 63)
    assert t1_rate(2) == Fraction(2, 3)
    assert fvy_rate(3) == Fraction(3, 5)
    assert s3_rate(2) == Fraction(79, 129)
    assert s4_rate(2) == Fraction(407, 708)
    with pytest.raises(ParameterError):
        t1_rate(Fraction(5, 2))
    with pytest.raises(ParameterError):
        fvy_rate(2)


def test_integer_rate_beta_gamma():
    assert integer_beta_gamma(3, 2, (3, 1, 4)) == (29, 50)
    assert integer_s_rate(3, 2) == Fraction(79, 129)
    assert integer_s_rate(4, 2) == Fraction(407, 708)
    # the rate is scaling-invariant
    assert integer_s_rate(3, 2, (6, 2, 8)) == Fraction(79, 129)


def test_general_rate_beta_gamma():
    assert general_beta_gamma(Fraction(5, 2), 2, (2, 1, 1)) == (13, 16)
    assert general_s_rate(Fraction(5, 2), 2) == Fraction(29, 45)
    with pytest.raises(ParameterError):
        general_s_rate(3, 2)


def test_integer_rate_at_t1_reproduces_single_cell_rate():
    for s in range(2, 7):
        assert integer_s_rate(s, 1) == t1_rate(s)


def test_c1_rate_equals_tight_upper_bound_symbolically():
    for t in range(1, 31):
        for d in range(1, t + 1):
            assert c1_rate(t, d) == upper_g_st(t, d)


def test_s3_s4_closed_forms_match_beta_gamma():
    for t in range(2, 14):
        assert s3_rate(t) == integer_s_rate(3, t)
        assert s4_rate(t) == integer_s_rate(4, t)


def test_reference_rates_sheet_contents():
    sheet = reference_rates(3, 2)
    assert sheet.s3_rate == sheet.integer_s_rate == Fraction(79, 129)
    assert sheet.fvy_rate == Fraction(3, 5)
    assert sheet.upper_g_s == Fraction(2, 3)
    assert sheet.general_s_rate is None
    assert sheet.corollary_bound is None

    sheet_t1 = reference_rates(6, 1)
    assert sheet_t1.t1_rate == Fraction(32, 63)
    assert sheet_t1.upper_g_st is None

    sheet_g = reference_rates(Fraction(5, 2), 2)
    assert sheet_g.general_s_rate == Fraction(29, 45)
    assert sheet_g.upper_g_s == Fraction(7, 10)

    sheet_c1 = reference_rates(Fraction(3, 2), 2)
    assert sheet_c1.c1_rate == sheet_c1.upper_g_st == upper_g_st(2, 1)

    with pytest.raises(ParameterError):
        reference_rates(Fraction(5, 2), 3)
    with pytest.raises(ParameterError):
        reference_rates(1, 2)


def test_every_lower_bound_below_every_upper_bound():
    cases = [(Fraction(v), t) for v in range(2, 7) for t in range(1, 14)]
    cases += [(Fraction(5, 2), t) for t in (2, 4, 6)]
    cases += [(Fraction(7, 2), t) for t in (2, 4)]
    cases += [(Fraction(3, 2), t) for t in (2, 4, 6)]
    cases += [(Fraction(4, 3), t) for t in (3, 6)]
    lower_names = ("t1_rate", "fvy_rate", "c1_rate", "integer_s_rate", "general_s_rate", "s3_rate", "s4_rate")
    upper_names = ("upper_g_s", "upper_g_st", "t1_rate")
    for s, t in cases:
        sheet = reference_rates(s, t)
        lower = {n: v for n in lower_names if (v := getattr(sheet, n)) is not None}
        upper = {n: v for n in upper_names if (v := getattr(sheet, n)) is not None}
        for lo_name, lo in lower.items():
            for up_name, up in upper.items():
                assert lo <= up, (s, t, lo_name, up_name)


def test_table1_fraction_cells():
    grid = table1()
    assert grid[(2, 6)] == Fraction(19, 26)
    assert grid[(2, 13)] == Fraction(20, 27)
    assert grid[(2, 5)] == Fraction(8, 11)
    assert grid[(6, 1)] == Fraction(32, 63)
    assert len(grid) == 65


def test_table1_decimal_cells_match_published_digits_to_one_ulp():
    # The published digits mix round-to-nearest and truncation in the last
    # place; every entry agrees with the exact value to one unit in the last
    # (fifth) decimal, and each is exactly the rounding or the truncation.
    grid = table1()
    for t, row in PRINTED_TABLE.items():
        for s, printed in zip(range(2, 7), row):
            exact = grid[(s, t)]
            if "/" in printed:
                assert exact == Fraction(printed), (s, t)
                continue
            published = Fraction(printed)
            assert abs(exact - published) < Fraction(1, 10**5), (s, t)
            rounded = Fraction(round(exact * 10**5), 10**5)
            truncated = Fraction((exact.numerator * 10**5) // exact.denominator, 10**5)
            assert published in (rounded, truncated), (s, t)


def test_named_decimal_cells_within_half_ulp():
    grid = table1()
    for (s, t), printed in [((3, 2), "0.6124"), ((4, 2), "0.57486"), ((5, 13), "0.59284")]:
        assert abs(grid[(s, t)] - Fraction(printed)) < Fraction(5, 10**6)


def test_monotone_convergence_small():
    for s in range(2, 7):
        rates = [integer_s_rate(s, t) for t in range(2, 21)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(abs(r - upper_g_s(s)) < Fraction(1, t) for t, r in zip(range(2, 21), rates) if t >= 4)


def test_min_servers_bound_examples():
    assert min_servers_bound(2, 2, 7) == 10
    assert min_servers_bound(3, 2, 79) == 119
    assert min_servers_bound(2, 1, 2) == 3
    with pytest.raises(ParameterError):
        min_servers_bound(2, 2, 0)


def test_render_decimal():
    assert render_decimal(Fraction(7, 10), 6) == "0.700000"
    assert render_decimal(Fraction(79, 129), 5, trim=True) == "0.6124"
    assert render_decimal(Fraction(407, 708), 5, trim=True) == "0.57486"
    assert render_decimal(Fraction(22902359, 40179558), 5, trim=True) == "0.57"
    assert render_decimal(Fraction(3, 2), 2) == "1.50"


def test_table1_text_layout():
    text = table1_text()
    assert "8/11" in text
    assert "0.6124" in text
    assert text.splitlines()[0].split()[0] == "t\\s"
    assert len(text.splitlines()) == 14


def test_table1_csv_format():
    csv = table1_csv(max_s=3, max_t=2)
    lines = csv.splitlines()
    assert lines[0] == "s,t,numerator,denominator,decimal"
    assert "2,2,7,10,0.700000" in lines
    assert "3,2,79,129,0.612403" in lines
