from fractions import Fraction
from math import ceil, comb, gcd, lcm, prod

import pytest

from pirarray import (
    corollary_bound,
    fvy_rate,
    general_s_rate,
    integer_s_rate,
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
from pirarray.bounds import c1_rate
from pirarray.constructions import _chain_solution, c1_counts, general_s_counts, integer_s_counts, solve_xi
from pirarray.errors import ParameterError

from conftest import PRINTED_TABLE, _oracle_beta_gamma


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
    assert _oracle_beta_gamma(3, 2, solve_xi(3, 2)) == (29, 50)
    assert integer_s_rate(3, 2) == Fraction(79, 129) == Fraction(29 + 50, 29 + 2 * 50)
    assert integer_s_rate(4, 2) == Fraction(407, 708)


def test_general_rate_beta_gamma():
    assert _oracle_beta_gamma(Fraction(5, 2), 2, solve_xi(Fraction(5, 2), 2)) == (13, 16)
    assert general_s_rate(Fraction(5, 2), 2) == Fraction(29, 45) == Fraction(13 + 16, 13 + 2 * 16)
    with pytest.raises(ParameterError, match="^general-s family needs non-integer s > 2, got 3$"):
        general_s_rate(3, 2)
    with pytest.raises(ParameterError, match="^integer-s family needs integer s >= 2, got 5/2$"):
        integer_s_rate(Fraction(5, 2), 2)


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
    assert sheet["s3_rate"] == sheet["integer_s_rate"] == Fraction(79, 129)
    assert sheet["fvy_rate"] == Fraction(3, 5)
    assert sheet["upper_g_s"] == Fraction(2, 3)
    assert "general_s_rate" not in sheet
    assert "corollary_bound" not in sheet
    assert list(sheet) == ["upper_g_s", "upper_g_st", "fvy_rate", "integer_s_rate", "s3_rate"]

    sheet_t1 = reference_rates(6, 1)
    assert sheet_t1["t1_rate"] == Fraction(32, 63)
    assert "upper_g_st" not in sheet_t1

    sheet_g = reference_rates(Fraction(5, 2), 2)
    assert sheet_g["general_s_rate"] == Fraction(29, 45)
    assert sheet_g["upper_g_s"] == Fraction(7, 10)

    sheet_c1 = reference_rates(Fraction(3, 2), 2)
    assert sheet_c1["c1_rate"] == sheet_c1["upper_g_st"] == upper_g_st(2, 1)

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
        lower = {n: sheet[n] for n in lower_names if n in sheet}
        upper = {n: sheet[n] for n in upper_names if n in sheet}
        for lo_name, lo in lower.items():
            for up_name, up in upper.items():
                assert lo <= up, (s, t, lo_name, up_name)


def test_table1_closed_forms_agree_with_integer_s_rate():
    # table1 fills every cell from integer_s_rate; the paper's closed forms
    # for its t = 1 row and s = 2 column must give the same values
    grid = table1()
    for s in range(2, 7):
        assert t1_rate(s) == integer_s_rate(s, 1) == grid[(s, 1)]
    for t in range(1, 14):
        assert Fraction(3 * t + 1, 4 * t + 2) == integer_s_rate(2, t) == grid[(2, t)]


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


def test_render_decimal():
    assert render_decimal(Fraction(7, 10), 6) == "0.700000"
    assert render_decimal(Fraction(79, 129), 5, trim=True) == "0.6124"
    assert render_decimal(Fraction(407, 708), 5, trim=True) == "0.57486"
    assert render_decimal(Fraction(22902359, 40179558), 5, trim=True) == "0.57"
    assert render_decimal(Fraction(3, 2), 2) == "1.50"
    assert render_decimal(Fraction(0), 3) == "0.000"


def test_render_decimal_refuses_a_negative_value():
    # divmod floors, which would print -1/4 as "-1.75000"
    with pytest.raises(ParameterError, match="non-negative"):
        render_decimal(Fraction(-1, 4))


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


# ---------------------------------------------------------------------------
# ladder differential test
#
# The integer and non-integer families were once written out separately:
# two chain systems for xi, two sets of count sums (c in closed form for
# integer s) and two beta/gamma sums.  Those forms are kept here, and the
# beta/gamma sums in conftest.py, as oracles for the one ladder the library
# now evaluates.

LADDER_GRID = [(Fraction(s), t) for s in range(2, 8) for t in range(1, 9)] + [
    (Fraction(num, den), den * j)
    for num, den in ((5, 2), (7, 2), (9, 2), (7, 3), (8, 3), (10, 3), (11, 3), (9, 4), (11, 4), (13, 4))
    for j in range(1, 5)
]


def _oracle_chain(sigmas, rhos):
    ratios = [Fraction(1)]
    for sigma, rho in zip(sigmas, rhos):
        ratios.append(ratios[-1] * sigma / rho)
    scale = lcm(*(r.denominator for r in ratios))
    values = [r.numerator * (scale // r.denominator) for r in ratios]
    shrink = gcd(*values)
    return tuple(v // shrink for v in values)


def _oracle_product_chain(sigmas, rhos):
    """The product form of the chain solution: xi_r is proportional to
    sigma_1..sigma_{r-1} times rho_r..rho_{q-1}, reduced by the gcd of all."""
    values = [prod(sigmas[:r]) * prod(rhos[r:]) for r in range(len(sigmas) + 1)]
    shrink = gcd(*values)
    return tuple(v // shrink for v in values)


def _oracle_equations(s, t):
    p = (s * t).numerator
    if s.denominator == 1:
        sv = s.numerator
        sigmas = [sv - 1] + [comb(p - t, (r - 1) * t + 1) for r in range(2, sv)]
        rhos = [comb(p - t, r * t) for r in range(1, sv)]
    else:
        q = ceil(s)
        sigmas = [p - t] + [comb(p - t, (r - 1) * t + 1) for r in range(2, q)]
        rhos = [t * comb(p - t, t)] + [comb(p - t, r * t) for r in range(2, q - 1)] + [1]
    return sigmas, rhos


def _oracle_xi(s, t):
    return _oracle_chain(*_oracle_equations(s, t))


def _oracle_counts(s, t, xi):
    p = (s * t).numerator
    q = len(xi)
    below_t = comb(p - 1, t - 2) if t >= 2 else 0
    if s.denominator == 1:
        m = xi[0] * comb(p, t) + sum(
            xi[r - 1] * comb(p, t - 1) * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q + 1)
        )
        b = xi[0] * comb(p - 1, t - 1) + sum(
            xi[r - 1] * below_t * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q + 1)
        )
        c = sum(xi[r] * comb(p - 1, t - 1) * comb(p - t, r * t) for r in range(1, q))
        assert m == b + 2 * c
    else:
        m = (
            xi[0] * comb(p, t)
            + sum(xi[r - 1] * comb(p, t - 1) * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q))
            + xi[q - 1] * comb(p, t - 1)
        )
        b = (
            xi[0] * comb(p - 1, t - 1)
            + sum(xi[r - 1] * below_t * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q))
            + xi[q - 1] * below_t
        )
        c = (m - b) // 2
    return m, b, c, b + c


def test_ladder_matches_the_per_family_forms():
    assert len(LADDER_GRID) == 88
    for s, t in LADDER_GRID:
        integer = s.denominator == 1
        counts_of = integer_s_counts if integer else general_s_counts
        rate_of = integer_s_rate if integer else general_s_rate
        p = (s * t).numerator
        xi = _oracle_xi(s, t)
        assert solve_xi(s, t) == xi, (s, t)
        m, k = counts_of(s, t)
        oracle_m, b, c, oracle_k = _oracle_counts(s, t, xi)
        assert (m, k) == (oracle_m, oracle_k) and m == b + 2 * c, (s, t)
        beta, gamma = _oracle_beta_gamma(s, t, xi)
        assert b * (p - t + 1) == beta * comb(p - 1, t - 1), (s, t)
        assert c * (p - t + 1) == gamma * comb(p - 1, t - 1), (s, t)
        assert rate_of(s, t) == Fraction(k, m) == Fraction(beta + gamma, beta + 2 * gamma), (s, t)


def test_stepped_xi_matches_the_product_form():
    # the solver steps xi_{r+1} = xi_r sigma_r / rho_r; the product form is
    # what it computed before, and is far slower at large s
    extra = [(Fraction(45), 45), (Fraction(60), 60), (Fraction(61, 2), 20)]
    for s, t in LADDER_GRID + extra:
        assert solve_xi(s, t) == _oracle_product_chain(*_oracle_equations(s, t)), (s, t)


def test_chain_solution_refuses_a_nonpositive_coefficient():
    for equations in ([(1, 0)], [(0, 1)], [(2, 3), (1, 0)], [(3, 2), (-1, 1)]):
        with pytest.raises(ParameterError, match="no positive solution"):
            _chain_solution(equations)


def test_c1_counts_match_the_closed_form():
    for t in range(1, 13):
        for d in range(1, t + 1):
            theta = lcm(d, t)
            p = t + d
            m = comb(p, t) * theta // d + comb(p, t - 1) * theta // t
            assert c1_counts(t, d) == (m, m - comb(p - 1, t) * theta // d), (t, d)
