"""Exact-rational rate and bound formulas and the reference rate table.

Everything is a `fractions.Fraction`; decimal strings exist only at the
presentation layer (`render_decimal`, round-half-even).  Formula domains:

  upper_g_s        (s+1)/(2s), any rational s > 1; a strict asymptotic ceiling.
  upper_g_st       ((2d+1)t + d^2) / ((t+d)(2d+1)) for s = 1 + d/t; tight
                   (achieved by the c1 family) whenever d <= t.
  corollary_bound  the reparametrized form in delta, tau, ell with t = ell*tau,
                   implemented literally as stated; see note below.
  t1_rate          g(s,1) = 2^(s-1) / (2^s - 1), integer s >= 1 (exact).
  fvy_rate         g(s, s-1) >= s/(2s-1), integer s >= 3.
  integer_s_rate   k/m of the integer-s family, integer s >= 2 and t >= 1;
                   equals (beta+gamma)/(beta+2gamma), beta and gamma being a
                   part's singleton holders and matched pairs scaled by
                   (p-t+1)/C(p-1,t-1).
  general_s_rate   the same for the general family, non-integer s > 2 and
                   t >= 2 with st integral.
  s3_rate, s4_rate closed forms (16t^2+7t+1)/(24t^2+15t+3) and
                   (120t^3+59t^2+12t+1)/(192t^3+128t^2+36t+4).

`corollary_bound` evaluates its published closed form verbatim.  For ell <
delta that form can drop below rates this package actually achieves, so it
is never filled into `reference_rates` and is excluded from the
lower-vs-upper consistency checks; call it explicitly when wanted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .constructions import c1_counts, general_s_counts, integer_s_counts
from .errors import ParameterError

__all__ = [
    "upper_g_s",
    "upper_g_st",
    "corollary_bound",
    "t1_rate",
    "fvy_rate",
    "c1_rate",
    "integer_s_rate",
    "general_s_rate",
    "s3_rate",
    "s4_rate",
    "reference_rates",
    "table1",
    "table1_text",
    "table1_csv",
    "render_decimal",
]


def upper_g_s(s: Fraction | int) -> Fraction:
    """(s+1)/(2s); the never-attained ceiling for any fixed t."""
    s = Fraction(s)
    if s <= 1:
        raise ParameterError(f"need s > 1, got {s}")
    return (s + 1) / (2 * s)


def upper_g_st(t: int, d: int) -> Fraction:
    """((2d+1)t + d^2)/((t+d)(2d+1)) for s = 1 + d/t.

    Stated for t >= 2; t = 1 is accepted because with d = 1 the value 2/3
    coincides with the exact single-cell rate, which the acceptance grid uses.
    """
    if t < 1 or d < 1:
        raise ParameterError(f"need t >= 1 and d >= 1, got t={t} d={d}")
    return Fraction((2 * d + 1) * t + d * d, (t + d) * (2 * d + 1))


def corollary_bound(delta: int, tau: int, ell: int) -> Fraction:
    """(ell*delta^2 + tau + 2*ell*t) / (2*ell*delta^2 + delta + tau + 2*ell*t), t = ell*tau."""
    if delta < 1 or tau < 1 or ell < 1:
        raise ParameterError("delta, tau and ell must be positive")
    if gcd(delta, tau) != 1:
        raise ParameterError(f"need gcd(delta, tau) = 1, got gcd({delta},{tau}) = {gcd(delta, tau)}")
    t = ell * tau
    return Fraction(ell * delta * delta + tau + 2 * ell * t, 2 * ell * delta * delta + delta + tau + 2 * ell * t)


def t1_rate(s: int) -> Fraction:
    """Exact single-cell-per-server rate 2^(s-1)/(2^s - 1)."""
    s = Fraction(s)
    if s.denominator != 1 or s < 1:
        raise ParameterError(f"need a positive integer s, got {s}")
    sv = s.numerator
    return Fraction(2 ** (sv - 1), 2**sv - 1)


def fvy_rate(s: int) -> Fraction:
    """s/(2s-1), a lower bound at t = s-1 for integer s >= 3."""
    s = Fraction(s)
    if s.denominator != 1 or s < 3:
        raise ParameterError(f"need an integer s >= 3, got {s}")
    return Fraction(s.numerator, 2 * s.numerator - 1)


def c1_rate(t: int, d: int) -> Fraction:
    """k/m of the c1 family from its server-count formulas; equals upper_g_st(t, d)."""
    m, k = c1_counts(t, d)
    return Fraction(k, m)


def integer_s_rate(s: Fraction | int, t: int) -> Fraction:
    """k/m = (beta+gamma)/(beta+2gamma) of the integer-s family."""
    m, k = integer_s_counts(s, t)
    return Fraction(k, m)


def general_s_rate(s: Fraction | int, t: int) -> Fraction:
    """k/m = (beta+gamma)/(beta+2gamma) of the general family."""
    m, k = general_s_counts(s, t)
    return Fraction(k, m)


def s3_rate(t: int) -> Fraction:
    """(16t^2 + 7t + 1)/(24t^2 + 15t + 3)."""
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    return Fraction(16 * t * t + 7 * t + 1, 24 * t * t + 15 * t + 3)


def s4_rate(t: int) -> Fraction:
    """(120t^3 + 59t^2 + 12t + 1)/(192t^3 + 128t^2 + 36t + 4)."""
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    return Fraction(
        120 * t**3 + 59 * t * t + 12 * t + 1, 192 * t**3 + 128 * t * t + 36 * t + 4
    )


def reference_rates(s: Fraction | int, t: int) -> dict[str, Fraction]:
    """Every formula applicable at (s, t), by name, in the order upper_g_s,
    upper_g_st, t1_rate, fvy_rate, c1_rate, integer_s_rate, general_s_rate,
    s3_rate, s4_rate; needs s > 1, t >= 1 and st integral."""
    s = Fraction(s)
    if s <= 1:
        raise ParameterError(f"need s > 1, got {s}")
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    p = s * t
    if p.denominator != 1:
        raise ParameterError(f"p = s*t = {p} is not an integer")
    d = (s - 1) * t
    d_int = d.numerator if d.denominator == 1 else None
    integer_s = s.numerator if s.denominator == 1 else None
    values: dict[str, Fraction] = {"upper_g_s": upper_g_s(s)}
    if d_int is not None and t >= 2:
        values["upper_g_st"] = upper_g_st(t, d_int)
    if t == 1 and integer_s is not None:
        values["t1_rate"] = t1_rate(integer_s)
    if integer_s is not None and integer_s >= 3 and t == integer_s - 1:
        values["fvy_rate"] = fvy_rate(integer_s)
    if d_int is not None and 1 <= d_int <= t:
        values["c1_rate"] = c1_rate(t, d_int)
    if integer_s is not None and integer_s >= 2:
        values["integer_s_rate"] = integer_s_rate(s, t)
    if integer_s is None and s > 2 and t >= 2:
        values["general_s_rate"] = general_s_rate(s, t)
    if s == 3:
        values["s3_rate"] = s3_rate(t)
    if s == 4:
        values["s4_rate"] = s4_rate(t)
    return values


def table1(max_s: int = 6, max_t: int = 13) -> dict[tuple[int, int], Fraction]:
    """Reference rate grid: every cell is integer_s_rate(s, t), which the
    paper's closed forms t1_rate(s) (t = 1) and (3t+1)/(4t+2) (s = 2) match."""
    return {
        (s, t): integer_s_rate(s, t) for s in range(2, max_s + 1) for t in range(1, max_t + 1)
    }


def render_decimal(value: Fraction, digits: int = 5, trim: bool = False) -> str:
    """Exact decimal string of a non-negative rational, round-half-even."""
    if digits < 1:
        raise ParameterError(f"need digits >= 1, got {digits}")
    if value < 0:
        raise ParameterError(f"need a non-negative value, got {value}")
    scaled = round(value * 10**digits)
    whole, frac = divmod(scaled, 10**digits)
    text = f"{whole}.{frac:0{digits}d}"
    if trim:
        text = text.rstrip("0")
        if text.endswith("."):
            text += "0"
    return text


def _cell_text(s: int, t: int, value: Fraction) -> str:
    if t == 1 or s == 2:
        return f"{value.numerator}/{value.denominator}"
    return render_decimal(value, digits=5, trim=True)


def table1_text(max_s: int = 6, max_t: int = 13) -> str:
    """Aligned text grid, rows by t and columns by s; exact cells where the
    reference layout uses fractions, 5-digit decimals elsewhere."""
    grid = table1(max_s, max_t)
    header = ["t\\s"] + [str(s) for s in range(2, max_s + 1)]
    rows = [header]
    for t in range(1, max_t + 1):
        rows.append([str(t)] + [_cell_text(s, t, grid[(s, t)]) for s in range(2, max_s + 1)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    return "\n".join(lines) + "\n"


def table1_csv(max_s: int = 6, max_t: int = 13, digits: int = 6) -> str:
    grid = table1(max_s, max_t)
    lines = ["s,t,numerator,denominator,decimal"]
    for s in range(2, max_s + 1):
        for t in range(1, max_t + 1):
            value = grid[(s, t)]
            lines.append(
                f"{s},{t},{value.numerator},{value.denominator},{render_decimal(value, digits)}"
            )
    return "\n".join(lines) + "\n"
