"""Shared fixtures: the classic 7x4 reference code, the published rate-table
digits, a lazy cache of generated-and-verified family codes reused across
the acceptance criteria, seeded random codes under the singleton
convention, and the beta/gamma oracle for the integer-s and general-s
rates."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from pirarray import (
    ArrayCode,
    VerifyReport,
    build_c1,
    build_c2,
    build_c3,
    build_general_s,
    build_integer_s,
    k_pir_pairs,
    parse_code,
)
from pirarray.gf2 import pivot_insert, pivot_reduce

# The well-known [7x4,12] 3-PIR example, columns as published.
INTRO_TEXT = """PIRCODE v1
p=12 t=7 m=4
1;2;4;5;7;8;10+11+12
2;3;5;6;7+8+9;10;11
3;1;4+5+6;8;9;11;12
1+2+3;6;4;9;7;12;10
"""

# Published reference digits for the rate table, s = 2..6 across, t = 1..13 down.
# Entries with "/" are exact; the rest carry up to five decimal digits.
PRINTED_TABLE = {
    1: ("2/3", "4/7", "8/15", "16/31", "32/63"),
    2: ("7/10", "0.6124", "0.57486", "0.55549", "0.54417"),
    3: ("5/7", "0.62878", "0.59057", "0.56978", "0.55693"),
    4: ("13/18", "0.63758", "0.5988", "0.57713", "0.56343"),
    5: ("8/11", "0.64306", "0.60385", "0.58161", "0.56736"),
    6: ("19/26", "0.64681", "0.60728", "0.58462", "0.57"),
    7: ("11/15", "0.64953", "0.60975", "0.58679", "0.57189"),
    8: ("25/34", "0.6516", "0.61161", "0.58842", "0.57331"),
    9: ("14/19", "0.65322", "0.61307", "0.58969", "0.57441"),
    10: ("31/42", "0.65452", "0.61424", "0.59071", "0.5753"),
    11: ("17/23", "0.6556", "0.61521", "0.59155", "0.57603"),
    12: ("37/50", "0.6565", "0.61601", "0.59225", "0.57663"),
    13: ("20/27", "0.65726", "0.61669", "0.59284", "0.57715"),
}


@pytest.fixture(scope="session")
def intro_code() -> ArrayCode:
    return parse_code(INTRO_TEXT)


# (label, builder) for every code the acceptance criteria 3-6 generate.
FAMILY_BUILDERS = {
    **{f"c1({t},{d})": (lambda t=t, d=d: build_c1(t, d)) for t in range(1, 6) for d in range(1, t + 1)},
    "c2(3)": lambda: build_c2(3),
    "c2(5)": lambda: build_c2(5),
    "c3(2)": lambda: build_c3(2),
    "c3(4)": lambda: build_c3(4),
    "integer(3,2)": lambda: build_integer_s(3, 2),
    "general(5/2,2)": lambda: build_general_s(Fraction(5, 2), 2),
}

_family_cache: dict[str, tuple[ArrayCode, VerifyReport]] = {}


def family_code(label: str) -> tuple[ArrayCode, VerifyReport]:
    """Build + pair-verify a family code once per session; criteria share the result."""
    if label not in _family_cache:
        code = FAMILY_BUILDERS[label]()
        _family_cache[label] = (code, k_pir_pairs(code))
    return _family_cache[label]


def family_labels() -> tuple[str, ...]:
    return tuple(FAMILY_BUILDERS)


def random_column(rng: random.Random, p: int, t: int, used: int, forced: int) -> list[int]:
    """t cells over parts 1..used spanning a random space that contains `forced`
    (when nonzero), storing every singleton of that space as a cell.  Over
    fewer than t parts no t cells are independent, so t > used raises
    ValueError."""
    if t > used:
        raise ValueError(f"no {t} independent cells over {used} parts")
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


def seeded_code(seed: int, m: int, p: int, t: int) -> ArrayCode:
    rng = random.Random(seed)
    columns = [random_column(rng, p, t, p, 0) for _ in range(m)]
    return ArrayCode.from_columns(p, columns)


def _oracle_beta_gamma(s, t, xi):
    """(beta, gamma) of the integer-s or general-s ladder with multiplicities
    xi, by the per-family sums: a part's singleton holders and matched pairs
    scaled by (p-t+1)/C(p-1,t-1), so that k/m = (beta+gamma)/(beta+2gamma)."""
    p = (s * t).numerator
    q = len(xi)
    if s.denominator == 1:
        beta = xi[0] * (p - t + 1) + sum(
            (t - 1) * xi[r - 1] * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q + 1)
        )
        gamma = (p - t + 1) * sum(xi[r] * comb(p - t, r * t) for r in range(1, q))
    else:
        beta = (
            xi[0] * (p - t + 1)
            + sum((t - 1) * xi[r - 1] * comb(p - t + 1, (r - 1) * t + 1) for r in range(2, q))
            + (t - 1) * xi[q - 1]
        )
        gamma = (p - t + 1) * (sum(xi[r] * comb(p - t, r * t) for r in range(1, q - 1)) + xi[q - 1])
    return beta, gamma
