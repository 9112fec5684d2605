"""Acceptance criteria, one test per criterion, each at its stated tolerance
and runtime budget.  Every test prints a single pass line; a failure raises
with the criterion number in the message.

Known-red note for criterion 1: the published table's decimal digits mix
round-to-nearest with plain truncation in the last place.  Eight of the 48
decimal entries are truncations whose distance from the exact rational value
lies between 5.1e-6 and 7.9e-6, so the stated 5e-6 tolerance is impossible
for them no matter how the rates are computed (the s=3 closed form already
pins (3,3) at 83/132 = 0.6287878..., printed as 0.62878).  The criterion is
asserted as stated and fails honestly on exactly those entries;
tests/test_bounds.py covers the attainable one-ulp reproduction property.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, lcm

from pirarray import (
    Fleet,
    build_c1,
    k_pir_exhaustive,
    k_pir_pairs,
    parse_code,
    retrieve,
    serialize_plan,
    solve_xi,
    table1,
    upper_g_s,
    upper_g_st,
    verify_plan,
)
from pirarray.bounds import general_s_rate, integer_s_rate, s3_rate, s4_rate
from pirarray.gf2 import pivot_insert

from conftest import INTRO_TEXT, PRINTED_TABLE, _oracle_beta_gamma, family_code, family_labels


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.start = time.perf_counter()

    def check(self, criterion: int) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"criterion {criterion}: ran {elapsed:.1f}s, budget {self.budget}s"
        return elapsed


def report(criterion: int, name: str, elapsed: float) -> None:
    print(f"criterion {criterion:02d} [{name}]: PASS ({elapsed:.2f}s)")


def test_criterion_01_table1_reproduction():
    watch = Stopwatch(5.0)
    grid = table1(max_s=6, max_t=13)
    assert len(grid) == 65, "criterion 1: expected 65 entries"
    violations = []
    for t, row in PRINTED_TABLE.items():
        for s, printed in zip(range(2, 7), row):
            exact = grid[(s, t)]
            if "/" in printed:
                if exact != Fraction(printed):
                    violations.append(f"(s={s},t={t}) computed {exact} != printed {printed}")
            else:
                deviation = abs(exact - Fraction(printed))
                if deviation >= Fraction(5, 10**6):
                    violations.append(
                        f"(s={s},t={t}) computed {exact} vs printed {printed}, |diff|={float(deviation):.2e}"
                    )
    elapsed = watch.check(1)
    assert not violations, "criterion 1: entries out of tolerance:\n  " + "\n  ".join(violations)
    report(1, "table reproduction", elapsed)


def test_criterion_02_intro_fixture():
    watch = Stopwatch(1.0)
    code = parse_code(INTRO_TEXT)  # model invariants enforced by the parser
    assert (code.p, code.t, code.m) == (12, 7, 4), "criterion 2: wrong shape"
    for j in range(1, 5):
        pivots: dict[int, int] = {}
        for cell in code.columns[j - 1]:
            pivot_insert(pivots, cell)
        assert len(pivots) == 7, "criterion 2: column rank"
    result = k_pir_exhaustive(code)
    assert result.k == 3, f"criterion 2: k = {result.k}, expected exactly 3"
    assert verify_plan(code, result.plan).ok, "criterion 2: emitted plan invalid"
    # exhaustive mode maximizes per part, so k_i == 3 everywhere proves k = 4 infeasible
    assert result.exact and max(result.per_part) == 3, "criterion 2: k = 4 not ruled out"
    elapsed = watch.check(2)
    report(2, "intro fixture", elapsed)


def test_criterion_03_c1_optimality():
    watch = Stopwatch(30.0)
    for t in range(1, 6):
        for d in range(1, t + 1):
            code, verified = family_code(f"c1({t},{d})")
            theta = lcm(d, t)
            expected_k = code.m - comb(t + d - 1, t) * theta // d
            assert verified.k == expected_k, f"criterion 3: c1({t},{d}) k={verified.k} != {expected_k}"
            assert verified.rate == upper_g_st(t, d), f"criterion 3: c1({t},{d}) rate not optimal"
    for t, d in ((2, 1), (2, 2)):
        code, verified = family_code(f"c1({t},{d})")
        assert k_pir_exhaustive(code).k == verified.k, f"criterion 3: exhaustive disagrees at ({t},{d})"
    elapsed = watch.check(3)
    report(3, "c1 optimality for 1<s<=2", elapsed)


def test_criterion_04_small_server_codes():
    watch = Stopwatch(10.0)
    for label, t, m_expected, k_expected in (
        ("c2(3)", 3, 6, 5),
        ("c2(5)", 5, 9, 8),
        ("c3(2)", 2, 9, 7),
        ("c3(4)", 4, 15, 13),
    ):
        code, verified = family_code(label)
        assert code.m == m_expected, f"criterion 4: {label} m={code.m}"
        assert verified.k == k_expected, f"criterion 4: {label} k={verified.k}"
        assert verified.rate == Fraction(3 * t + 1, 3 * t + 3), f"criterion 4: {label} rate"
        if code.m <= 14:
            assert k_pir_exhaustive(code).k == k_expected, f"criterion 4: {label} exhaustive"
    elapsed = watch.check(4)
    report(4, "small-server codes", elapsed)


def test_criterion_05_integer_s_end_to_end():
    watch = Stopwatch(60.0)
    code, verified = family_code("integer(3,2)")
    assert code.m == 129, f"criterion 5: m={code.m}"
    assert verified.per_part == (79,) * 6, f"criterion 5: per-part k {verified.per_part}"
    rate = verified.rate
    assert rate == Fraction(79, 129), f"criterion 5: rate {rate}"
    beta, gamma = _oracle_beta_gamma(3, 2, solve_xi(3, 2))
    assert (beta, gamma) == (29, 50), "criterion 5: beta/gamma"
    assert rate == integer_s_rate(3, 2) == Fraction(beta + gamma, beta + 2 * gamma), "criterion 5: rate formula"
    assert rate == s3_rate(2), "criterion 5: s=3 closed form"
    elapsed = watch.check(5)
    report(5, "integer-s end to end", elapsed)


def test_criterion_06_general_s_end_to_end():
    watch = Stopwatch(10.0)
    code, verified = family_code("general(5/2,2)")
    assert code.m == 45, f"criterion 6: m={code.m}"
    assert verified.k == 29, f"criterion 6: k={verified.k}"
    assert verified.rate == Fraction(29, 45), "criterion 6: rate"
    beta, gamma = _oracle_beta_gamma(Fraction(5, 2), 2, solve_xi(Fraction(5, 2), 2))
    assert (beta, gamma) == (13, 16), "criterion 6: beta/gamma"
    rate_formula = Fraction(beta + gamma, beta + 2 * gamma)
    assert verified.rate == general_s_rate(Fraction(5, 2), 2) == rate_formula, "criterion 6: rate formula"
    elapsed = watch.check(6)
    report(6, "general-s end to end", elapsed)


def test_criterion_07_closed_form_cross_checks():
    watch = Stopwatch(1.0)
    for t in range(2, 14):
        assert s3_rate(t) == integer_s_rate(3, t), f"criterion 7: s=3 mismatch at t={t}"
        assert s4_rate(t) == integer_s_rate(4, t), f"criterion 7: s=4 mismatch at t={t}"
    elapsed = watch.check(7)
    report(7, "closed-form cross-checks", elapsed)


def test_criterion_08_asymptotics():
    watch = Stopwatch(5.0)
    for s in range(2, 7):
        limit = upper_g_s(s)
        at_large_t = integer_s_rate(s, 1000)
        assert abs(at_large_t - limit) < Fraction(1, 1000), f"criterion 8: s={s} not within 1e-3"
        rates = [integer_s_rate(s, t) for t in range(2, 201)]
        assert all(a < b for a, b in zip(rates, rates[1:])), f"criterion 8: s={s} not monotone"
    elapsed = watch.check(8)
    report(8, "asymptotic rate", elapsed)


def test_criterion_09_diagnostic_soundness():
    watch = Stopwatch(120.0)  # work is shared with criteria 3-6; bundled budget
    for label in family_labels():
        code, verified = family_code(label)
        bound = verified.singleton_bound
        assert verified.k <= bound.numerator // bound.denominator, f"criterion 9: {label} beats bound"
        check = verify_plan(code, verified.plan)
        assert check.ok, f"criterion 9: {label} plan invalid: {check.violation}"
    elapsed = watch.check(9)
    report(9, "diagnostic soundness", elapsed)


def test_criterion_10_simulator():
    watch = Stopwatch(5.0)
    code, verified = family_code("c1(2,2)")
    plan = verified.plan
    fleet = Fleet(code=code, seed=42)
    transcripts = {}
    for part in range(1, code.p + 1):
        transcript = retrieve(fleet, plan, part)
        assert transcript.status == "ok" and transcript.agreement, f"criterion 10: part {part}"
        assert len(transcript.sets) == 7, f"criterion 10: part {part} has {len(transcript.sets)} sets"
        assert all(not s.faulted for s in transcript.sets), f"criterion 10: faults with none injected"
        assert transcript.value == fleet.database[part - 1], f"criterion 10: wrong value for part {part}"
        transcripts[part] = transcript.jsonl()
    for server in range(1, code.m + 1):
        for part in range(1, code.p + 1):
            transcript = retrieve(fleet, plan, part, failed={server})
            surviving = sum(1 for s in transcript.sets if not s.faulted)
            assert surviving >= 6, f"criterion 10: part {part} kept {surviving} sets with server {server} down"
            assert transcript.value == fleet.database[part - 1], "criterion 10: wrong value under failure"
    rebuilt = Fleet(code=code, seed=42)
    for part in range(1, code.p + 1):
        assert retrieve(rebuilt, plan, part).jsonl() == transcripts[part], "criterion 10: transcripts differ"
    assert serialize_plan(plan) == serialize_plan(k_pir_pairs(build_c1(2, 2)).plan)
    elapsed = watch.check(10)
    report(10, "simulator", elapsed)
