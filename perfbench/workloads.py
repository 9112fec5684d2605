"""The benchmark's four workloads: seeded inputs, the timed op, known-answer checks, work counts.

Each workload is a class whose constructor is the set-up (seeded input
generation plus any plan the loop needs).  `cycle` is the fixed op sequence
drawn from the seed; the benchmark replays it whole, so the percentiles of a
mixed-size workload always fall on the same inputs.  `op` makes the library
calls in the order the CLI handlers make them and is the only timed code.
`check` raises `CheckFailed` when an output misses its known answer and
otherwise returns the output bytes that go into the workload's digest.
`work` gives counts computed from outside the library (its inputs and
outputs), never from inside it.

Ops reach pirarray through module attributes (`model.parse_code`, ...) so
that the tracer's wrappers, installed on those attributes, see the calls.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from math import comb
from pathlib import Path

from pirarray import bounds, cli, constructions, model, simulate, verify


class CheckFailed(Exception):
    """An op's output missed its known answer."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def family(name: str, t: int, d: int | None = None, s: str | None = None):
    """(label, ConstructionParams) of one family code, labelled as in the docs."""
    params = constructions.ConstructionParams(
        family=name, t=t, d=d, s=Fraction(s) if s is not None else None
    )
    if name == "c1":
        label = f"c1({t},{d})"
    elif s is None:
        label = f"{name}({t})"
    else:
        label = f"{name}({s},{t})"
    return label, params


def _candidate_pairs(code) -> int:
    """Column pairs the pair verifier tests: sum over parts of C(m - alpha_i, 2)."""
    return sum(comb(code.m - alpha, 2) for alpha in model.singleton_census(code))


def _matched_pairs(plan) -> int:
    return sum(1 for part in plan.parts() for columns in plan.sets(part) if len(columns) == 2)


class FamilyVerify:
    """Construct, verify and plan I/O on generated families with t from 2 to 6.

    Pair-edge generation is most of the work.  A span-index verifier does
    2^t work per column, so its gain depends on t; m stops at 896 so that an
    op stays near 2 s and the tail has samples.
    """

    name = "family-verify"
    min_cycles = 7
    specs = (
        ("integer", 2, None, "3"),
        ("general", 3, None, "7/3"),
        ("c1", 6, 3, None),
        ("c1", 5, 5, None),
        ("c1", 5, 3, None),
        ("general", 3, None, "8/3"),
    )

    def __init__(self, seed: int, span=None):
        self.seed = seed
        self.cycle = [family(name, t, d, s) for name, t, d, s in self.specs]
        random.Random(seed).shuffle(self.cycle)
        self.expected = {label: params.predicted_counts() for label, params in self.cycle}

    def describe(self) -> list:
        return [label for label, _ in self.cycle]

    def op(self, item):
        _, params = item
        code = params.build()
        text = model.serialize_code(code)
        parsed = model.parse_code(text)
        report = verify.k_pir_pairs(parsed)
        plan_check = verify.verify_plan(parsed, report.plan)
        plan_text = model.serialize_plan(report.plan)
        plan = model.parse_plan(plan_text)
        return parsed, text, report, plan_check, plan_text, plan

    def check(self, item, out) -> bytes:
        label, params = item
        parsed, text, report, plan_check, plan_text, plan = out
        m, k = self.expected[label]
        _expect(report.m == m, f"{label}: m={report.m}, symbolic m={m}")
        _expect(report.k == k, f"{label}: k={report.k}, symbolic k={k}")
        if params.family == "c1":
            bound = bounds.upper_g_st(params.t, params.d)
            _expect(report.rate == bound, f"{label}: rate {report.rate} != upper_g_st {bound}")
        floor = report.singleton_bound.numerator // report.singleton_bound.denominator
        _expect(report.k <= floor, f"{label}: k={report.k} above singleton bound {floor}")
        _expect(plan_check.ok, f"{label}: plan rejected: {plan_check.violation}")
        _expect(plan == report.plan, f"{label}: plan changed in a PIRPLAN round trip")
        return (text + plan_text).encode()

    def work(self, item, out) -> dict[str, int]:
        parsed, text, report, *_ = out
        return {
            "columns_built": parsed.m,
            "pircode_bytes_parsed": len(text.encode()),
            "candidate_pairs": _candidate_pairs(parsed),
            "matched_pairs": _matched_pairs(report.plan),
        }

    def parity(self, workdir: Path) -> None:
        _, params = min(self.cycle, key=lambda item: self.expected[item[0]][0])
        code = params.build()
        report = verify.k_pir_pairs(code)
        fleet = simulate.Fleet(code=code, seed=self.seed)
        session = simulate.retrieve(fleet, report.plan, 1).jsonl()
        cli_parity(params, report, fleet, workdir, [(["--part", 1], session)])


# The well-known [7x4, 12] 3-PIR example from the paper's introduction.
INTRO_CODE = """PIRCODE v1
p=12 t=7 m=4
1;2;4;5;7;8;10+11+12
2;3;5;6;7+8+9;10;11
3;1;4+5+6;8;9;11;12
1+2+3;6;4;9;7;12;10
"""


def _reduce(pivots: dict[int, int], bits: int) -> int:
    while bits:
        row = pivots.get(bits.bit_length() - 1)
        if row is None:
            break
        bits ^= row
    return bits


def _insert(pivots: dict[int, int], bits: int) -> bool:
    bits = _reduce(pivots, bits)
    if bits:
        pivots[bits.bit_length() - 1] = bits
    return bool(bits)


def _random_column(rng: random.Random, p: int, t: int) -> list[int]:
    """t independent cells spanning a random t-dimensional space, every
    singleton the space contains stored as a cell (the model's convention)."""
    span: dict[int, int] = {}
    cells: list[int] = []
    while len(cells) < t:
        bits = rng.randrange(1, 1 << p)
        if _insert(span, bits):
            cells.append(bits)
    singletons = [1 << i for i in range(p) if _reduce(span, 1 << i) == 0]
    basis: dict[int, int] = {}
    column = [bits for bits in singletons + cells if _insert(basis, bits)]
    return column[:t]


def _cell_text(bits: int) -> str:
    return "+".join(str(i + 1) for i in range(bits.bit_length()) if bits >> i & 1)


def random_code_text(rng: random.Random, m: int, p: int, t: int) -> str:
    lines = [model.CODE_MAGIC, f"p={p} t={t} m={m}"]
    for _ in range(m):
        lines.append(";".join(_cell_text(bits) for bits in _random_column(rng, p, t)))
    return "\n".join(lines) + "\n"


class ExactSmall:
    """Exhaustive packing on codes of 4 to 14 columns.

    Enumeration and packing (2^m subsets per part) do nearly all the work;
    the pair verifier runs too, but only on these small codes, so this is
    the bypass workload for pair-verifier changes.
    """

    name = "exact-small"
    min_cycles = 2
    # (m, p, t): every m of 12..14 with small, middle and large p and t.
    # Exhaustive cost depends mostly on the shape but also on the cells, by
    # about a tenth either way; fixing the shapes and drawing several codes
    # of each keeps the median op of runs on different seeds comparable.
    shapes = (
        (12, 5, 2), (12, 8, 3), (12, 12, 4),
        (13, 6, 2), (13, 9, 3), (13, 11, 4),
        (14, 5, 2), (14, 8, 3),
    )
    draws = 3
    fixed = (("c1", 2, 2, None, 7), ("c2", 5, None, None, 8), ("c3", 2, None, None, 7))

    def __init__(self, seed: int, span=None):
        rng = random.Random(seed)
        self.cycle = [
            (f"random(m={m},p={p},t={t})#{draw}", random_code_text(rng, m, p, t), None)
            for m, p, t in self.shapes
            for draw in range(1, self.draws + 1)
        ]
        self.cycle.append(("intro(7x4)", INTRO_CODE, 3))
        for name, t, d, s, k in self.fixed:
            label, params = family(name, t, d, s)
            self.cycle.append((label, model.serialize_code(params.build()), k))
        rng.shuffle(self.cycle)

    def describe(self) -> list:
        return [[label, text] for label, text, _ in self.cycle]

    def op(self, item):
        _, text, _ = item
        code = model.parse_code(text)
        exhaustive = verify.k_pir_exhaustive(code)
        pairs = verify.k_pir_pairs(code)
        exhaustive_check = verify.verify_plan(code, exhaustive.plan)
        pairs_check = verify.verify_plan(code, pairs.plan)
        return code, exhaustive, pairs, exhaustive_check, pairs_check

    def check(self, item, out) -> bytes:
        label, text, known_k = item
        code, exhaustive, pairs, exhaustive_check, pairs_check = out
        floor = exhaustive.singleton_bound.numerator // exhaustive.singleton_bound.denominator
        _expect(
            pairs.k <= exhaustive.k <= floor,
            f"{label}: need pair k {pairs.k} <= exhaustive k {exhaustive.k} <= {floor}",
        )
        _expect(exhaustive_check.ok, f"{label}: exhaustive plan rejected: {exhaustive_check.violation}")
        _expect(pairs_check.ok, f"{label}: pair plan rejected: {pairs_check.violation}")
        if known_k is not None:
            _expect(exhaustive.k == known_k, f"{label}: k={exhaustive.k}, known k={known_k}")
        plans = model.serialize_plan(exhaustive.plan) + model.serialize_plan(pairs.plan)
        return (text + plans).encode()

    def work(self, item, out) -> dict[str, int]:
        _, text, _ = item
        code, exhaustive, pairs, *_ = out
        return {
            "pircode_bytes_parsed": len(text.encode()),
            "subsets": code.p * (2**code.m - 1),
            "candidate_pairs": _candidate_pairs(code),
            "matched_pairs": _matched_pairs(pairs.plan),
            "pairs_below_exact": int(pairs.k < exhaustive.k),
        }


class FleetReplay:
    """Recovery sessions and availability sweeps on c1(5,5).

    Each op is one session with 0 to 3 failed servers, rendered to JSONL;
    every 20th op is a 20-trial sweep instead.  Sessions do GF(2) solving and
    rendering, sweeps only set arithmetic.  This is the bypass workload for
    verifier and builder changes, except for set-up, which includes the pair
    plan that `simulate` without `--plan` recomputes.
    """

    name = "fleet-replay"
    min_cycles = 2
    cycle_length = 100
    sweep_every = 20
    sweep_trials = 20

    def __init__(self, seed: int, span=None):
        _, self.params = family("c1", 5, 5)
        code = self.params.build()
        self.report = verify.k_pir_pairs(code)
        with span("simulate.fleet") if span else contextlib.nullcontext():
            self.fleet = simulate.Fleet(code=code, seed=seed)
        # Items are (label, part, failed servers) for a session and
        # (label, None, failure count) for a sweep.
        rng = random.Random(seed)
        self.cycle = []
        for index in range(1, self.cycle_length + 1):
            failures = rng.randint(0, 3)
            if index % self.sweep_every == 0:
                self.cycle.append((f"sweep(f={failures})", None, failures))
            else:
                failed = tuple(sorted(rng.sample(range(1, code.m + 1), failures)))
                self.cycle.append((f"retrieve(f={failures})", rng.randint(1, code.p), failed))

    def describe(self) -> list:
        return [self.fleet.database, [[part, failed] for _, part, failed in self.cycle]]

    def op(self, item):
        _, part, failed = item
        plan = self.report.plan
        if part is None:
            summary = simulate.availability_sweep(self.fleet, plan, self.sweep_trials, failed)
            return summary, summary.to_json()
        transcript = simulate.retrieve(self.fleet, plan, part, failed=failed)
        return transcript, transcript.jsonl()

    def check(self, item, out) -> bytes:
        label, part, failed = item
        result, text = out
        plan = self.report.plan
        if part is None:
            _expect(result.status == "ok", f"{label}: sweep status {result.status}")
            for swept, low in zip(result.parts, result.per_part_min):
                need = plan.k_for(swept) - failed
                _expect(low >= need, f"{label}: part {swept} kept {low} sets, need {need}")
        else:
            need = plan.k_for(part) - len(failed)
            sets_ok = sum(1 for outcome in result.sets if not outcome.faulted)
            _expect(result.agreement, f"{label}: part {part}: sets disagree")
            _expect(
                result.value == self.fleet.database[part - 1],
                f"{label}: part {part}: recovered value differs from the database",
            )
            # Fleet() defaults to drop probability 0, so only failed servers fault sets.
            _expect(sets_ok >= need, f"{label}: part {part}: {sets_ok} sets answered, need {need}")
        return text.encode()

    def work(self, item, out) -> dict[str, int]:
        result, text = out
        events = 0 if item[1] is None else len(result.events)
        return {"events": events, "transcript_bytes": len(text.encode())}

    def parity(self, workdir: Path) -> None:
        plan = self.report.plan
        _, part, failed = next(item for item in self.cycle if item[1] is not None)
        _, _, sweep_failures = next(item for item in self.cycle if item[1] is None)
        session = simulate.retrieve(self.fleet, plan, part, failed=failed).jsonl()
        sweep = simulate.availability_sweep(self.fleet, plan, self.sweep_trials, sweep_failures)
        runs = [
            (["--part", part, *(flag for j in failed for flag in ("--fail-server", j))], session),
            (["--sweep-trials", self.sweep_trials, "--sweep-failures", sweep_failures], sweep.to_json() + "\n"),
        ]
        cli_parity(self.params, self.report, self.fleet, workdir, runs)


class Materialize:
    """Build, serialize, parse and re-serialize codes of 1716 to 6435 columns.

    Builders and the model layer are at most 3% of the other workloads and
    all of this one; columns reach the model both from the builders and from
    text parsing.
    """

    name = "materialize"
    min_cycles = 7
    specs = (
        ("integer", 2, None, "4"),
        ("integer", 3, None, "3"),
        ("c1", 6, 6, None),
        ("c1", 7, 4, None),
        ("general", 4, None, "5/2"),
        ("c1", 7, 7, None),
    )

    def __init__(self, seed: int, span=None):
        self.cycle = [family(name, t, d, s) for name, t, d, s in self.specs]
        random.Random(seed).shuffle(self.cycle)
        self.expected_m = {label: params.predicted_counts()[0] for label, params in self.cycle}

    def describe(self) -> list:
        return [label for label, _ in self.cycle]

    def op(self, item):
        _, params = item
        code = params.build()
        text = model.serialize_code(code)
        again = model.serialize_code(model.parse_code(text))
        return code, text, again

    def check(self, item, out) -> bytes:
        label, _ = item
        code, text, again = out
        _expect(again == text, f"{label}: PIRCODE text changed in a parse/serialize round trip")
        m = self.expected_m[label]
        _expect(code.m == m, f"{label}: m={code.m}, symbolic m={m}")
        return text.encode()

    def work(self, item, out) -> dict[str, int]:
        code, text, _ = out
        size = len(text.encode())
        return {"columns_built": code.m, "pircode_bytes_parsed": size, "pircode_bytes_serialized": 2 * size}


WORKLOADS = {w.name: w for w in (FamilyVerify, ExactSmall, FleetReplay, Materialize)}


def _cli(argv: list) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main([str(arg) for arg in argv])
    _expect(status == 0, f"pirarray {argv[0]} exited with {status}")
    return buffer.getvalue()


def cli_parity(params, report, fleet, workdir: Path, simulate_runs) -> None:
    """Run `construct`, `verify --plan-out` and `simulate --plan` through
    `pirarray.cli.main` and require the library path's bytes.

    `simulate_runs` pairs the extra `simulate` flags with the stdout the
    library path produces for them on `fleet`.
    """
    code_path, plan_path = workdir / "code.pir", workdir / "code.plan"
    flags = ["--family", params.family, "--t", params.t]
    if params.family == "c1":
        flags += ["--d", params.d]
    elif params.family in ("integer", "general"):
        flags += ["--s", params.s]
    _cli(["construct", *flags, "--out", code_path])
    _expect(
        code_path.read_text(encoding="utf-8") == model.serialize_code(fleet.code),
        "construct: code bytes differ from serialize_code",
    )
    stdout = _cli(["verify", "--in", code_path, "--plan-out", plan_path])
    rate = report.rate
    summary = f"k={report.k} m={report.m} rate={rate.numerator}/{rate.denominator}"
    _expect(stdout.splitlines()[0] == summary, f"verify printed {stdout.splitlines()[0]!r}, library gives {summary!r}")
    _expect(
        plan_path.read_text(encoding="utf-8") == model.serialize_plan(report.plan),
        "verify: plan bytes differ from serialize_plan",
    )
    for extra, expected in simulate_runs:
        stdout = _cli(["simulate", "--in", code_path, "--plan", plan_path, "--seed", fleet.seed, *extra])
        _expect(stdout == expected, f"simulate {extra}: stdout differs from the library transcript")
