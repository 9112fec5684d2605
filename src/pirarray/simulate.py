"""Deterministic in-process simulation of a server fleet storing an array code.

Each simulated server stores the t chunk values implied by its column: a
cell's value is the XOR of the database chunks of the parts it sums.  A
recovery session issues one read per column per recovery set, solves each
set's GF(2) system for the target part, and reports whether all surviving
sets agree.  Time is a simulated integer-microsecond clock: a response
arrives at base latency plus seeded uniform jitter, a set with a missing
server is given up as faulted at `TIMEOUT_US`, events are replayed in
(timestamp, kind, server or set) order, and identical (fleet, plan, seed)
inputs produce byte-identical transcripts.  Every server shares the
fleet's latency, jitter and drop probability.

A fleet keeps one record (`_Record`), for the plan object in use: an
object it has not seen is checked whole by one `verify_plan` call before
its first session or sweep, and replaces the record.  The first sweep adds
the plan's table of set indices by server, and a trial counts every part's
lost sets in a few C-level passes over its rows (`availability_sweep`).

A session's random stream is seeded by the fleet's seed and the part, and
draws a jitter and a drop value for every server of every set, failed or
not.  So all sessions of a part of one plan on one fleet share their
arrivals, drops and solves: the first builds that failure-free timeline
once (`_timeline`) into the record, and each session is its text with the
sets that failed servers fault edited in (`retrieve`); a session with no
such set is the timeline's text object.  Each line is exactly the bytes
`json.dumps(event, sort_keys=True, separators=(",", ":"))` gives for the
event it holds: every value is an int, a bool, a fixed ASCII word, a `0x`
hex string or a list of these, so nothing needs escaping, and a
transcript's `events` and `sets` are parsed from its text.

Building a `Fleet` checks its knobs and draws the database; its servers'
cells are rendered and made into rows on first use.  A row carries its
value in its low bits, `(cell << chunk_width) | value`, so solving a set is
the `gf2` kernel's elimination on those rows, inserted into one fresh table
per set, for a set of one column as for a set of many.
"""

from __future__ import annotations

import json
import operator
import random
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple

from .errors import ParameterError
from .gf2 import parts_of, pivot_insert, pivot_reduce
from .model import ArrayCode, RecoveryPlan
from .verify import verify_plan

__all__ = [
    "Fleet",
    "MAX_CHUNK_WIDTH",
    "TIMEOUT_US",
    "SetOutcome",
    "SessionTranscript",
    "SweepSummary",
    "check_session",
    "retrieve",
    "availability_sweep",
]

# Largest chunk_width Fleet accepts, in bits: the database draws p chunks of
# this width and every response renders t of them as hex.
MAX_CHUNK_WIDTH = 1 << 16
# Simulated time at which a set with a missing server is given up as faulted.
TIMEOUT_US = 10_000

# Record kinds in a sort key; the time-0 requests (kind 0) come first.
_RESPONSE, _SOLVE = 1, 2
# A line's time: every line has one "time" key, and no other value holds it.
_TIME = re.compile(r'"time":(\d+)')
# json.dumps(payload, sort_keys=True, separators=(",", ":")), for sweeps
_SWEEP_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


class _Timeline(NamedTuple):
    """A part's failure-free session, as its fleet's record keeps it: `text`,
    its JSON lines, and `where`, each server of `sets` mapped to its set's
    index (0-based).  By server, `responses` holds its response line's
    offset in `text`, -1 for a server that a drop silences or that is in no
    set.  By set, `solves` holds its solve line's offset, `fault_at` where
    its faulted solve line goes (the first line keyed at or after it) and
    `values` its value, None when a drop faults it; `counts` counts the
    sets of each value."""

    text: str
    sets: tuple[tuple[int, ...], ...]
    where: dict[int, int]
    responses: array
    solves: array
    fault_at: array
    values: tuple[int | None, ...]
    counts: dict[int, int]


@dataclass
class _Record:
    """A fleet's plan object, which verify_plan has passed whole; by part,
    its timeline; and from its first sweep, each part's k and by server,
    row 0 standing for none, its set index in each part or -1."""

    plan: RecoveryPlan
    timelines: dict[int, _Timeline] = field(default_factory=dict)
    sweep: tuple[tuple[int, ...], list[tuple[int, ...]]] | None = None


@dataclass(frozen=True)
class Fleet:
    """An m-server fleet: the code, a database of p chunks drawn from the
    seed, and fault knobs that every server shares.  A set with a missing
    server is given up at `TIMEOUT_US`."""

    code: ArrayCode
    seed: int
    chunk_width: int = 64
    base_latency_us: int = 1000
    jitter_us: int = 250
    drop_probability: float = 0.0
    database: tuple[int, ...] = field(init=False)
    _record: _Record | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.chunk_width < 1 or self.chunk_width % 4:
            raise ParameterError(f"chunk_width must be a positive multiple of 4, got {self.chunk_width}")
        if self.chunk_width > MAX_CHUNK_WIDTH:
            raise ParameterError(
                f"chunk_width {self.chunk_width} is beyond the limit of {MAX_CHUNK_WIDTH} bits"
            )
        if self.jitter_us < 0:
            raise ParameterError("jitter_us must be >= 0")
        if self.base_latency_us < 0:
            raise ParameterError("base_latency_us must be >= 0")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ParameterError("drop probabilities must lie in [0, 1]")
        rng = random.Random(self.seed * 0x9E3779B1 + 1)
        object.__setattr__(
            self, "database", tuple(rng.getrandbits(self.chunk_width) for _ in range(self.code.p))
        )

    def chunk_hex(self, value: int) -> str:
        return f"0x{value:0{self.chunk_width // 4}x}"

    @cached_property
    def _cells(self) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """Per server, its cells as the JSON fragment `0x…","0x…` a response
        line holds between its brackets, and as the rows (cell <<
        chunk_width) | value, unreduced; each distinct cell's row and hex
        text is made once and shared by every column that holds it."""
        width = self.chunk_width
        known: dict[int, tuple[int, str]] = {}
        cells_json, rows = [], []
        for col in self.code.columns:
            texts, col_rows = [], []
            for cell in col:
                found = known.get(cell)
                if found is None:
                    chunk = 0
                    for part in parts_of(cell):
                        chunk ^= self.database[part - 1]
                    found = known[cell] = ((cell << width) | chunk, self.chunk_hex(chunk))
                col_rows.append(found[0])
                texts.append(found[1])
            cells_json.append('","'.join(texts))
            rows.append(tuple(col_rows))
        return tuple(cells_json), tuple(rows)


@dataclass(frozen=True)
class SetOutcome:
    columns: tuple[int, ...]
    faulted: bool
    value: int | None
    latency_us: int | None


@dataclass(frozen=True)
class SessionTranscript:
    """One part's recovery session.

    `text` is its JSON lines: the requests, all at time 0, in server order;
    the responses and solves in (time, kind, server or set) order; and the
    verdict at the last response's or solve's time (0 when there is none).
    `jsonl()` returns it; `events` (one dict per event) and `sets` (one
    `SetOutcome` per recovery set, in plan order) are parsed from it on
    first access and then kept.
    """

    part: int
    status: str
    agreement: bool
    value: int | None
    text: str

    def jsonl(self) -> str:
        """The session as JSON lines, each exactly the bytes
        json.dumps(event, sort_keys=True, separators=(",", ":")) gives for
        its event."""
        return self.text

    @cached_property
    def events(self) -> tuple[dict, ...]:
        """One dict per event: its JSON line, parsed."""
        return tuple(map(json.loads, self.text.splitlines()))

    @cached_property
    def sets(self) -> tuple[SetOutcome, ...]:
        """Each recovery set's outcome, in the plan's set order, read off its
        solve line: its columns, status, and a solved set's value and time."""
        return tuple(
            SetOutcome(tuple(e["columns"]), False, int(e["value"], 16), e["time"]) if e["status"] == "ok"
            else SetOutcome(tuple(e["columns"]), True, None, None)
            for _, e in sorted((e["set"], e) for e in self.events if e["event"] == "solve")
        )


def _record(fleet: Fleet, plan: RecoveryPlan) -> _Record:
    """The fleet's record of `plan`, made once the plan passes verify_plan
    if it is not the plan object in use; raises on an invalid plan."""
    if fleet._record is None or fleet._record.plan is not plan:
        check = verify_plan(fleet.code, plan)
        if not check.ok:
            raise ParameterError(f"invalid plan: {check.violation}")
        object.__setattr__(fleet, "_record", _Record(plan))
    return fleet._record


def _faulted_line(part: int, index: int, columns: Iterable[int], missing: Iterable[int]) -> str:
    """Set `index`'s faulted solve line, at `TIMEOUT_US`."""
    return (
        f'{{"columns":[{",".join(map(str, columns))}],"event":"solve","missing":[{",".join(map(str, missing))}],'
        f'"part":{part},"set":{index},"status":"faulted","time":{TIMEOUT_US}}}\n'
    )


def _verdict(counts: dict[int, int]) -> tuple[int, int | None]:
    """The number of solved sets, and their value if they all agree."""
    solved = [value for value, n in counts.items() if n]
    return sum(counts.values()), solved[0] if len(solved) == 1 else None


def _verdict_line(part: int, sets_ok: int, sets_total: int, time: int, value_hex: str | None) -> str:
    value = "" if value_hex is None else f',"value":"{value_hex}"'
    return (
        f'{{"agreement":{"false" if value_hex is None else "true"},"event":"verdict","part":{part},'
        f'"sets_ok":{sets_ok},"sets_total":{sets_total},'
        f'"status":"{"ok" if sets_ok else "retrieval-failed"}","time":{time}{value}}}\n'
    )


def _timeline(fleet: Fleet, part: int, sets: tuple[tuple[int, ...], ...]) -> _Timeline:
    """`part`'s failure-free session over `sets`, which verify_plan has
    passed.  Each set no drop faults inserts its columns' rows into one fresh
    pivot table.  A row's value is one linear function of its cell (the XOR
    of the chunks of the cell's parts), so a row whose cell bits reduce to 0
    reduces to 0 entirely and no pivot sits below bit chunk_width.  A set
    that passed verify_plan spans e_part, so reducing e_part << chunk_width
    by the rows of its columns leaves exactly the part's value.
    """
    # the sets are disjoint (verify_plan checked it): one set per server
    where = {j: index for index, columns in enumerate(sets) for j in columns}
    cells_json, rows = fleet._cells
    rng = random.Random(fleet.seed * 1_000_003 + part)
    # Each jitter is drawn as rng.randrange(jitter_us + 1) draws it, without
    # its wrapper: k-bit words until one is at most jitter_us, with
    # k = (jitter_us + 1).bit_length().  With no jitter k = 0: getrandbits(0)
    # is 0 and draws nothing, just as no randrange call would.
    getrandbits, uniform = rng.getrandbits, rng.random
    jitter_us = fleet.jitter_us
    bits = (jitter_us + 1).bit_length() if jitter_us else 0
    latency = fleet.base_latency_us
    drop = fleet.drop_probability
    # A record's key is (time << shift) | (kind << width) | id, with every id
    # (a server, or a set index: the sets are disjoint, so there are at most
    # m of them) below 1 << width.
    width = fleet.code.m.bit_length()
    shift = width + 2
    response_kind, solve_kind = _RESPONSE << width, _SOLVE << width
    target = (1 << (part - 1)) << fleet.chunk_width
    texts: dict[int, str] = {}  # each solved value's hex, rendered once
    response = f'"],"event":"response","part":{part},"server":'
    keys: list[int] = []
    lines: list[str] = []
    values = []
    for index, columns in enumerate(sets, start=1):
        missing = []
        latest = 0
        for j in columns:
            jitter = getrandbits(bits)
            while jitter > jitter_us:
                jitter = getrandbits(bits)
            if uniform() < drop:
                missing.append(j)
                continue
            arrival = latency + jitter
            if arrival > latest:
                latest = arrival
            keys.append((arrival << shift) | response_kind | j)
            lines.append(f'{{"cells":["{cells_json[j - 1]}{response}{j},"set":{index},"time":{arrival}}}\n')
        if missing:
            values.append(None)
            keys.append((TIMEOUT_US << shift) | solve_kind | index)
            lines.append(_faulted_line(part, index, columns, missing))
            continue
        pivots: dict[int, int] = {}
        for j in columns:
            for row in rows[j - 1]:
                pivot_insert(pivots, row)
        value = pivot_reduce(pivots, target)
        text = texts.get(value)
        if text is None:
            text = texts[value] = fleet.chunk_hex(value)
        values.append(value)
        keys.append((latest << shift) | solve_kind | index)
        lines.append(
            f'{{"columns":[{",".join(map(str, columns))}],"event":"solve","part":{part},'
            f'"set":{index},"status":"ok","time":{latest},"value":"{text}"}}\n'
        )
    # Keys are unique ints: sorting the positions by key orders the lines.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[n] for n in order]
    request = f'{{"event":"request","part":{part},"server":'
    lines = ["".join(f'{request}{j},"set":{where[j] + 1},"time":0}}\n' for j in sorted(where))] + [
        lines[n] for n in order
    ]
    # starts[n] is where the n-th sorted line after the requests starts, and
    # starts[-1] where the verdict starts
    starts = list(accumulate(map(len, lines)))
    ids = (1 << width) - 1
    responses = array("q", [-1]) * (fleet.code.m + 1)
    solves = array("q", [0]) * len(sets)
    for record, start in zip(keys, starts):
        if record & response_kind:
            responses[record & ids] = start
        else:
            solves[(record & ids) - 1] = start
    fault_at = array("q", (
        starts[bisect_left(keys, (TIMEOUT_US << shift) | solve_kind | index)] for index in range(1, len(sets) + 1)
    ))
    counts = Counter(value for value in values if value is not None)
    sets_ok, value = _verdict(counts)
    end = keys[-1] >> shift if keys else 0
    lines.append(_verdict_line(part, sets_ok, len(sets), end, None if value is None else texts[value]))
    return _Timeline("".join(lines), sets, where, responses, solves, fault_at, tuple(values), counts)


def check_session(code: ArrayCode, part: int | None, failed: Iterable[int]) -> set[int]:
    """The servers in `failed` as a set; raise unless `part` (when not None)
    is one of `code`'s parts and every failed server one of its columns,
    checking the part first."""
    if part is not None and not 1 <= part <= code.p:
        raise ParameterError(f"part {part} out of range 1..{code.p}")
    down = set()
    for j in failed:
        try:
            down.add(operator.index(j))
        except TypeError:
            raise ParameterError(f"failed server id must be an integer, got {j!r}") from None
    if any(not 1 <= j <= code.m for j in down):
        raise ParameterError(f"failed server index out of range 1..{code.m}")
    return down


def retrieve(
    fleet: Fleet, plan: RecoveryPlan, part: int, failed: Iterable[int] = ()
) -> SessionTranscript:
    """Replay one recovery session for `part`; servers in `failed` never
    answer.  The part's first session of the plan builds its timeline."""
    down = check_session(fleet.code, part, failed)
    timelines = _record(fleet, plan).timelines
    timeline = timelines.get(part)
    if timeline is None:
        timeline = timelines[part] = _timeline(fleet, part, plan.sets(part))
    text, where, responses, values = timeline.text, timeline.where, timeline.responses, timeline.values
    # (offset, 0, set index, line) puts a line in at offset, (offset, 1, 0,
    # None) cuts the line there; a line put in goes before the line it meets.
    edits: list[tuple[int, int, int, str | None]] = []
    faulted = set()
    for j in down:
        index = where.get(j)
        if index is not None:
            faulted.add(index)
            if responses[j] >= 0:
                edits.append((responses[j], 1, 0, None))
    counts = timeline.counts
    if faulted:
        counts = dict(counts)
        for index in faulted:
            columns = timeline.sets[index]
            missing = [j for j in columns if j in down or responses[j] < 0]
            edits.append((timeline.fault_at[index], 0, index, _faulted_line(part, index + 1, columns, missing)))
            edits.append((timeline.solves[index], 1, 0, None))
            if values[index] is not None:
                counts[values[index]] -= 1
    sets_ok, value = _verdict(counts)
    if edits:
        pieces = []
        at = 0
        cut = set()
        for offset, kind, _, line in sorted(edits):
            pieces.append(text[at:offset])
            if kind:
                cut.add(offset)
                at = text.index("\n", offset) + 1
            else:
                pieces.append(line)
                at = offset
        # The verdict is at the last remaining line's time: that of the
        # last line the edits keep, or the faulted solves' TIMEOUT_US.
        verdict = text.rfind("\n", 0, len(text) - 1) + 1
        start = text.rfind("\n", 0, verdict - 1) + 1
        while start in cut:
            start = text.rfind("\n", 0, start - 1) + 1
        end = max(TIMEOUT_US, int(_TIME.search(text, start)[1]))
        pieces.append(text[at:verdict])
        pieces.append(_verdict_line(
            part, sets_ok, len(timeline.sets), end, None if value is None else fleet.chunk_hex(value)
        ))
        text = "".join(pieces)
    return SessionTranscript(part, "ok" if sets_ok else "retrieval-failed", value is not None, value, text)


@dataclass(frozen=True)
class SweepSummary:
    """Surviving-recovery-set statistics over seeded random failure draws."""

    trials: int
    failures_per_trial: int
    parts: tuple[int, ...]
    per_part_min: tuple[int, ...]
    per_part_mean: tuple[Fraction, ...]

    @property
    def overall_min(self) -> int:
        return min(self.per_part_min)

    @property
    def status(self) -> str:
        return "ok" if self.overall_min > 0 else "retrieval-failed"

    def to_json(self) -> str:
        # int true division rounds correctly: mean_decimal is float(mean)
        return _SWEEP_JSON({
            "trials": self.trials,
            "failures_per_trial": self.failures_per_trial,
            "overall_min": self.overall_min,
            "status": self.status,
            "per_part": [
                {"part": part, "min": lo, "mean": str(mean), "mean_decimal": mean.numerator / mean.denominator}
                for part, lo, mean in zip(self.parts, self.per_part_min, self.per_part_mean)
            ],
        })


def availability_sweep(
    fleet: Fleet, plan: RecoveryPlan, trials: int, failures_per_trial: int
) -> SweepSummary:
    """Seeded sweep over random failed-server subsets of a fixed size.

    For every part, at least k - f recovery sets survive any f failures
    because the sets are pairwise disjoint.  f = m is accepted and reports
    status "retrieval-failed" (no set survives).

    The plan is checked whole once per plan object (`_record`), and its
    first sweep adds its table to the record.  Zipped with
    row 0, a trial's failed servers' rows give each part -1 and their set
    indices, one more distinct value than the sets lost; trials are tallied
    by those counts, so no per-part Python runs in a trial.
    """
    code = fleet.code
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    if not 0 <= failures_per_trial <= code.m:
        raise ParameterError(f"failures_per_trial out of range 0..{code.m}")
    record = _record(fleet, plan)
    if record.sweep is None:
        all_sets = list(map(plan.sets, plan.parts()))
        by_part = [[-1] * (code.m + 1) for _ in all_sets]
        for row, sets in zip(by_part, all_sets):
            for index, columns in enumerate(sets):
                for j in columns:
                    row[j] = index
        record.sweep = (tuple(map(len, all_sets)), list(zip(*by_part)))
    ks, rows = record.sweep
    if not ks:
        raise ParameterError("plan covers no parts")

    # per part, one more than the sets a trial takes out -> how many trials
    tally: dict[tuple[int, ...], int] = Counter()
    if failures_per_trial:
        rng = random.Random(fleet.seed * 7_368_787 + failures_per_trial)
        servers = range(1, code.m + 1)
        for _ in range(trials):
            down = map(rows.__getitem__, rng.sample(servers, failures_per_trial))
            tally[tuple(map(len, map(set, zip(rows[0], *down))))] += 1
    else:  # nothing fails, so no draw is made
        tally[(1,) * len(ks)] = trials
    # by part, its count in each tally key
    columns = list(zip(*tally))
    lost = [sum(map(operator.mul, column, tally.values())) - trials for column in columns]
    return SweepSummary(
        trials=trials,
        failures_per_trial=failures_per_trial,
        parts=plan.parts(),
        per_part_min=tuple(k + 1 - max(column) for k, column in zip(ks, columns)),
        per_part_mean=tuple(Fraction(k * trials - n, trials) for k, n in zip(ks, lost)),
    )
