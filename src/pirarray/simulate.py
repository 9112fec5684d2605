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

Every server of every set gets a request at time 0, failed or dropped
alike, so a (part, sets)'s request lines are the same in every session and
are rendered once, as the block every session's JSON lines start with.  A
response or ok solve line differs between sessions only in its time, so
everything before its time is rendered once per (part, sets) too.
`retrieve` records each other event as one small tuple led by a unique int
sort key (see `SessionTranscript`), so a plain sort orders the session and,
while every key is below 2^30, compares only those ints.  It draws each
response's jitter as `rng.randrange(jitter_us + 1)` would, straight from
`getrandbits`, so the stream is randrange's without its Python wrapper.  A
`SessionTranscript` keeps the block and the tuples; `jsonl()` renders them
straight to JSON lines, formatting only each response's and ok solve's
time into its rendered text and a faulted solve or the verdict through its
fixed-schema template; `events` parses those lines back to dicts and `sets`
builds outcomes from the solve tuples, both on first access, so a caller
that only prints a session builds neither.  Each line is exactly the bytes
`json.dumps(event, sort_keys=True, separators=(",", ":"))` gives for the
event it holds: every value is an int, a bool, a fixed ASCII word, a `0x`
hex string or a list of these, so nothing needs escaping.

A `Fleet` renders each server's cells once (each distinct cell's hex once)
as the JSON fragment a response line holds, and keeps per server its cells
with their values as rows, with no elimination when it is built.  A row
carries its value in its low bits, `(cell << chunk_width) | value`, so
solving a set is the `gf2` kernel's elimination on those rows, inserted
into one fresh table per set, with no second copy of the kernel, for a set
of one column as for a set of many.  A `Fleet` records each (part, sets) of
a plan that has passed `verify_plan`, so `availability_sweep` checks a plan
part once, and the first session of each (part, sets) renders its request
block, solves all of its sets and keeps per set its value, that value's
hex, its ok solve line up to the time and each of its servers' response
line text up to the time, so a replayed session neither checks, solves nor
renders them again.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

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

# A replayed (part, sets) as its fleet keeps it: the sessions' request
# record (w, requests) and per set (servers, head, value, value_hex), with
# (server, cells, response) per server of the set (see Fleet._solved).
_SolvedPart = tuple[tuple[int, str], tuple[tuple[tuple[tuple[int, str, str], ...], str, int, str], ...]]


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
    # Per server: its cells as the JSON fragment `0x…","0x…` a response line
    # holds between its brackets, and its cells as the rows
    # (cell << chunk_width) | value, unreduced.
    _cells_json: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # Every (part, that part's sets) that has passed verify_plan on this
    # fleet's code, so replaying a plan checks each part once.
    _verified: set[tuple[int, tuple[tuple[int, ...], ...]]] = field(init=False, repr=False, compare=False)
    # (part, that part's sets) -> (its sessions' request record (w,
    # requests), see SessionTranscript; per set (servers, head, value,
    # value_hex): per server of the set (server, cells, response), its
    # cells' fragment and its response line's text from `"],"event"` up to
    # the time; the set's ok solve line up to the time; the part's value it
    # solves to and that value's hex), so each is rendered or solved once.
    _solved: dict[tuple[int, tuple[tuple[int, ...], ...]], _SolvedPart] = field(
        init=False, repr=False, compare=False
    )

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
        # Each distinct cell's row and hex text is made once and shared by
        # every column that holds it.
        width = self.chunk_width
        known: dict[int, tuple[int, str]] = {}
        cells_json, rows = [], []
        for col in self.code.columns:
            texts = []
            col_rows = []
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
        object.__setattr__(self, "_cells_json", tuple(cells_json))
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_verified", set())
        object.__setattr__(self, "_solved", {})

    def chunk_hex(self, value: int) -> str:
        return f"0x{value:0{self.chunk_width // 4}x}"


@dataclass(frozen=True)
class SetOutcome:
    columns: tuple[int, ...]
    faulted: bool
    value: int | None
    latency_us: int | None


@dataclass(frozen=True)
class SessionTranscript:
    """One part's recovery session as its event records, in replay order.

    `records` starts with the request record ``(w, requests)``: `w` is
    ``m.bit_length()``, the id width of every key below, and `requests`
    the session's request lines, all at time 0, in server order and each
    ending in a newline, the one string its fleet rendered for the (part,
    sets).  Then come the responses and solves, sorted by their first
    field, the key ``(time << (w + 2)) | (kind << w) | id``, unique within
    a session:

    * response  ``(key, cells, text)``, `id` the server, `cells` its cells
      as the fragment ``0x…","0x…`` of its JSON list and `text` its line
      from ``"],"event":"response"`` up to the time, the set in it
    * solve     ``(key, columns, head, missing, value, value_hex)``, `id`
      the set index; `head` is the set's ok solve line from its start up
      to the time, `missing` is () for a solved set, and `value`/`value_hex`
      are None for a faulted one, whose line is rendered from `columns`

    Last is the verdict ``(time, sets_ok, sets_total, value_hex)``, at the
    last record's time (0 when there is none).

    `jsonl()` renders the records; `events` (one dict per event, parsed
    from its JSON line) and `sets` (one `SetOutcome` per recovery set, in plan
    order) are views built on first access and then kept.  Equality and
    hashing see only the fields.
    """

    part: int
    status: str
    agreement: bool
    value: int | None
    records: tuple[tuple, ...]

    def jsonl(self) -> str:
        """The records as JSON lines, each exactly the bytes
        json.dumps(event, sort_keys=True, separators=(",", ":")) gives for
        its event; the one place that knows each kind's keys."""
        part = self.part
        records = self.records
        width, requests = records[0]
        shift = width + 2
        ids = (1 << width) - 1
        response_bit = _RESPONSE << width
        lines = [requests]
        append = lines.append
        for record in records[1:-1]:
            key = record[0]
            if key & response_bit:
                append(f'{{"cells":["{record[1]}{record[2]}{key >> shift}}}\n')
            else:
                _, columns, head, missing, _, text = record
                if missing:
                    columns = ",".join(map(str, columns))
                    missing = ",".join(map(str, missing))
                    append(
                        f'{{"columns":[{columns}],"event":"solve","missing":[{missing}],'
                        f'"part":{part},"set":{key & ids},"status":"faulted","time":{key >> shift}}}\n'
                    )
                else:
                    append(f'{head}{key >> shift},"value":"{text}"}}\n')
        time, sets_ok, sets_total, text = records[-1]
        value = f',"value":"{text}"' if text is not None else ""
        append(
            f'{{"agreement":{"true" if self.agreement else "false"},"event":"verdict",'
            f'"part":{part},"sets_ok":{sets_ok},"sets_total":{sets_total},'
            f'"status":"{self.status}","time":{time}{value}}}\n'
        )
        return "".join(lines)

    @cached_property
    def events(self) -> tuple[dict, ...]:
        """One dict per event: its JSON line, parsed."""
        return tuple(map(json.loads, self.jsonl().splitlines()))

    @cached_property
    def sets(self) -> tuple[SetOutcome, ...]:
        """Each recovery set's outcome, in the plan's set order."""
        width = self.records[0][0]
        ids = (1 << width) - 1
        # the solves are the 6-tuples; a key's low `width` bits are the set index
        solves = sorted((record[0] & ids, record) for record in self.records[1:-1] if len(record) == 6)
        return tuple(
            SetOutcome(columns, True, None, None) if missing else SetOutcome(columns, False, value, key >> width + 2)
            for _, (key, columns, _, missing, value, _) in solves
        )


def _check_plan(fleet: Fleet, part: int, sets: tuple[tuple[int, ...], ...]) -> None:
    """Raise unless `part`'s `sets` pass verify_plan on this fleet's code;
    sets that have passed before are not checked again."""
    key = (part, sets)
    if key not in fleet._verified:
        check = verify_plan(fleet.code, RecoveryPlan._of_ascending({part: sets}))
        if not check.ok:
            raise ParameterError(f"invalid plan: {check.violation}")
        fleet._verified.add(key)


def _solved_sets(fleet: Fleet, part: int, sets: tuple[tuple[int, ...], ...]) -> _SolvedPart:
    """The sessions' request record (w, requests) and each of `part`'s sets
    as (servers, head, value, value_hex) (see `Fleet._solved`), once `sets`
    has passed verify_plan; each (part, sets) is checked, rendered and
    solved once.

    Each set inserts its columns' rows into one fresh pivot table.  Every
    row's value is one linear function of its cell (the XOR of the chunks
    of the cell's parts), so a row whose cell bits reduce to 0 reduces to 0
    entirely and no pivot sits below bit chunk_width.  A set that passed
    verify_plan spans e_part, so reducing e_part << chunk_width by the rows
    of its columns leaves exactly the part's value.
    """
    key = (part, sets)
    solved = fleet._solved.get(key)
    if solved is None:
        _check_plan(fleet, part, sets)
        rows = fleet._rows
        cells_json = fleet._cells_json
        target = (1 << (part - 1)) << fleet.chunk_width
        texts: dict[int, str] = {}  # each distinct value's hex, rendered once
        response = f'"],"event":"response","part":{part},"server":'
        out = []
        for index, columns in enumerate(sets, start=1):
            pivots: dict[int, int] = {}
            for j in columns:
                for row in rows[j - 1]:
                    pivot_insert(pivots, row)
            value = pivot_reduce(pivots, target)
            text = texts.get(value)
            if text is None:
                text = texts[value] = fleet.chunk_hex(value)
            servers = tuple((j, cells_json[j - 1], f'{response}{j},"set":{index},"time":') for j in columns)
            head = (
                f'{{"columns":[{",".join(map(str, columns))}],"event":"solve","part":{part},'
                f'"set":{index},"status":"ok","time":'
            )
            out.append((servers, head, value, text))
        # the sets are disjoint (verify_plan checked it): one request per server
        set_of = {server: index for index, columns in enumerate(sets, start=1) for server in columns}
        request = f'{{"event":"request","part":{part},"server":'
        requests = "".join(f'{request}{j},"set":{set_of[j]},"time":0}}\n' for j in sorted(set_of))
        solved = fleet._solved[key] = ((fleet.code.m.bit_length(), requests), tuple(out))
    return solved


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
    """Replay one recovery session for `part`; servers in `failed` never answer."""
    down = check_session(fleet.code, part, failed)
    sets = plan.sets(part)
    request_record, solved_sets = _solved_sets(fleet, part, sets)

    rng = random.Random(fleet.seed * 1_000_003 + part)
    # Each jitter is drawn as rng.randrange(jitter_us + 1) draws it, without
    # its wrapper: k-bit words until one is at most jitter_us, with
    # k = (jitter_us + 1).bit_length().  With no jitter k = 0: getrandbits(0)
    # is 0 and draws nothing, just as no randrange call would.
    getrandbits = rng.getrandbits
    uniform = rng.random
    jitter_us = fleet.jitter_us
    bits = (jitter_us + 1).bit_length() if jitter_us else 0
    latency = fleet.base_latency_us
    drop = fleet.drop_probability
    # A record's key is (time << shift) | (kind << width) | id, with every id
    # (a server, or a set index: the sets are disjoint, so there are at most
    # m of them) below 1 << width.
    width = request_record[0]
    shift = width + 2
    response_kind = _RESPONSE << width
    solve_kind = _SOLVE << width
    records: list[tuple] = []
    append = records.append
    solved = []
    solved_text = None  # the last solved set's hex: the agreed value's, if they agree
    for index, (columns, (servers, head, value, text)) in enumerate(zip(sets, solved_sets), start=1):
        missing = []
        latest = 0
        for server, cells, response in servers:
            jitter = getrandbits(bits)
            while jitter > jitter_us:
                jitter = getrandbits(bits)
            # the drop is drawn for every server, failed or not
            if uniform() < drop or server in down:
                missing.append(server)
                continue
            arrival = latency + jitter
            if arrival > latest:
                latest = arrival
            append(((arrival << shift) | response_kind | server, cells, response))
        if missing:
            append(((TIMEOUT_US << shift) | solve_kind | index, columns, head, tuple(missing), None, None))
        else:
            solved.append(value)
            solved_text = text
            append(((latest << shift) | solve_kind | index, columns, head, (), value, text))

    # Keys are unique, so the sort never compares past them.
    records.sort()
    agreement = len(solved) > 0 and len(set(solved)) == 1
    status = "ok" if solved else "retrieval-failed"
    value = solved[0] if agreement else None
    end = records[-1][0] >> shift if records else 0
    verdict = (end, len(solved), len(sets), solved_text if agreement else None)
    return SessionTranscript(
        part=part, status=status, agreement=agreement, value=value, records=(request_record, *records, verdict)
    )


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
        payload = {
            "trials": self.trials,
            "failures_per_trial": self.failures_per_trial,
            "overall_min": self.overall_min,
            "status": self.status,
            "per_part": [
                {"part": part, "min": lo, "mean": str(mean), "mean_decimal": float(mean)}
                for part, lo, mean in zip(self.parts, self.per_part_min, self.per_part_mean)
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def availability_sweep(
    fleet: Fleet, plan: RecoveryPlan, trials: int, failures_per_trial: int
) -> SweepSummary:
    """Seeded sweep over random failed-server subsets of a fixed size.

    For every part, at least k - f recovery sets survive any f failures
    because the sets are pairwise disjoint.  f = m is accepted and reports
    status "retrieval-failed" (no set survives).
    """
    code = fleet.code
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    if not 0 <= failures_per_trial <= code.m:
        raise ParameterError(f"failures_per_trial out of range 0..{code.m}")
    parts = plan.parts()
    for part in parts:
        _check_plan(fleet, part, plan.sets(part))
    if not parts:
        raise ParameterError("plan covers no parts")

    rng = random.Random(fleet.seed * 7_368_787 + failures_per_trial)
    minima = {part: plan.k_for(part) for part in parts}
    totals = {part: 0 for part in parts}
    # A part's sets are pairwise disjoint (verify_plan checked), so each
    # failed server takes out at most the one set of the part holding it.
    set_of = {part: {j: i for i, columns in enumerate(plan.sets(part)) for j in columns} for part in parts}
    for _ in range(trials):
        down = rng.sample(range(1, code.m + 1), failures_per_trial)
        for part in parts:
            where = set_of[part]
            surviving = plan.k_for(part) - len({where[j] for j in down if j in where})
            totals[part] += surviving
            if surviving < minima[part]:
                minima[part] = surviving
    per_part_min = tuple(minima[part] for part in parts)
    per_part_mean = tuple(Fraction(totals[part], trials) for part in parts)
    return SweepSummary(
        trials=trials,
        failures_per_trial=failures_per_trial,
        parts=parts,
        per_part_min=per_part_min,
        per_part_mean=per_part_mean,
    )
