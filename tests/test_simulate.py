import dataclasses
import json
import random
import re
import time
from fractions import Fraction

import pytest

from pirarray import (
    Fleet,
    RecoveryPlan,
    availability_sweep,
    build_c1,
    build_c2,
    k_pir_exhaustive,
    k_pir_pairs,
    parse_plan,
    retrieve,
    serialize_plan,
    verify_plan,
)
from pirarray import simulate
from pirarray.errors import ParameterError
from pirarray.gf2 import parts_of, pivot_insert
from pirarray.simulate import MAX_CHUNK_WIDTH

from conftest import seeded_code


@pytest.fixture(scope="module")
def c1_fleet():
    code = build_c1(2, 2)
    plan = k_pir_pairs(code).plan
    return Fleet(code=code, seed=42), plan


def test_database_and_values_are_seeded(c1_fleet):
    fleet, _ = c1_fleet
    again = Fleet(code=fleet.code, seed=42)
    assert fleet.database == again.database
    assert fleet._cells == again._cells
    assert fleet == again and repr(fleet) == repr(again) and "_cells" not in repr(fleet)
    other = Fleet(code=fleet.code, seed=43)
    assert fleet.database != other.database


def _cell_value(fleet, cell: int) -> int:
    value = 0
    for part in parts_of(cell):
        value ^= fleet.database[part - 1]
    return value


def _hex(fleet, value: int) -> str:
    return "0x" + format(value, "x").zfill(fleet.chunk_width // 4)


def test_server_cells_are_xor_of_chunks(c1_fleet, intro_code):
    # a response line holds each of the server's cells as the hex of the
    # XOR of the database chunks of the cell's parts
    for fleet in (c1_fleet[0], Fleet(code=intro_code, seed=3, chunk_width=4)):
        assert len(fleet._cells[0]) == fleet.code.m
        for col, cells in zip(fleet.code.columns, fleet._cells[0]):
            assert json.loads(f'["{cells}"]') == [_hex(fleet, _cell_value(fleet, cell)) for cell in col]


def test_retrieve_intro_recovery_sets(intro_code):
    fleet = Fleet(code=intro_code, seed=7)
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}]})
    transcript = retrieve(fleet, plan, 5)
    assert transcript.status == "ok"
    assert transcript.agreement
    assert len(transcript.sets) == 3
    assert all(not s.faulted for s in transcript.sets)
    assert transcript.value == fleet.database[4]
    assert {s.value for s in transcript.sets} == {fleet.database[4]}


def test_retrieve_with_single_server_down(intro_code):
    fleet = Fleet(code=intro_code, seed=7)
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}]})
    transcript = retrieve(fleet, plan, 5, failed={2})
    surviving = [s for s in transcript.sets if not s.faulted]
    assert len(surviving) == 2
    assert transcript.status == "ok" and transcript.agreement
    assert transcript.value == fleet.database[4]


def test_retrieve_all_down_is_retrieval_failed(intro_code):
    fleet = Fleet(code=intro_code, seed=7)
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}]})
    transcript = retrieve(fleet, plan, 5, failed={1, 2, 3, 4})
    assert transcript.status == "retrieval-failed"
    assert not transcript.agreement and transcript.value is None


def test_every_plan_set_recovers_its_part_at_every_chunk_width():
    # one- and multi-column sets alike are solved by eliminating rows
    # (cell << chunk_width) | value, so the value bits ride along with the
    # cell bits through one kernel, up to the widest chunk a fleet accepts
    sizes = set()
    for seed, shape in enumerate(((8, 5, 2), (10, 7, 3), (9, 6, 4), (12, 8, 3), (12, 10, 5))):
        code = seeded_code(seed, *shape)
        for plan in (k_pir_pairs(code).plan, k_pir_exhaustive(code).plan):
            for chunk_width in (4, 64, MAX_CHUNK_WIDTH):
                fleet = Fleet(code=code, seed=seed, chunk_width=chunk_width)
                for part in plan.parts():
                    transcript = retrieve(fleet, plan, part)
                    values = [outcome.value for outcome in transcript.sets]
                    assert values == [fleet.database[part - 1]] * plan.k_for(part)
                    sizes.update(len(columns) for columns in plan.sets(part))
    assert min(sizes) == 1 and max(sizes) >= 3


def test_zero_drop_probability_always_agrees(c1_fleet):
    fleet, plan = c1_fleet
    for part in range(1, fleet.code.p + 1):
        transcript = retrieve(fleet, plan, part)
        assert transcript.agreement and transcript.status == "ok"
        assert transcript.value == fleet.database[part - 1]


def test_transcripts_byte_identical_across_reruns(c1_fleet):
    fleet, plan = c1_fleet
    fresh = Fleet(code=fleet.code, seed=42)
    for part in (1, 3):
        first = retrieve(fleet, plan, part).jsonl()
        assert first == retrieve(fleet, plan, part).jsonl()
        assert first == retrieve(fresh, plan, part).jsonl()


def test_transcript_event_stream_shape(c1_fleet):
    fleet, plan = c1_fleet
    transcript = retrieve(fleet, plan, 1)
    events = [json.loads(line) for line in transcript.jsonl().splitlines()]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "request" and kinds[-1] == "verdict"
    assert kinds.count("request") == kinds.count("response") == 10  # 4 singletons + 3 pairs
    assert kinds.count("solve") == 7
    times = [e["time"] for e in events]
    assert times == sorted(times)
    assert events[-1]["sets_ok"] == 7 and events[-1]["agreement"] is True


def test_dropped_responses_fault_their_set(intro_code):
    fleet = Fleet(code=intro_code, seed=11, drop_probability=1.0)
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}]})
    transcript = retrieve(fleet, plan, 5)
    assert transcript.status == "retrieval-failed"
    assert all(s.faulted for s in transcript.sets)


def test_invalid_plan_is_contract_error(intro_code):
    fleet = Fleet(code=intro_code, seed=7)
    with pytest.raises(ParameterError, match="invalid plan"):
        retrieve(fleet, RecoveryPlan({3: [{1}]}), 3)
    with pytest.raises(ParameterError, match="out of range"):
        retrieve(fleet, RecoveryPlan({5: [{1}]}), 5, failed={99})
    with pytest.raises(ParameterError, match="part"):
        retrieve(fleet, RecoveryPlan({5: [{1}]}), 55)


def test_an_invalid_plan_is_refused_on_every_call(intro_code):
    # a plan is checked whole, so a session of any of its parts and a sweep
    # refuse it on every call with its first violation, and a refused plan
    # leaves the record of the plan in use as it was
    fleet = Fleet(code=intro_code, seed=7)
    good = k_pir_pairs(intro_code).plan
    bad = RecoveryPlan({**{part: good.sets(part) for part in good.parts()}, 3: [{1}]})
    message = "invalid plan: " + verify_plan(intro_code, bad).violation
    for _ in range(3):
        for part in (3, 5, 1):
            with pytest.raises(ParameterError, match=re.escape(message)):
                retrieve(fleet, bad, part)
        with pytest.raises(ParameterError, match=re.escape(message)):
            availability_sweep(fleet, bad, trials=2, failures_per_trial=1)
    assert fleet._record is None
    text = retrieve(fleet, good, 5).jsonl()
    with pytest.raises(ParameterError, match=re.escape(message)):
        retrieve(fleet, bad, 5)
    assert fleet._record.plan is good and retrieve(fleet, good, 5).jsonl() is text


@pytest.fixture
def plan_checks(monkeypatch):
    """Every plan object simulate.verify_plan is called on."""
    calls = []

    def counting(code, plan):
        calls.append(plan)
        return verify_plan(code, plan)

    monkeypatch.setattr(simulate, "verify_plan", counting)
    return calls


def test_a_replayed_plan_part_is_checked_once_per_fleet(intro_code, plan_checks):
    # the first session checks the whole plan in one call; later sessions
    # of any part, and sweeps, check nothing more
    fleet = Fleet(code=intro_code, seed=7)
    assert "_record" not in repr(fleet)
    plan = k_pir_pairs(intro_code).plan
    first = retrieve(fleet, plan, 5)
    assert len(plan_checks) == 1 and plan_checks[0] is plan
    assert retrieve(fleet, plan, 5) == first
    retrieve(fleet, plan, 5, failed={1})
    availability_sweep(fleet, plan, trials=3, failures_per_trial=1)
    availability_sweep(fleet, plan, trials=3, failures_per_trial=2)
    for part in plan.parts():
        retrieve(fleet, plan, part)
    assert len(plan_checks) == 1
    # another fleet keeps its own record
    retrieve(Fleet(code=intro_code, seed=7), plan, 5)
    assert len(plan_checks) == 2 and plan_checks[1] is plan


def test_verify_plan_runs_once_per_plan_object(plan_checks):
    # sessions and sweeps share one check per plan object, in whichever
    # order they come; a different object, even a content-equal one,
    # replaces the record, so going back to the first object checks it again
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    copy = parse_plan(serialize_plan(plan))
    fleet = Fleet(code=code, seed=5)
    rng = random.Random(37)
    for chosen in (plan, copy, plan):
        calls = len(plan_checks)
        for _ in range(3):
            availability_sweep(fleet, chosen, trials=2, failures_per_trial=rng.randrange(3))
            for part in rng.sample(plan.parts(), 4):
                retrieve(fleet, chosen, part, failed=rng.sample(range(1, code.m + 1), rng.randrange(3)))
        assert len(plan_checks) == calls + 1 and plan_checks[calls] is chosen
        assert fleet._record.plan is chosen


def test_a_content_equal_plan_gets_its_own_record(intro_code, plan_checks):
    # the record is kept by plan object: a content-equal copy is checked
    # whole and replaces it, and gives the same sessions and sweeps
    fleet = Fleet(code=intro_code, seed=7)
    plan = k_pir_pairs(intro_code).plan
    session = retrieve(fleet, plan, 5, failed={2}).jsonl()
    sweep = availability_sweep(fleet, plan, trials=3, failures_per_trial=1).to_json()
    copy = parse_plan(serialize_plan(plan))
    assert copy is not plan and copy == plan
    assert availability_sweep(fleet, copy, trials=3, failures_per_trial=1).to_json() == sweep
    assert fleet._record.plan is copy and fleet._record.timelines == {}
    assert retrieve(fleet, copy, 5, failed={2}).jsonl() == session
    assert len(plan_checks) == 2 and plan_checks[0] is plan and plan_checks[1] is copy
    # a plan that differs in one part is checked whole
    changed = RecoveryPlan({**{part: plan.sets(part) for part in plan.parts()}, 5: [{1}, {2}]})
    availability_sweep(fleet, changed, trials=3, failures_per_trial=1)
    assert len(plan_checks) == 3 and plan_checks[2] is changed


def test_sweep_no_failures_keeps_every_set(c1_fleet):
    fleet, plan = c1_fleet
    summary = availability_sweep(fleet, plan, trials=5, failures_per_trial=0)
    assert summary.per_part_min == (7, 7, 7, 7)
    assert summary.per_part_mean == (Fraction(7),) * 4
    assert summary.status == "ok"


def test_sweep_single_failure_leaves_k_minus_one(c1_fleet):
    fleet, plan = c1_fleet
    summary = availability_sweep(fleet, plan, trials=64, failures_per_trial=1)
    assert summary.overall_min >= 6
    assert all(mean >= 6 for mean in summary.per_part_mean)


def test_sweep_respects_disjointness_guarantee(c1_fleet):
    fleet, plan = c1_fleet
    for f in (0, 1, 2, 3):
        summary = availability_sweep(fleet, plan, trials=32, failures_per_trial=f)
        assert summary.overall_min >= 7 - f


def _sweep_oracle(fleet, plan, trials, f) -> tuple[list, str]:
    """Per part (min, mean) of its surviving sets, recounted set by set from
    the sweep's seeded draws, and the sweep's JSON as json.dumps renders a
    payload of str(Fraction) and float(Fraction) means."""
    rng = random.Random(fleet.seed * 7_368_787 + f)
    draws = [set(rng.sample(range(1, fleet.code.m + 1), f)) for _ in range(trials)]
    stats = []
    for part in plan.parts():
        alive = [sum(1 for columns in plan.sets(part) if draw.isdisjoint(columns)) for draw in draws]
        stats.append((min(alive), Fraction(sum(alive), trials)))
    low = min(lo for lo, _ in stats)
    payload = {
        "trials": trials,
        "failures_per_trial": f,
        "overall_min": low,
        "status": "ok" if low > 0 else "retrieval-failed",
        "per_part": [
            {"part": part, "min": lo, "mean": str(mean), "mean_decimal": float(mean)}
            for part, (lo, mean) in zip(plan.parts(), stats)
        ],
    }
    return stats, json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_sweep_counts_the_sets_each_failure_draw_leaves():
    # the sweep counts a part's lost sets through a per-server table; recount
    # the surviving sets set by set from the same seeded draws, on exhaustive
    # plans (servers in no set of a part, sets of three or more columns) and
    # on c1(5,5)'s pair plan, and render the JSON the plain way
    trials = 25
    cases = []
    for seed, shape in enumerate(((10, 7, 3), (12, 8, 3), (12, 10, 5))):
        code = seeded_code(seed, *shape)
        cases.append((Fleet(code=code, seed=seed), k_pir_exhaustive(code).plan))
    code = build_c1(5, 5)
    cases.append((Fleet(code=code, seed=1), k_pir_pairs(code).plan))
    seen = set()
    for fleet, plan in cases:
        for part in plan.parts():
            used = {j for columns in plan.sets(part) for j in columns}
            if len(used) < fleet.code.m:
                seen.add("server in no set")
            if any(len(columns) >= 3 for columns in plan.sets(part)):
                seen.add("set of three or more columns")
        for f in (0, 1, 2, 4, fleet.code.m):
            summary = availability_sweep(fleet, plan, trials=trials, failures_per_trial=f)
            stats, text = _sweep_oracle(fleet, plan, trials, f)
            assert summary.parts == plan.parts()
            assert list(zip(summary.per_part_min, summary.per_part_mean)) == stats
            assert summary.to_json() == text
    assert seen == {"server in no set", "set of three or more columns"}


def test_a_swept_plans_table_is_never_stale(c1_fleet):
    # a fleet keeps the table of the plan object it swept last; plans of two
    # contents, made fresh for each sweep and dropped after it, must each be
    # swept as a fresh fleet sweeps them, whatever object ids come back
    used, plan = c1_fleet
    fleet = Fleet(code=used.code, seed=used.seed)
    contents = (
        {part: plan.sets(part) for part in plan.parts()},
        {part: plan.sets(part)[2:] for part in plan.parts()[1:]},
    )
    expected = {
        (which, f): availability_sweep(Fleet(code=used.code, seed=used.seed), RecoveryPlan(sets), 12, f)
        for which, sets in enumerate(contents)
        for f in (1, 3)
    }
    assert expected[0, 1] != expected[1, 1] and expected[0, 3] != expected[1, 3]
    for which in (0, 1, 1, 0, 0, 1, 0, 1) * 3:
        for f in (1, 3):
            made = RecoveryPlan(contents[which])
            assert availability_sweep(fleet, made, 12, f) == expected[which, f]
            del made


def test_sweep_all_failed_reports_failure(c1_fleet):
    fleet, plan = c1_fleet
    summary = availability_sweep(fleet, plan, trials=3, failures_per_trial=fleet.code.m)
    assert summary.overall_min == 0
    assert summary.status == "retrieval-failed"


def test_sweep_is_seeded_and_json_stable(c1_fleet):
    fleet, plan = c1_fleet
    one = availability_sweep(fleet, plan, trials=20, failures_per_trial=2)
    two = availability_sweep(Fleet(code=fleet.code, seed=42), plan, trials=20, failures_per_trial=2)
    assert one == two
    assert one.to_json() == two.to_json()


def test_sweep_parameter_validation(c1_fleet):
    fleet, plan = c1_fleet
    with pytest.raises(ParameterError):
        availability_sweep(fleet, plan, trials=0, failures_per_trial=1)
    with pytest.raises(ParameterError):
        availability_sweep(fleet, plan, trials=1, failures_per_trial=fleet.code.m + 1)


def test_fleet_parameter_validation(intro_code):
    with pytest.raises(ParameterError):
        Fleet(code=intro_code, seed=1, chunk_width=10)
    for drop in (-0.1, 1.5):
        with pytest.raises(ParameterError, match=r"^drop probabilities must lie in \[0, 1\]$"):
            Fleet(code=intro_code, seed=1, drop_probability=drop)


def test_fleet_takes_one_scalar_per_knob(intro_code):
    # the database is always drawn from the seed, and the timeout is a constant
    names = tuple(f.name for f in dataclasses.fields(Fleet) if f.init)
    assert names == ("code", "seed", "chunk_width", "base_latency_us", "jitter_us", "drop_probability")
    fleet = Fleet(code=intro_code, seed=1)
    assert (fleet.base_latency_us, fleet.jitter_us, fleet.drop_probability) == (1000, 250, 0.0)
    assert len(fleet.database) == intro_code.p and simulate.TIMEOUT_US == 10_000


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"base_latency_us": -2000}, "base_latency_us must be >= 0"),
        ({"jitter_us": -1}, "jitter_us must be >= 0"),
    ],
)
def test_fleet_refuses_negative_times(intro_code, knobs, message):
    # a negative time would order a response or a faulted solve before the
    # requests it answers
    with pytest.raises(ParameterError, match=f"^{message}$"):
        Fleet(code=intro_code, seed=1, **knobs)
    zero = Fleet(code=intro_code, seed=1, base_latency_us=0, jitter_us=0)
    assert zero.base_latency_us == 0 and zero.jitter_us == 0


def test_an_explicit_zero_base_latency_is_kept(c1_fleet):
    # 1000 us is only the default; with 0 latency and no jitter every
    # response arrives at time 0
    fleet, plan = c1_fleet
    zero = Fleet(code=fleet.code, seed=42, base_latency_us=0, jitter_us=0)
    assert zero.base_latency_us == 0
    assert Fleet(code=fleet.code, seed=42).base_latency_us == 1000
    events = [json.loads(line) for line in retrieve(zero, plan, 1).jsonl().splitlines()]
    responses = [e["time"] for e in events if e["event"] == "response"]
    assert responses and set(responses) == {0}


def test_fleet_refuses_a_chunk_width_beyond_the_limit(intro_code):
    widest = Fleet(code=intro_code, seed=1, chunk_width=MAX_CHUNK_WIDTH)
    assert len(widest.chunk_hex(0)) == 2 + MAX_CHUNK_WIDTH // 4
    for width in (MAX_CHUNK_WIDTH + 4, 1 << 20):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=f"beyond the limit of {MAX_CHUNK_WIDTH} bits"):
            Fleet(code=intro_code, seed=1, chunk_width=width)
        assert time.perf_counter() - start < 0.1


def _reference_jsonl(transcript) -> str:
    return "\n".join(json.dumps(e, sort_keys=True, separators=(",", ":")) for e in transcript.events) + "\n"


def _shape(event: dict) -> str:
    if event["event"] == "solve":
        return f"solve-{event['status']}"
    if event["event"] == "verdict":
        return "verdict-value" if "value" in event else "verdict-no-value"
    return event["event"]


# (base_latency_us, jitter_us) pairs for _seeded_sessions.  At latency 0
# responses and solves land at time 0, right after the requests; at 9_900
# with jitter 255 (9-bit words, so some draws are rejected) arrivals straddle
# and tie with TIMEOUT_US, where faulted solves land; at 2**40 every sort key
# is past 30 bits and every response arrives after the faulted solves.
_TIMINGS = ((1000, 0), (1000, 250), (0, 0), (0, 250), (9_900, 255), (2**40, 255))


def _seeded_sessions(intro_code):
    """(fleet, plan, part, failed) over codes, chunk widths, timings and drop
    rates that together give every event shape.  The codes have m = 4, 7
    and 8 among others: m = 7 fills every bit of a key's id, and m = 4 and
    8 take a one-bit-wider id than m - 1 would."""
    codes = [intro_code, build_c1(2, 2), build_c2(5)]
    shapes = ((8, 5, 2), (10, 7, 3), (9, 6, 4), (7, 5, 2))
    codes += [seeded_code(seed, m, p, t) for seed, (m, p, t) in enumerate(shapes)]
    rng = random.Random(2024)
    for code in codes:
        plan = k_pir_pairs(code).plan
        for chunk_width in (4, 64, 256):
            for base_latency_us, jitter_us in _TIMINGS:
                for drop in (0.0, 0.3, 1.0):
                    fleet = Fleet(
                        code=code,
                        seed=rng.randrange(1000),
                        chunk_width=chunk_width,
                        base_latency_us=base_latency_us,
                        jitter_us=jitter_us,
                        drop_probability=drop,
                    )
                    for part in plan.parts():
                        failed = rng.sample(range(1, code.m + 1), min(code.m, rng.randint(0, 3)))
                        yield fleet, plan, part, failed


def _ties(events) -> set[str]:
    """Which record-order ties a session's events have: a response or solve
    at time 0 with the requests, and a response or solved set at
    TIMEOUT_US with a faulted one."""
    at_zero = {_shape(e) for e in events if e["time"] == 0}
    at_timeout = {_shape(e) for e in events if e["time"] == simulate.TIMEOUT_US}
    ties = {f"{shape}@0" for shape in at_zero - {"request"}} if "request" in at_zero else set()
    if "solve-faulted" in at_timeout:
        ties |= {f"{shape}@timeout" for shape in at_timeout & {"response", "solve-ok"}}
    return ties


def test_jsonl_matches_json_dumps(intro_code):
    shapes, ties = set(), set()
    for fleet, plan, part, failed in _seeded_sessions(intro_code):
        transcript = retrieve(fleet, plan, part, failed=failed)
        assert transcript.jsonl() == _reference_jsonl(transcript)
        shapes.update(map(_shape, transcript.events))
        ties |= _ties(transcript.events)
    assert shapes == {
        "request", "response", "solve-ok", "solve-faulted", "verdict-value", "verdict-no-value"
    }
    assert {"response@0", "solve-ok@0", "response@timeout", "solve-ok@timeout"} <= ties


def _eager_session(fleet, plan, part, failed):
    """A reference for the lazy views: a session's event dicts and set
    outcomes built eagerly, one dict per event as the event happens, sorted
    by (time, kind, server or set), and one SetOutcome per set in plan order."""
    down = set(failed)
    value = fleet.database[part - 1]
    rng = random.Random(fleet.seed * 1_000_003 + part)
    events, outcomes = [], []
    for set_idx, columns in enumerate(plan.sets(part), start=1):
        missing, latest = [], 0
        for server in columns:
            jitter = rng.randrange(fleet.jitter_us + 1) if fleet.jitter_us else 0
            dropped = rng.random() < fleet.drop_probability
            events.append(((0, 0, server), {"event": "request", "time": 0, "part": part, "set": set_idx, "server": server}))
            if server in down or dropped:
                missing.append(server)
                continue
            arrival = fleet.base_latency_us + jitter
            latest = max(latest, arrival)
            cells = [_hex(fleet, _cell_value(fleet, cell)) for cell in fleet.code.columns[server - 1]]
            response = {"event": "response", "time": arrival, "part": part, "set": set_idx, "server": server}
            events.append(((arrival, 1, server), {**response, "cells": cells}))
        solve = {"event": "solve", "part": part, "set": set_idx, "columns": list(columns)}
        if missing:
            outcomes.append(simulate.SetOutcome(columns, True, None, None))
            solve.update(time=simulate.TIMEOUT_US, status="faulted", missing=missing)
            events.append(((simulate.TIMEOUT_US, 2, set_idx), solve))
        else:
            outcomes.append(simulate.SetOutcome(columns, False, value, latest))
            solve.update(time=latest, status="ok", value=_hex(fleet, value))
            events.append(((latest, 2, set_idx), solve))
    solved = [o.value for o in outcomes if not o.faulted]
    agreement = len(solved) > 0 and len(set(solved)) == 1
    end = max((key[0] for key, _ in events), default=0)
    verdict = {
        "event": "verdict",
        "time": end,
        "part": part,
        "status": "ok" if solved else "retrieval-failed",
        "agreement": agreement,
        "sets_ok": len(solved),
        "sets_total": len(outcomes),
    }
    if agreement:
        verdict["value"] = _hex(fleet, solved[0])
    events.append(((end, 3, 0), verdict))
    events.sort(key=lambda pair: pair[0])
    return tuple(e for _, e in events), tuple(outcomes)


def test_lazy_views_match_the_eager_construction(intro_code):
    # events and sets are built from the records on first access; neither
    # reading them nor the order of reads changes jsonl() or equality
    for fleet, plan, part, failed in _seeded_sessions(intro_code):
        transcript = retrieve(fleet, plan, part, failed=failed)
        text = transcript.jsonl()
        events, sets = _eager_session(fleet, plan, part, failed)
        assert transcript.events == events
        assert transcript.sets == sets
        assert transcript.jsonl() == text
        again = retrieve(fleet, plan, part, failed=failed)
        assert again.events == events and again.sets == sets
        assert again.jsonl() == text
        assert again == transcript and hash(again) == hash(transcript)


def test_a_transcript_is_its_text(intro_code):
    # a transcript holds its five public fields only, and one made from them
    # parses the eager reference's events and set outcomes from its text,
    # with dropped responses and failed servers among the sessions
    names = [f.name for f in dataclasses.fields(simulate.SessionTranscript)]
    assert names == ["part", "status", "agreement", "value", "text"]
    seen = set()
    for fleet, plan, part, failed in _seeded_sessions(intro_code):
        transcript = retrieve(fleet, plan, part, failed=failed)
        copy = simulate.SessionTranscript(*(getattr(transcript, name) for name in names))
        events, sets = _eager_session(fleet, plan, part, failed)
        assert copy.sets == sets and copy.events == events and copy == transcript
        faulted = [set(e["missing"]) for e in events if e.get("status") == "faulted"]
        seen.update("failed" if missing & set(failed) else "dropped" for missing in faulted)
        seen.update("solved" for outcome in sets if not outcome.faulted)
    assert seen == {"failed", "dropped", "solved"}


def test_two_plans_for_one_part_render_their_own_columns():
    # a fleet keeps the timelines of the plan object in use; a second plan
    # that gives part 1 other sets renders its own
    code = build_c1(2, 2)
    first = k_pir_pairs(code).plan
    second = RecoveryPlan({1: first.sets(1)[1:]})
    assert first.sets(1)[0] != second.sets(1)[0]
    for plans in ((first, second), (second, first)):
        fleet = Fleet(code=code, seed=3, drop_probability=0.3)
        for plan in plans * 2:
            transcript = retrieve(fleet, plan, 1, failed=[2])
            events, sets = _eager_session(fleet, plan, 1, [2])
            assert transcript.events == events and transcript.sets == sets
            assert transcript.jsonl() == _reference_jsonl(transcript)
            solves = [e["columns"] for e in events if e["event"] == "solve"]
            assert sorted(map(tuple, solves)) == list(plan.sets(1))
            assert fleet._record.plan is plan and list(fleet._record.timelines) == [1]


def _jitters(fleet, plan, part) -> list[int]:
    """The jitter of each server of `part`'s sets, in draw order, read off a
    session's response times (no drops and no failures, so every server
    answers)."""
    arrivals = {e["server"]: e["time"] for e in retrieve(fleet, plan, part).events if e["event"] == "response"}
    return [arrivals[server] - fleet.base_latency_us for columns in plan.sets(part) for server in columns]


def test_jitter_is_drawn_as_randrange_draws_it():
    # retrieve draws k-bit getrandbits words until one is at most jitter_us;
    # the stream must be randrange's, with random() for the drop interleaved
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    draws = sum(map(len, plan.sets(1)))
    for jitter_us in (1, 2, 3, 7, 250, 255, 256, 257, 1023, 1024, 65535):
        for seed in range(50):
            fleet = Fleet(code=code, seed=seed, jitter_us=jitter_us)
            rng = random.Random(seed * 1_000_003 + 1)
            expected = []
            for _ in range(draws):
                expected.append(rng.randrange(jitter_us + 1))
                rng.random()
            assert _jitters(fleet, plan, 1) == expected


def test_replayed_sessions_match_a_fresh_fleets_first_run(intro_code):
    # each replayed part of a plan is solved once per fleet; replays read
    # the kept values
    for fleet, plan, part, failed in _seeded_sessions(intro_code):
        text = retrieve(fleet, plan, part, failed=failed).jsonl()
        assert retrieve(fleet, plan, part, failed=failed).jsonl() == text
        fresh = dataclasses.replace(fleet)
        assert fresh._record is None
        assert retrieve(fresh, plan, part, failed=failed).jsonl() == text
        assert set(fleet._record.timelines) <= set(plan.parts())


def test_a_one_column_set_reads_the_stored_singleton(c1_fleet):
    # a column spans e_part only if it stores it, so a one-column set recovers
    # the stored singleton; a column without e_part is refused by verify_plan
    fleet, _ = c1_fleet
    refused = 0
    for j, column in enumerate(fleet.code.columns, start=1):
        for part in range(1, fleet.code.p + 1):
            plan = RecoveryPlan({part: [{j}]})
            if 1 << (part - 1) in column:
                assert retrieve(fleet, plan, part).value == fleet.database[part - 1]
            else:
                refused += 1
                message = "invalid plan: " + verify_plan(fleet.code, plan).violation
                with pytest.raises(ParameterError, match=re.escape(message)):
                    retrieve(fleet, plan, part)
    assert refused


def test_a_plan_parts_request_block_is_rendered_once():
    # every server of every set is requested at time 0, failed or not, so
    # each session of a part starts with its timeline's request lines
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    fleet = Fleet(code=code, seed=5, drop_probability=0.3)
    availability_sweep(fleet, plan, trials=10, failures_per_trial=2)
    assert fleet._record.timelines == {}
    first = retrieve(fleet, plan, 2)
    second = retrieve(fleet, plan, 2, failed=[3, 9])
    assert first.jsonl() != second.jsonl()
    requests = sum(map(len, plan.sets(2)))
    block = "".join(first.jsonl().splitlines(keepends=True)[:requests])
    assert first.jsonl() is fleet._record.timelines[2].text
    assert second.jsonl().startswith(block) and first.events[requests]["event"] != "request"
    assert [e for e in first.events if e["event"] == "request"] == [
        e for e in _eager_session(fleet, plan, 2, [])[0] if e["event"] == "request"
    ]
    assert list(fleet._record.timelines) == [2]


def _signature(line: str) -> tuple:
    event = json.loads(line)
    return event["event"], event.get("server", 0), event.get("set", 0), event.get("status", "")


def test_a_plan_parts_response_and_solve_texts_are_rendered_once():
    # a plan part's failure-free session is rendered once per fleet; a
    # session with failed servers keeps the rest of its lines, in order, and
    # trades the failed servers' responses, the solves of the sets they
    # fault and the verdict for those sets' faulted solves and its verdict
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    fleet = Fleet(code=code, seed=5)
    first = retrieve(fleet, plan, 2)
    text = fleet._record.timelines[2].text
    assert first.jsonl() is text
    second = retrieve(fleet, plan, 2, failed=[3, 9])
    base, lines = text.splitlines(keepends=True), second.jsonl().splitlines(keepends=True)
    assert [line for line in base if line in lines] == [line for line in lines if line in base]
    hit = [index for index, columns in enumerate(plan.sets(2), start=1) if {3, 9} & set(columns)]
    servers = [(server, index) for index in hit for server in plan.sets(2)[index - 1] if server in (3, 9)]
    assert sorted(map(_signature, set(base) - set(lines))) == sorted(
        [("response", server, index, "") for server, index in servers]
        + [("solve", 0, index, "ok") for index in hit]
        + [("verdict", 0, 0, "ok")]
    )
    assert sorted(map(_signature, set(lines) - set(base))) == sorted(
        [("solve", 0, index, "faulted") for index in hit] + [("verdict", 0, 0, "ok")]
    )
    assert list(fleet._record.timelines) == [2]


# (base_latency_us, jitter_us, drop_probability) for the edit's differential
# check: no jitter at latency 0 ties every response and ok solve at time 0;
# latency 9_900 with jitter 255 lands responses on both sides of TIMEOUT_US;
# at 20_000 every response comes after the faulted solves.
_EDIT_KNOBS = [(1000, 250, drop) for drop in (0.0, 0.1, 0.3, 1.0)] + [
    (0, 0, 0.0), (0, 0, 0.3), (9_900, 255, 0.1), (20_000, 250, 0.1), (20_000, 250, 0.0)
]


def _edit_sessions(code, plans, rng):
    """(plan, part, failed) over both plans and every part, interleaved:
    no failure, a server in none of the part's sets, every server of one
    set, repeated ids, and up to 8 servers."""
    sessions = []
    for _ in range(2):
        for part in range(1, code.p + 1):
            for plan in plans:
                sets = plan.sets(part)
                used = {j for columns in sets for j in columns}
                unused = [j for j in range(1, code.m + 1) if j not in used]
                whole = list(max(sets, key=len)) if sets else []
                some = rng.sample(range(1, code.m + 1), min(code.m, rng.randint(1, 8)))
                sessions += [
                    (plan, part, []),
                    (plan, part, unused[:1]),
                    (plan, part, whole),
                    (plan, part, some + some[:2]),
                    (plan, part, rng.sample(range(1, code.m + 1), min(code.m, 8))),
                ]
    rng.shuffle(sessions)
    return sessions


def test_edited_sessions_match_the_eager_construction(intro_code):
    # every session is its (part, sets)'s failure-free timeline with the
    # failed servers edited out; it must match the eager reference and a
    # fresh fleet's first session, whichever sessions came before it
    rng = random.Random(30)
    seen = set()
    for code in (intro_code, build_c1(3, 2)):
        pairs = k_pir_pairs(code).plan
        fewer = RecoveryPlan({part: pairs.sets(part)[1:] for part in pairs.parts()})
        for seed, (base_latency_us, jitter_us, drop) in enumerate(_EDIT_KNOBS):
            fleet = Fleet(
                code=code,
                seed=seed,
                base_latency_us=base_latency_us,
                jitter_us=jitter_us,
                drop_probability=drop,
            )
            for plan, part, failed in _edit_sessions(code, (pairs, fewer), rng):
                transcript = retrieve(fleet, plan, part, failed=failed)
                events, sets = _eager_session(fleet, plan, part, failed)
                assert transcript.events == events and transcript.sets == sets
                fresh = retrieve(dataclasses.replace(fleet), plan, part, failed=failed)
                assert fresh.jsonl() == transcript.jsonl() and fresh == transcript
                assert hash(fresh) == hash(transcript)
                faulted = [e for e in events if e.get("status") == "faulted"]
                if any(set(e["missing"]) - set(failed) for e in faulted if set(e["missing"]) & set(failed)):
                    seen.add("dropped and failed in one set")
                if any(e["event"] == "response" and e["time"] > simulate.TIMEOUT_US for e in events) and faulted:
                    seen.add("faulted before a late response")
                if failed and events[-1]["time"] > simulate.TIMEOUT_US:
                    seen.add("late verdict")
                if events[-1]["status"] == "retrieval-failed" and failed:
                    seen.add("no set left")
    assert seen == {"dropped and failed in one set", "faulted before a late response", "late verdict", "no set left"}


def test_a_replay_draws_and_solves_nothing(monkeypatch):
    # only the first session of a part of the plan in use draws its stream
    # and solves its sets; later ones, with or without failed servers and
    # interleaved over parts, create no Random and insert no row, and one
    # whose failed servers fault no set returns the timeline's text object.
    # Another plan object replaces the record, so its parts, and those of
    # the first plan when it comes back, are built again.
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    other = RecoveryPlan({part: plan.sets(part)[1:] for part in (1, 2)})
    fleet = Fleet(code=code, seed=5, drop_probability=0.1)
    rng = random.Random(7)
    sessions = []
    for chosen in (plan, other, plan):
        block = [part for _ in range(3) for part in chosen.parts()]
        rng.shuffle(block)
        sessions += [(chosen, part, rng.sample(range(1, code.m + 1), rng.randrange(4))) for part in block]
    made, inserted = [], []

    class Counted(random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    def counted(pivots, bits):
        inserted.append(bits)
        return pivot_insert(pivots, bits)

    monkeypatch.setattr(simulate.random, "Random", Counted)
    monkeypatch.setattr(simulate, "pivot_insert", counted)
    replayed: set[int] = set()  # parts replayed since the record last changed
    current, built = None, 0
    for chosen, part, failed in sessions:
        if chosen is not current:
            current = chosen
            replayed.clear()
        made.clear()
        inserted.clear()
        transcript = retrieve(fleet, chosen, part, failed=failed)
        if part in replayed:
            assert made == [] and inserted == []
        else:
            assert len(made) == 1 and inserted
            replayed.add(part)
            built += 1
        if not {j for columns in chosen.sets(part) for j in columns} & set(failed):
            assert transcript.jsonl() is fleet._record.timelines[part].text
    assert built == 2 * len(plan.parts()) + 2


def test_a_part_with_no_sets_prints_only_its_verdict():
    # an empty set list and a part the plan leaves out both give a session
    # of no requests and no sets
    code = build_c1(2, 2)
    plan = RecoveryPlan({1: [], 2: k_pir_pairs(code).plan.sets(2)})
    fleet = Fleet(code=code, seed=1)
    for part in (1, code.p):
        for failed in ((), (2,)):
            transcript = retrieve(fleet, plan, part, failed=failed)
            assert transcript.jsonl() == (
                f'{{"agreement":false,"event":"verdict","part":{part},"sets_ok":0,"sets_total":0,'
                '"status":"retrieval-failed","time":0}\n'
            )
            assert transcript.sets == () and transcript.value is None


def test_the_solve_cache_holds_one_entry_per_replayed_part():
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    other = RecoveryPlan({1: plan.sets(1)[1:]})
    fleet = Fleet(code=code, seed=5)
    rng = random.Random(11)
    replayed = set()
    for _ in range(3):
        for part in plan.parts()[::2]:
            failed = rng.sample(range(1, code.m + 1), rng.randrange(4))
            retrieve(fleet, plan, part, failed=failed)
            replayed.add(part)
            assert set(fleet._record.timelines) == replayed
    retrieve(fleet, other, 1)
    assert fleet._record.plan is other and list(fleet._record.timelines) == [1]
    assert "_record" not in repr(fleet)


def test_a_fleet_solves_from_its_rows_once(monkeypatch):
    # building a Fleet eliminates nothing; the first session of a (part,
    # sets) inserts each cell of its sets once, and a replay inserts none
    calls = []

    def counted(pivots, bits):
        calls.append(bits)
        return pivot_insert(pivots, bits)

    monkeypatch.setattr(simulate, "pivot_insert", counted)
    code = build_c1(3, 2)
    plan = k_pir_pairs(code).plan
    fleet = Fleet(code=code, seed=5)
    assert calls == []
    first = retrieve(fleet, plan, 2)
    rows = [row for columns in plan.sets(2) for j in columns for row in fleet._cells[1][j - 1]]
    assert len(rows) == code.t * sum(map(len, plan.sets(2)))
    assert sorted(calls) == sorted(rows)
    calls.clear()
    assert retrieve(fleet, plan, 2, failed=[3]).jsonl() != first.jsonl()
    assert retrieve(fleet, plan, 2) == first
    assert calls == []


def test_a_sweep_solves_nothing(c1_fleet):
    # a sweep only checks the plan and counts surviving sets
    fleet, plan = c1_fleet
    fresh = Fleet(code=fleet.code, seed=42)
    availability_sweep(fresh, plan, trials=10, failures_per_trial=2)
    assert fresh._record.timelines == {} and "_cells" not in vars(fresh)
    assert fresh._record.plan is plan and fresh._record.sweep is not None


@pytest.mark.parametrize("bad", [2.9, "3", None, 2.0])
def test_failed_server_ids_must_be_integers(intro_code, bad):
    fleet = Fleet(code=intro_code, seed=7)
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}]})
    with pytest.raises(ParameterError, match=re.escape(f"failed server id must be an integer, got {bad!r}")):
        retrieve(fleet, plan, 5, failed=[1, bad])
    # ints and anything with __index__ are read as the server they name
    assert retrieve(fleet, plan, 5, failed=[True]).jsonl() == retrieve(fleet, plan, 5, failed=[1]).jsonl()
