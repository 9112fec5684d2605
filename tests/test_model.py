import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pirarray import (
    ArrayCode,
    RecoveryPlan,
    build_c1,
    build_c2,
    build_c3,
    build_general_s,
    build_integer_s,
    parse_code,
    parse_plan,
    serialize_code,
    serialize_plan,
    singleton_census,
)
from pirarray.constructions import FAMILIES, ConstructionParams
from pirarray.errors import FormatError, ParameterError
from pirarray.gf2 import parts_of, pivot_insert, pivot_reduce
from pirarray.model import MAX_PARTS, PLAN_MAGIC, format_cell, parse_cell


def test_intro_parses_with_expected_shape(intro_code):
    assert (intro_code.p, intro_code.t, intro_code.m) == (12, 7, 4)
    assert intro_code.s == Fraction(12, 7)


def test_a_code_takes_only_p_and_its_columns():
    # t, m and s are derived from the columns, so no input can disagree with them
    columns = ([0b0011, 0b0100], [0b1000, 0b0001], [0b0010, 0b1100])
    code = ArrayCode(4, columns)
    assert code == ArrayCode.from_columns(4, (iter(col) for col in columns))
    assert (code.p, code.t, code.m, code.s) == (4, 2, 3, Fraction(2))
    assert code.columns == ((0b0100, 0b0011), (0b0001, 0b1000), (0b0010, 0b1100))
    for make in (ArrayCode, ArrayCode.from_columns):
        with pytest.raises(ParameterError, match="^a code needs at least one column$"):
            make(4, [])


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
    cols = [[0b001, 0b010, 0b100]] * 4
    code = ArrayCode.from_columns(3, cols)
    assert singleton_census(code) == [4, 4, 4]
    one = ArrayCode.from_columns(3, cols[:1])
    assert singleton_census(one) == [1, 1, 1]


def test_cell_text_round_trip():
    cell = 0b111
    assert format_cell(cell) == "1+2+3"
    assert parts_of(parse_cell("10+11+12", 12)) == (10, 11, 12)
    assert parse_cell("7", 12) == 1 << 6


def test_intro_sum_cell_serializes_verbatim(intro_code):
    lines = serialize_code(intro_code).splitlines()
    assert lines[0] == "PIRCODE v1"
    assert lines[1] == "p=12 t=7 m=4"
    # canonical order puts the three-part sum last in its column
    assert lines[5].endswith("1+2+3")
    assert "1+2+3" in lines[5].split(";")


def test_parse_minimal_code():
    code = parse_code("PIRCODE v1\np=2 t=1 m=2\n1\n2\n")
    assert code.columns[0][0] == 0b01
    assert code.columns[1][0] == 0b10


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
        ("PIRCODE v1\np=2 t=1 m=1\n\u00b2\n", "malformed"),  # a digit int() refuses
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
        ArrayCode.from_columns(2, [[0]])


def test_plan_round_trip():
    plan = RecoveryPlan({5: [{1}, {2}, {3, 4}], 11: [{2}, {3}, {1, 4}]})
    text = serialize_plan(plan)
    assert text.splitlines()[0] == "PIRPLAN v1"
    assert "part 5: {1};{2};{3,4}" in text
    assert parse_plan(text) == plan


def _reference_serialize_plan(plan: RecoveryPlan) -> str:
    """The set-by-set rendering: each set's columns joined on their own."""
    lines = [PLAN_MAGIC]
    for part in plan.parts():
        rendered = ";".join("{" + ",".join(map(str, s)) + "}" for s in plan.sets(part))
        lines.append(f"part {part}: {rendered}" if rendered else f"part {part}:")
    return "\n".join(lines) + "\n"


_PLAN_COLUMNS = st.one_of(st.integers(1, 12), st.integers(10, 10**15))


@example({1: [], 2: [frozenset()], 3: [frozenset({7})], 4: [frozenset({10, 123456}), frozenset({9})]})
@given(
    st.dictionaries(
        st.integers(1, 10**6),
        st.lists(st.frozensets(_PLAN_COLUMNS, max_size=4), max_size=6),
        max_size=5,
    )
)
def test_serialize_plan_matches_the_set_by_set_reference(sets_by_part):
    # empty parts, empty sets, one-column sets and multi-digit columns
    plan = RecoveryPlan(sets_by_part)
    text = serialize_plan(plan)
    assert text == _reference_serialize_plan(plan)
    if all(all(plan.sets(part)) for part in plan.parts()):  # PIRPLAN has no empty set
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


def _reference_parse_plan(text: str) -> RecoveryPlan:
    """The set-by-set reference parser: every set is matched, converted and
    checked on its own, and the plan canonicalizes what it is given."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "PIRPLAN v1":
        raise FormatError("missing 'PIRPLAN v1' header")
    sets_by_part: dict[int, list[tuple[int, ...]]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        match = re.match(r"^part (\d+):(.*)$", line)
        if match is None:
            raise FormatError(f"malformed plan line {line!r}")
        part = int(match.group(1))
        if part in sets_by_part:
            raise FormatError(f"duplicate plan line for part {part}")
        rest = match.group(2).strip()
        sets = []
        for tok in rest.split(";") if rest else ():
            set_match = re.match(r"^\{(\d+(?:,\d+)*)\}$", tok)
            if set_match is None:
                raise FormatError(f"malformed column set {tok!r} for part {part}")
            columns = [int(c) for c in set_match.group(1).split(",")]
            if len(set(columns)) != len(columns):
                raise FormatError(f"repeated column in set {tok!r} for part {part}")
            if columns != sorted(columns):
                raise FormatError(f"column set {tok!r} for part {part} must be ascending")
            sets.append(columns)
        sets_by_part[part] = sets
    return RecoveryPlan(sets_by_part)


@pytest.mark.parametrize(
    "body",
    [
        "part 1: {1};{2,3}\npart 2:\n",
        "part 2: {3};{1};{2,9,11}\npart 1: {4}\n",  # parts and sets out of order
        "part 1: {1};{1}\n",  # one set twice
        "part 1: {01,2};{007}\n",  # leading zeros, which JSON does not read
        "part 1: {\u0661,\u0663}\n",  # Arabic-Indic digits 1 and 3
        "part 1: {1};  {2}\n",
        "part 1:   {1};{2}  \n",
        "part 1: {1};\n",
        "part 1: {1},{2}\n",
        "part 1: {1};{3,2}\n",
        "part 1: {1};{2,2};{3,x}\n",
        "part 1: {1};{3,x};{2,2}\n",
        "part 1: {1,2,3,5,4}\n",
        "part 1: {1};{1e3}\n",
        "part 1: {-1}\n",
        "part 1: {}\n",
        "part 1: {[1]}\n",
        "part 1: {1}}\n",
        f"part 1: {{1}};{{{'9' * 4000}}}\n",
        # shapes JSON reads that the counts of "{", ";", "};{" and "," refuse
        "part 1: {1;2},{3}\n",
        "part 1: {{1}};2\n",
        "part 1: {{1},{2}};{3}\n",
        "part 1: 1;{2}\n",
        "part 1: {1},{2};{3}\n",
        "part 1: {1}{2}\n",
        "part 1: {1,,2}\n",
        "part 1: {1};;{2}\n",
        "part 1: ;{1}\n",
        # a bare number beside a set, which passes the counts
        "part 1: {1},2\n",
        "part 1: 2,{1}\n",
        # nesting deep enough to make JSON recurse past the limit
        "part 1: " + "{" * 5000 + "1" + "}" * 5000 + "\n",
    ],
)
def test_parse_plan_matches_the_set_by_set_reference(body):
    _check_against_reference("PIRPLAN v1\n" + body)


def _check_against_reference(text: str) -> None:
    try:
        expected = _reference_parse_plan(text)
    except FormatError as err:
        with pytest.raises(FormatError, match=f"^{re.escape(str(err))}$"):
            parse_plan(text)
    else:
        plan = parse_plan(text)
        assert plan == expected
        assert serialize_plan(plan) == serialize_plan(expected)
        for part in plan.parts():
            assert all(type(c) is int for columns in plan.sets(part) for c in columns)


_FUZZ_ALPHABET = "0123456789{},; x-\u0661"
_FUZZ_TOKENS = ["{", "}", ",", ";", "};{", "1", "12", "0", "07", "{1}", "{2,3}", "{{", "}}", " ", "x", "-", "\u0661"]


def _fuzzed_sets(rng: random.Random) -> str:
    """Seeded text after "part 1:": random characters of the plan alphabet
    and a few others, random runs of plan tokens, or well-formed sets with
    up to two characters inserted, deleted or replaced."""
    kind = rng.randrange(3)
    if kind == 0:
        return "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, 12)))
    if kind == 1:
        return "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 8)))
    sets = [sorted(rng.sample(range(15), rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
    text = ";".join("{" + ",".join(map(str, columns)) + "}" for columns in sets)
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(_FUZZ_ALPHABET) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(_FUZZ_ALPHABET) + text[at + 1 :]
    return text


def test_parse_plan_matches_the_reference_on_fuzzed_lines():
    rng = random.Random(27)
    for _ in range(4000):
        _check_against_reference("PIRPLAN v1\npart 1: " + _fuzzed_sets(rng) + "\n")


def test_recovery_plan_keeps_ascending_tuples_and_canonicalizes_the_rest():
    ascending = (2, 5, 9)
    plan = RecoveryPlan({1: [(7,), ascending, (3, 1), [4, 4, 6], (True, 3), frozenset({8})]})
    assert plan.sets(1) == ((1, 3), (1, 3), (2, 5, 9), (4, 6), (7,), (8,))
    assert any(columns is ascending for columns in plan.sets(1))
    assert all(type(c) is int for columns in plan.sets(1) for c in columns)


def test_columns_keep_file_order():
    text = "PIRCODE v1\np=2 t=1 m=2\n2\n1\n"
    code = parse_code(text)
    assert code.columns[0][0] == 0b10
    assert serialize_code(code) == text


def test_parse_time_does_not_grow_with_header_p():
    # a short file must not cost work proportional to its declared p, neither
    # in the singleton check nor in each cell's range check
    for p, m in ((MAX_PARTS, 1), (MAX_PARTS, 20)):
        text = f"PIRCODE v1\np={p} t=1 m={m}\n" + "1\n" * m
        start = time.perf_counter()
        code = parse_code(text)
        elapsed = time.perf_counter() - start
        assert (code.p, code.m) == (p, m)
        assert elapsed < 0.5


@pytest.mark.parametrize("p", [MAX_PARTS + 1, 10**9])
def test_header_p_beyond_max_parts_is_refused(p):
    start = time.perf_counter()
    with pytest.raises(FormatError, match=f"beyond the limit of {MAX_PARTS} parts"):
        parse_code(f"PIRCODE v1\np={p} t=1 m=2\n1\n1\n")
    assert time.perf_counter() - start < 0.1


# Python's int() refuses more than sys.get_int_max_str_digits() digits
# (4300 by default), and no count or index in a valid file is that long.
_LONG = "1" * 5000


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_code, f"PIRCODE v1\np={_LONG} t=1 m=1\n1\n", "parameter line"),
        (parse_plan, f"PIRPLAN v1\npart {_LONG}: {{1}}\n", "plan line 2"),
        (parse_plan, f"PIRPLAN v1\npart 1: {{1}}\npart 2: {{2}};{{{_LONG}}}\n", "plan line 3"),
        (parse_code, f"PIRCODE v1\np=2 t=1 m=1\n1+{_LONG}\n", "cell"),
    ],
    ids=["header", "plan-part", "plan-column", "cell"],
)
def test_numbers_too_long_to_convert_are_format_errors(parse, text, where):
    start = time.perf_counter()
    with pytest.raises(FormatError, match=f"^{where}: a 5000-digit number is too long to convert$"):
        parse(text)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# per-distinct-cell and per-distinct-column memoization must not change
# which error is raised or the canonical order


@pytest.mark.parametrize(
    "body, error, message",
    [
        # a repeated bad token: the first bad token in file order is named
        ("1;2\n2+1;3\n1;2\n3+1;2\n2+1;3", FormatError, "cell '2+1': part indices must be ascending"),
        ("1;2\n1+1;3\n1+1;3\n2;2+2", FormatError, "cell '1+1': duplicate part index 1"),
        ("1;2\n1;2;3\n1;2\n1;2;3", FormatError, "column 2 has 3 cells, expected t=2"),
        # a repeated bad column: the first column holding it is named
        ("1;2\n1+2;1+2\n1;3\n1+2;1+2\n2+3;2+3", ParameterError, "column 2 cells are linearly dependent"),
        ("1;2\n1;2\n2;1+2\n1;2\n1+2;2", ParameterError, "column 3 spans part 1 without storing it"),
        ("1;3\n2+3;3\n1;3\n2+3;3", ParameterError, "column 2 spans part 2 without storing it"),
    ],
)
def test_repeated_bad_lines_name_the_first(body, error, message):
    lines = body.split("\n")
    t = len(lines[0].split(";"))
    text = f"PIRCODE v1\np=3 t={t} m={len(lines)}\n" + "\n".join(lines) + "\n"
    with pytest.raises(error) as raised:
        parse_code(text)
    assert str(raised.value).startswith(message)


def test_repeated_zero_cell_names_the_first_column():
    e1, e2, zero = 0b01, 0b10, 0
    columns = [[e1, e2], [zero, e1], [e1, e2], [zero, e1], [e1, zero]]
    with pytest.raises(ParameterError, match="^column 2 holds a zero cell$"):
        ArrayCode.from_columns(3, columns)


# One code per family, so that every column shape a builder emits is
# shuffled below; a family added to the registry must be added here too.
FAMILY_EXAMPLES = {
    "c1": ConstructionParams("c1", 3, d=2),
    "c2": ConstructionParams("c2", 5),
    "c3": ConstructionParams("c3", 4),
    "integer": ConstructionParams("integer", 2, s=Fraction(3)),
    "general": ConstructionParams("general", 3, s=Fraction(7, 3)),
}


def test_shuffled_cells_give_the_canonical_code():
    assert set(FAMILY_EXAMPLES) == set(FAMILIES)
    rng = random.Random(5)
    for params in FAMILY_EXAMPLES.values():
        code = params.build()
        # every copy of a repeated column is shuffled on its own, so equal
        # columns reach the model in different cell orders
        shuffled = []
        for col in code.columns:
            cells = list(col)
            rng.shuffle(cells)
            shuffled.append(cells)
        again = ArrayCode.from_columns(code.p, shuffled)
        assert again == code
        assert serialize_code(again) == serialize_code(code)


def test_out_of_range_cell_in_a_repeated_column_is_rejected():
    # a repeated column is looked up by its own cells, so an offender that
    # shares a cell with the checked columns before it is still checked, and
    # of two copies of an offending column the first is named
    e1, e2 = 0b01, 0b10
    for bad, message in ((-2, "a negative cell -2"), (0, "a zero cell"), (0b110, "a cell with a part above p=2")):
        columns = [[e1, e2], [e2, e1], [e1, e2], [e1, bad], [e1, bad]]
        with pytest.raises(ParameterError, match=f"^column 4 holds {message}$"):
            ArrayCode.from_columns(2, columns)
        columns = [[e1, e2], [bad, e2], [e1, e2], [bad, e2]]
        with pytest.raises(ParameterError, match=f"^column 2 holds {message}$"):
            ArrayCode.from_columns(2, columns)


def test_equal_cells_of_a_code_are_one_object():
    # Python caches no int above 256, so with p >= 9 a builder that made
    # each cell anew would leave a copy per column; the parser makes one
    # int per distinct cell text
    codes = [build_c1(5, 5), build_c2(9), build_c3(8), build_integer_s(3, 3), build_general_s(Fraction(9, 4), 4)]
    codes.append(parse_code(serialize_code(codes[0])))
    for code in codes:
        assert code.p >= 9
        first: dict[int, int] = {}
        for col in code.columns:
            for cell in col:
                assert first.setdefault(cell, cell) is cell


# ---------------------------------------------------------------------------
# columns with pairwise disjoint supports are checked by proof, not by
# elimination; the oracle is the elimination path every column took before


def _oracle_checked_column(p: int, j: int, col) -> tuple[int, ...]:
    for bits in col:
        if bits < 0:
            raise ParameterError(f"column {j} holds a negative cell {bits}")
        if bits == 0:
            raise ParameterError(f"column {j} holds a zero cell")
        if bits >> p:
            raise ParameterError(f"column {j} holds a cell with a part above p={p}")
    cells = tuple(sorted(col, key=lambda bits: (0, bits) if bits & (bits - 1) == 0 else (1, parts_of(bits))))
    pivots: dict[int, int] = {}
    stored = set()
    support = 0
    for bits in cells:
        if not pivot_insert(pivots, bits):
            raise ParameterError(f"column {j} cells are linearly dependent")
        if bits & (bits - 1) == 0:
            stored.add(bits)
        support |= bits
    while support:
        bit = support & -support
        support ^= bit
        if bit not in stored and pivot_reduce(pivots, bit) == 0:
            raise ParameterError(
                f"column {j} spans part {bit.bit_length()} without storing it as a singleton"
            )
    return cells


def _disjoint_column(rng: random.Random, p: int, t: int) -> list[int]:
    """t cells over pairwise disjoint random part sets, in random order."""
    parts = rng.sample(range(p), rng.randint(t, p))
    cuts = sorted(rng.sample(range(1, len(parts)), t - 1))
    cells = [sum(1 << i for i in parts[a:b]) for a, b in zip([0] + cuts, cuts + [len(parts)])]
    rng.shuffle(cells)
    return cells


def _bad_column(rng: random.Random, p: int, t: int) -> list[int]:
    """A column that breaks one invariant, or a check, in a random way."""
    kind = rng.choice(("zero", "negative", "above-p", "dependent", "spans", "random"))
    if kind == "random":  # overlapping supports, most of them invalid
        return [rng.randrange(1, 1 << p) for _ in range(t)]
    cells = _disjoint_column(rng, p, t) if t <= p else [rng.randrange(1, 1 << p) for _ in range(t)]
    where = rng.randrange(t)
    if kind == "zero":
        cells[where] = 0
    elif kind == "negative":
        cells[where] = -rng.randrange(1, 1 << p)
    elif kind == "above-p":
        cells[where] |= 1 << rng.randrange(p, p + 3)
    elif kind == "dependent" and t >= 2:
        # a repeated cell, or the sum of two others
        others = rng.sample([i for i in range(t) if i != where], min(t - 1, rng.randint(1, 2)))
        cells[where] = 0
        for i in others:
            cells[where] ^= cells[i]
    elif kind == "spans" and t >= 2:
        # a singleton folded into another cell: x_i = (x_i + x_k) + x_k
        other = rng.choice([i for i in range(t) if i != where])
        low = cells[other] & -cells[other]
        cells[where] |= low if cells[where] & low == 0 else 0
    return cells


def _model_or_error(p: int, columns) -> object:
    try:
        return ArrayCode.from_columns(p, columns).columns
    except ParameterError as exc:
        return str(exc)


def _oracle_or_error(p: int, columns) -> object:
    try:
        return tuple(_oracle_checked_column(p, j, col) for j, col in enumerate(columns, start=1))
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_canonical_columns_match_the_elimination_oracle(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(400):
        p = rng.randint(1, 20)
        t = rng.randint(1, 8)
        columns = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5 and t <= p:
                columns.append(_disjoint_column(rng, p, t))
            elif rng.random() < 0.5 and t <= p:
                columns.append(sorted(_disjoint_column(rng, p, t), key=lambda b: (b & (b - 1) != 0, b & -b)))
            else:
                columns.append(_bad_column(rng, p, t))
        got, expected = _model_or_error(p, columns), _oracle_or_error(p, columns)
        assert got == expected, (p, columns)
        kinds = ("negative", "zero", "above", "dependent", "spans")
        outcomes.add("code" if isinstance(expected, tuple) else next(k for k in kinds if k in expected))
    # valid codes and every kind of rejection were reached
    assert outcomes == {"code", "negative", "zero", "above", "dependent", "spans"}


@pytest.mark.parametrize(
    "columns, expected",
    [
        ([[0b011, 0b010]], "column 1 spans part 1 without storing it as a singleton"),
        ([[0b001, 0b110], [0b110, 0b110]], "column 2 cells are linearly dependent"),
        ([[0b011, 0b110, 0b101]], "column 1 cells are linearly dependent"),
        # x_1+x_3 and x_1+x_2 overlap but span no singleton: a valid column
        ([[0b1100, 0b0011], [0b0101, 0b0011]], ((0b0011, 0b1100), (0b0011, 0b0101))),
    ],
)
def test_overlapping_columns_still_eliminate(columns, expected):
    assert _model_or_error(4, columns) == _oracle_or_error(4, columns) == expected


def test_disjoint_sums_are_ordered_by_lowest_part():
    # {1,5} sorts before {2,3}: by lowest part, not by highest
    e4, s15, s23 = 0b01000, 0b10001, 0b00110
    code = ArrayCode.from_columns(5, [[s23, e4, s15]])
    assert code.columns == ((e4, s15, s23),)
    assert serialize_code(code).splitlines()[2] == "4;1+5;2+3"
