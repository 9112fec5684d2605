"""The [t x m, p] array-code model, the singleton convention, and the text formats.

A code is a t x m grid of cells; column j is the content of server j and
every cell is a nonzero GF(2) combination of the p database parts, stored
as an int whose bit i-1 is the coefficient of part x_i.  Three invariants
are enforced at construction time rather than repaired:

  * every column holds exactly t cells, each nonzero and within parts 1..p;
  * every column's cells are linearly independent (rank t);
  * singleton convention: whenever e_i lies in a column's span, that column
    stores e_i in one of its cells.

File formats (UTF-8, LF):

  PIRCODE v1                      PIRPLAN v1
  p=<int> t=<int> m=<int>         part <i>: {c,c};{c};...
  <t cells ";"-joined per column,
   one column per line; a cell is
   "+"-joined ascending 1-based
   part indices, e.g. "10+11+12">

Cells inside a column are kept in canonical order (singletons first,
ascending by part; then non-singletons ascending by support) so that
serialization is deterministic; columns keep their given order.  The order
is set once, in `ArrayCode.__post_init__`, which sorts and checks each
distinct column once and shares the sorted tuple among its repeats.

Every column the constructions build holds singletons and at most one sum
of other parts, so its cells have pairwise disjoint supports.  Such a
column is checked by proof, not elimination: a nonempty XOR of disjoint
nonzero cells has the union of their supports, so the cells are
independent, and e_i is in the span only if some cell is e_i.  Disjoint
supports also differ in their lowest part, so the canonical order is
singletons by part, then sums by their lowest part.  A column whose
supports overlap is sorted and checked by elimination.

A `RecoveryPlan` holds, per part, its column sets as ascending tuples in
ascending order.  Its constructor puts a plan in that order and keeps a
set that already is such a tuple as it is; `parse_plan` checks each set as
it reads it and builds its plan with `RecoveryPlan._of_ascending`, which
only sorts each part's sets.  `serialize_plan` renders a part's sets with
one call to the C JSON encoder: their compact JSON `[[1],[3,7]]` is the
plan text `{1};{3,7}` once the outer brackets go and each "],[" is "};{".

`parse_plan` validates a line's sets with passes that run in C, not per
set.  With n = one more than its count of ";", the text after "part <i>:"
is read as JSON (after "{};" -> "[],", inside one more pair of brackets)
only when deleting the characters 0-9{},; leaves nothing, it has n "{" and
n - 1 "};{".  Every ";" then follows a "}" and every "{" but one follows a
"};", so no brace nests in another, the JSON cannot recurse, and a ";"
can only separate two sets.  It is accepted when JSON reads it, every item
is an array (a bare number raises TypeError in `tuple`), the sets hold as
many columns as there are "," plus n, so none is empty, and each set is
ascending: the two-column sets by one `starmap(lt, ...)`, the larger ones,
if the column count says there are any, one at a time.  The text is then
`{c,...};...;{c,...}` with ascending columns in each set, and JSON reads
the numbers as `int` does.  Any other line goes set by set and raises at
its first bad set.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import starmap
from operator import lt
from typing import Collection, Iterable, Mapping, Sequence

from .errors import FormatError, ParameterError
from .gf2 import parts_of, pivot_insert, pivot_reduce

__all__ = [
    "ArrayCode",
    "RecoveryPlan",
    "CODE_MAGIC",
    "MAX_PARTS",
    "PLAN_MAGIC",
    "singleton_census",
    "parse_code",
    "serialize_code",
    "format_cell",
    "parse_cell",
    "parse_plan",
    "serialize_plan",
]

CODE_MAGIC = "PIRCODE v1"
PLAN_MAGIC = "PIRPLAN v1"
# Largest header p that parse_code accepts: verifying and simulating cost
# O(p) time and memory even for a file of a few bytes.
MAX_PARTS = 1 << 18

_HEADER_RE = re.compile(r"^p=(\d+) t=(\d+) m=(\d+)$")


def _too_long(where: str, digits: str) -> FormatError:
    """The error for a run of decimal digits that int() refuses: one longer
    than Python converts (sys.get_int_max_str_digits)."""
    return FormatError(f"{where}: a {len(digits)}-digit number is too long to convert")


@dataclass(frozen=True)
class ArrayCode:
    """Immutable [t x m, p] array code: its m columns of t cells over p parts.

    Only `p` and `columns` (any iterable of cell iterables) are given; t is
    the first column's length, m the column count and s = p/t, all set in
    `__post_init__`.  `_holders` and `_rotation` are computed the first time
    a verifier reads them and kept on the instance; they are not fields, so
    equality, hashing and repr never see them.
    """

    p: int
    columns: tuple[tuple[int, ...], ...]
    t: int = field(init=False)
    m: int = field(init=False)
    s: Fraction = field(init=False)

    @classmethod
    def from_columns(cls, p: int, columns: Iterable[Iterable[int]]) -> ArrayCode:
        """`ArrayCode(p, columns)`, the entry point of the builders and the parser."""
        return cls(p, columns)

    def __post_init__(self) -> None:
        cols = tuple(map(tuple, self.columns))
        if not cols:
            raise ParameterError("a code needs at least one column")
        t = len(cols[0])
        if self.p < 1 or t < 1:
            raise ParameterError(f"need p >= 1 and t >= 1, got p={self.p} t={t}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "m", len(cols))
        object.__setattr__(self, "s", Fraction(self.p, t))
        # A column's checks and canonical order depend only on its cells, so
        # each distinct cell tuple is sorted and checked once and its repeats
        # share the sorted tuple.
        sort_keys: dict[int, tuple] = {}
        canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
        columns = []
        for j, col in enumerate(cols, start=1):
            if len(col) != t:
                raise ParameterError(f"column {j} has {len(col)} cells, expected t={t}")
            done = canonical.get(col)
            if done is None:
                done = canonical[col] = self._checked_column(j, col, sort_keys)
            columns.append(done)
        object.__setattr__(self, "columns", tuple(columns))

    @cached_property
    def _holders(self) -> tuple[tuple[int, ...], ...]:
        """`_singleton_columns(self)`, computed once."""
        return _singleton_columns(self)

    @cached_property
    def _rotation(self) -> tuple[int, ...] | None:
        """`_rotation_image(self, self._holders)`, computed once."""
        return _rotation_image(self, self._holders)

    def _checked_column(
        self, j: int, col: tuple[int, ...], sort_keys: dict[int, tuple]
    ) -> tuple[int, ...]:
        """Column j's cells in canonical order; raises on its first violation.

        When the cells' supports are pairwise disjoint, the cells are
        independent and the column stores every e_i it spans, so no
        elimination runs.  Disjoint supports differ in their lowest part,
        so the canonical order is then singletons by part, then sums by
        lowest part, and a column already in that order is returned as
        given.  Every other column is sorted and checked by elimination.
        """
        p = self.p
        union = 0
        disjoint = ordered = True
        last = 0
        for bits in col:
            if bits < 0:
                raise ParameterError(f"column {j} holds a negative cell {bits}")
            if bits == 0:
                raise ParameterError(f"column {j} holds a zero cell")
            if bits >> p:
                raise ParameterError(f"column {j} holds a cell with a part above p={p}")
            if union & bits:
                disjoint = False
            union |= bits
            # a singleton's order key is its part (1..p), a sum's its lowest part + p
            low = bits & -bits
            rank = low.bit_length() if low == bits else low.bit_length() + p
            if rank < last:
                ordered = False
            last = rank
        if disjoint and ordered:
            return col

        def key(bits: int) -> tuple:
            # singletons first ascending by part, then non-singletons by support
            found = sort_keys.get(bits)
            if found is None:
                single = bits & (bits - 1) == 0
                found = sort_keys[bits] = (0, bits) if single else (1, parts_of(bits))
            return found

        cells = tuple(sorted(col, key=key))
        if disjoint:
            return cells
        pivots: dict[int, int] = {}
        stored: set[int] = set()
        support = 0
        for bits in cells:
            if not pivot_insert(pivots, bits):
                raise ParameterError(f"column {j} cells are linearly dependent")
            if bits & (bits - 1) == 0:
                stored.add(bits)
            support |= bits
        # e_i can only lie in the span if bit i appears in some cell, so
        # walking the support in ascending order finds the same first
        # violation as walking all p parts.
        while support:
            bit = support & -support
            support ^= bit
            if bit not in stored and pivot_reduce(pivots, bit) == 0:
                raise ParameterError(
                    f"column {j} spans part {bit.bit_length()} without storing it as a singleton"
                )
        return cells


def _singleton_columns(code: ArrayCode) -> tuple[tuple[int, ...], ...]:
    """For each part index (0-based), the ascending 0-based columns storing
    it as a singleton; parts stored nowhere share one empty tuple."""
    held: dict[int, list[int]] = defaultdict(list)
    for j, col in enumerate(code.columns):
        for cell in col:
            if cell & (cell - 1) == 0:
                held[cell.bit_length() - 1].append(j)
    return tuple(tuple(held.get(i, ())) for i in range(code.p))


def _rotation_image(code: ArrayCode, holders: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The column map of the part rotation e_i -> e_(i+1 mod p), or None
    when the code's columns are not closed under it.

    `image[j]` (1-based, `image[0]` unused) is a column whose cell set is
    the rotation of column j's cells; repeated columns map in order of
    occurrence, so the map is a permutation.  Equal cell sets have equal
    spans, and the rotation is a linear bijection, so the map sends a set
    of columns spanning e_i to one spanning e_(i+1), and part i's holders
    to part i+1's.  Necessary conditions that cost O(p) and one pass over
    the cells reject most codes before any cell is rotated: a
    rotation-closed code stores every part as a singleton equally often,
    and the OR and the XOR of all its cells are rotation-fixed, so each is
    0 or all p parts (the OR cannot be 0).  Past them, each distinct cell
    is rotated once and each distinct column keyed once.
    """
    p = code.p
    alpha = len(holders[0])
    if any(len(held) != alpha for held in holders):
        return None
    full = (1 << p) - 1
    union = parity = 0
    for col in code.columns:
        for cell in col:
            union |= cell
            parity ^= cell
    if union != full or parity not in (0, full):
        return None
    # A column's canonical cell order follows from its cells, so columns
    # with equal cell sets are equal tuples: each distinct column gets one
    # list of its positions (descending, so pop() takes the first) and one key.
    positions: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
    for j in range(code.m, 0, -1):
        positions[code.columns[j - 1]].append(j)
    by_cells = {frozenset(col): same for col, same in positions.items()}
    top = p - 1
    turned = {cell: ((cell << 1) & full) | (cell >> top) for cell in set().union(*positions)}
    onto = {}  # each distinct column -> the positions of its rotation
    for col in positions:
        same = by_cells.get(frozenset(map(turned.__getitem__, col)))
        if same is None:
            return None
        onto[col] = same
    image = [0]
    for col in code.columns:
        same = onto[col]
        if not same:
            return None
        image.append(same.pop())
    return tuple(image)


def singleton_census(code: ArrayCode) -> list[int]:
    """alpha_i = number of columns storing x_i as a singleton cell; index i-1 <-> part i."""
    return list(map(len, code._holders))


def format_cell(cell: int) -> str:
    return "+".join(map(str, parts_of(cell)))


def parse_cell(text: str, p: int) -> int:
    """Parse a "+"-joined cell; indices must be ascending and distinct."""
    bits = 0
    last = 0
    for tok in text.split("+"):
        if not tok.isdecimal():
            raise FormatError(f"malformed cell {text!r}")
        try:
            idx = int(tok)
        except ValueError:
            raise _too_long("cell", tok) from None
        if not 1 <= idx <= p:
            raise FormatError(f"cell {text!r}: part index {idx} out of range 1..{p}")
        if idx == last:
            raise FormatError(
                f"cell {text!r}: duplicate part index {idx} (GF(2) would fold it to a zero cell)"
            )
        if idx < last:
            raise FormatError(f"cell {text!r}: part indices must be ascending")
        bits |= 1 << (idx - 1)
        last = idx
    return bits


def serialize_code(code: ArrayCode) -> str:
    lines = [CODE_MAGIC, f"p={code.p} t={code.t} m={code.m}"]
    texts: dict[int, str] = {}  # each distinct cell is formatted once
    for col in code.columns:
        rendered = []
        for cell in col:
            text = texts.get(cell)
            if text is None:
                text = texts[cell] = format_cell(cell)
            rendered.append(text)
        lines.append(";".join(rendered))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> ArrayCode:
    """Parse PIRCODE v1 text; round-trips with `serialize_code` cell-for-cell."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CODE_MAGIC:
        raise FormatError(f"missing {CODE_MAGIC!r} header")
    if len(lines) < 2:
        raise FormatError("missing parameter line")
    match = _HEADER_RE.match(lines[1])
    if match is None:
        raise FormatError(f"malformed parameter line {lines[1]!r}")
    try:
        p, t, m = (int(g) for g in match.groups())
    except ValueError:
        raise _too_long("parameter line", max(match.groups(), key=len)) from None
    if p > MAX_PARTS:
        raise FormatError(f"p={p} is beyond the limit of {MAX_PARTS} parts")
    body = lines[2:]
    if len(body) != m:
        raise FormatError(f"expected {m} column lines, found {len(body)}")
    columns = []
    # each distinct token and each distinct line is parsed once; a bad line
    # raises at its first occurrence
    cells_by_token: dict[str, int] = {}
    cells_by_line: dict[str, tuple[int, ...]] = {}
    for line_no, line in enumerate(body, start=1):
        cells = cells_by_line.get(line)
        if cells is None:
            cells = []
            for tok in line.split(";"):
                cell = cells_by_token.get(tok)
                if cell is None:
                    cell = cells_by_token[tok] = parse_cell(tok, p)
                cells.append(cell)
            if len(cells) != t:
                raise FormatError(f"column {line_no} has {len(cells)} cells, expected t={t}")
            cells = cells_by_line[line] = tuple(cells)
        columns.append(cells)
    return ArrayCode.from_columns(p, columns)


def _canonical_set(one: Collection[int]) -> tuple[int, ...]:
    """`one` as an ascending tuple of distinct ints; a tuple that already
    is one, as every set the verifiers make, is kept as it is."""
    if type(one) is tuple:
        last = None
        for column in one:
            if type(column) is not int or (last is not None and column <= last):
                break
            last = column
        else:
            return one
    return tuple(sorted(set(map(int, one))))


def _canonical_sets(sets: Iterable[Collection[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(_canonical_set, sets)))


class RecoveryPlan:
    """Per part, a list of pairwise disjoint column sets each spanning that part.

    Column indices are 1-based.  Each set is stored as an ascending tuple
    and each part's sets in ascending order, so equal plans serialize
    identically; `plan_k` is the minimum per-part set count.
    """

    __slots__ = ("_sets",)

    def __init__(self, sets_by_part: Mapping[int, Iterable[Collection[int]]]):
        self._sets: dict[int, tuple[tuple[int, ...], ...]] = {
            int(part): _canonical_sets(sets) if sets else ()
            for part, sets in sorted(sets_by_part.items())
        }

    @classmethod
    def _of_ascending(cls, sets_by_part: Mapping[int, list[tuple[int, ...]]]) -> RecoveryPlan:
        """A plan whose sets are already ascending tuples of distinct ints."""
        plan = cls({})
        plan._sets = {
            part: tuple(sorted(sets)) if sets else () for part, sets in sorted(sets_by_part.items())
        }
        return plan

    def parts(self) -> tuple[int, ...]:
        return tuple(self._sets)

    def sets(self, part: int) -> tuple[tuple[int, ...], ...]:
        return self._sets.get(part, ())

    def k_for(self, part: int) -> int:
        return len(self.sets(part))

    @property
    def plan_k(self) -> int:
        return min((len(s) for s in self._sets.values()), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RecoveryPlan) and self._sets == other._sets

    def __repr__(self) -> str:
        return f"RecoveryPlan(parts={len(self._sets)}, k={self.plan_k})"


# a part's sets as compact JSON (see the module docstring)
_SETS_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def serialize_plan(plan: RecoveryPlan) -> str:
    """PIRPLAN v1 text, each part's sets rendered by one JSON encoder call."""
    lines = [PLAN_MAGIC]
    for part in plan.parts():
        sets = plan.sets(part)
        if sets:
            rendered = _SETS_JSON(sets)[2:-2].replace("],[", "};{")
            lines.append(f"part {part}: {{{rendered}}}")
        else:
            lines.append(f"part {part}:")
    return "\n".join(lines) + "\n"


_PLAN_LINE_RE = re.compile(r"^part (\d+):(.*)$")
_SET_RE = re.compile(r"^\{(\d+(?:,\d+)*)\}$")
_NOT_SETS_TEXT = str.maketrans("", "", "0123456789{},;")
_SETS_AS_JSON = str.maketrans("{};", "[],")


def _plan_sets(rest: str, part: int, line_no: int) -> list[tuple[int, ...]]:
    """The column sets of one plan line, from its text after "part <i>:".

    A line of n sets is read as one JSON array of arrays when its shape
    passes the counts of the module docstring and its sets are ascending;
    any other line (or a number JSON does not read, such as one with a
    leading zero or too many digits to convert) goes set by set, which
    raises at its first bad set.
    """
    n = rest.count(";") + 1
    if not rest.translate(_NOT_SETS_TEXT) and rest.count("{") == n and rest.count("};{") == n - 1:
        try:
            sets = list(map(tuple, json.loads("[" + rest.translate(_SETS_AS_JSON) + "]")))
        except (TypeError, ValueError):  # a bare number, or one JSON or int() refuses
            pass
        else:
            size = sum(map(len, sets))
            if size == rest.count(",") + n:
                twos = [columns for columns in sets if len(columns) == 2]
                # with no set empty, size - len(twos) == n leaves no set above two
                if all(starmap(lt, twos)) and (
                    size - len(twos) == n
                    or all(all(map(lt, columns, columns[1:])) for columns in sets if len(columns) > 2)
                ):
                    return sets
    sets = []
    for tok in rest.split(";"):
        set_match = _SET_RE.match(tok)
        if set_match is None:
            raise FormatError(f"malformed column set {tok!r} for part {part}")
        runs = set_match.group(1).split(",")
        try:
            columns = [int(c) for c in runs]
        except ValueError:
            raise _too_long(f"plan line {line_no}", max(runs, key=len)) from None
        if len(set(columns)) != len(columns):
            raise FormatError(f"repeated column in set {tok!r} for part {part}")
        if columns != sorted(columns):
            raise FormatError(f"column set {tok!r} for part {part} must be ascending")
        sets.append(tuple(columns))
    return sets


def parse_plan(text: str) -> RecoveryPlan:
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != PLAN_MAGIC:
        raise FormatError(f"missing {PLAN_MAGIC!r} header")
    sets_by_part: dict[int, list[tuple[int, ...]]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        match = _PLAN_LINE_RE.match(line)
        if match is None:
            raise FormatError(f"malformed plan line {line!r}")
        try:
            part = int(match.group(1))
        except ValueError:
            raise _too_long(f"plan line {line_no}", match.group(1)) from None
        if part in sets_by_part:
            raise FormatError(f"duplicate plan line for part {part}")
        rest = match.group(2).strip()
        sets_by_part[part] = _plan_sets(rest, part, line_no) if rest else []
    return RecoveryPlan._of_ascending(sets_by_part)
