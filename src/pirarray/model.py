"""The [t x m, p] array-code model, the singleton convention, and the text formats.

A code is a t x m grid of cells; column j is the content of server j and
every cell is a nonzero GF(2) combination of the p database parts.  Three
invariants are enforced at construction time rather than repaired:

  * every column holds exactly t cells of length p, none zero;
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
serialization is deterministic; columns keep their given order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from .errors import FormatError, ParameterError
from .gf2 import Gf2Basis, PartVector, pivot_reduce

__all__ = [
    "ArrayCode",
    "RecoveryPlan",
    "CODE_MAGIC",
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

_HEADER_RE = re.compile(r"^p=(\d+) t=(\d+) m=(\d+)$")


def _cell_key(cell: PartVector) -> tuple[int, tuple[int, ...]]:
    # singletons first ascending by part, then non-singletons by support
    return (0, cell.parts()) if cell.is_singleton() else (1, cell.parts())


def canonical_column(cells: Iterable[PartVector]) -> tuple[PartVector, ...]:
    """A column's cells in canonical order."""
    return tuple(sorted(cells, key=_cell_key))


@dataclass(frozen=True)
class ArrayCode:
    """Immutable [t x m, p] array code; use `from_columns` to build one."""

    p: int
    t: int
    m: int
    s: Fraction
    columns: tuple[tuple[PartVector, ...], ...]

    @classmethod
    def from_columns(cls, p: int, columns: Iterable[Iterable[PartVector]]) -> ArrayCode:
        cols = tuple(canonical_column(col) for col in columns)
        if not cols:
            raise ParameterError("a code needs at least one column")
        t = len(cols[0])
        return cls(p=p, t=t, m=len(cols), s=Fraction(p, t) if t else Fraction(0), columns=cols)

    def __post_init__(self) -> None:
        if self.p < 1 or self.t < 1:
            raise ParameterError(f"need p >= 1 and t >= 1, got p={self.p} t={self.t}")
        if self.m != len(self.columns):
            raise ParameterError(f"m={self.m} but {len(self.columns)} columns given")
        if self.s != Fraction(self.p, self.t):
            raise ParameterError(f"s={self.s} but p/t={Fraction(self.p, self.t)}")
        object.__setattr__(
            self, "columns", tuple(canonical_column(col) for col in self.columns)
        )
        for j, col in enumerate(self.columns, start=1):
            if len(col) != self.t:
                raise ParameterError(f"column {j} has {len(col)} cells, expected t={self.t}")
            basis = Gf2Basis(self.p)
            for cell in col:
                if cell.length != self.p:
                    raise ParameterError(
                        f"column {j} holds a cell of length {cell.length}, expected p={self.p}"
                    )
                if cell.is_zero():
                    raise ParameterError(f"column {j} holds a zero cell")
                if not basis.add(cell):
                    raise ParameterError(f"column {j} cells are linearly dependent")
            # e_i can only lie in the span if bit i appears in some cell, so
            # walking the support in ascending order finds the same first
            # violation as walking all p parts.
            stored = {cell.bits for cell in col if cell.is_singleton()}
            support = 0
            for cell in col:
                support |= cell.bits
            while support:
                bit = support & -support
                support ^= bit
                if bit not in stored and pivot_reduce(basis.pivots, bit) == 0:
                    raise ParameterError(
                        f"column {j} spans part {bit.bit_length()} without storing it as a singleton"
                    )

    def column(self, j: int) -> tuple[PartVector, ...]:
        """Cells of the 1-based column j."""
        if not 1 <= j <= self.m:
            raise ParameterError(f"column {j} out of range 1..{self.m}")
        return self.columns[j - 1]

    def cells_of(self, column_set: Collection[int]) -> list[PartVector]:
        """All cells of the given 1-based columns."""
        return [cell for j in sorted(column_set) for cell in self.column(j)]


def singleton_census(code: ArrayCode) -> list[int]:
    """alpha_i = number of columns storing x_i as a singleton cell; index i-1 <-> part i."""
    alpha = [0] * code.p
    for col in code.columns:
        for cell in col:
            part = cell.singleton_part()
            if part is not None:
                alpha[part - 1] += 1
    return alpha


def format_cell(cell: PartVector) -> str:
    return "+".join(str(i) for i in cell.parts())


def parse_cell(text: str, p: int) -> PartVector:
    """Parse a "+"-joined cell; indices must be ascending and distinct."""
    tokens = text.split("+")
    parts: list[int] = []
    for tok in tokens:
        if not tok.isdigit():
            raise FormatError(f"malformed cell {text!r}")
        idx = int(tok)
        if not 1 <= idx <= p:
            raise FormatError(f"cell {text!r}: part index {idx} out of range 1..{p}")
        if parts and idx == parts[-1]:
            raise FormatError(
                f"cell {text!r}: duplicate part index {idx} (GF(2) would fold it to a zero cell)"
            )
        if parts and idx < parts[-1]:
            raise FormatError(f"cell {text!r}: part indices must be ascending")
        parts.append(idx)
    return PartVector.from_parts(p, parts)


def serialize_code(code: ArrayCode) -> str:
    lines = [CODE_MAGIC, f"p={code.p} t={code.t} m={code.m}"]
    for col in code.columns:
        lines.append(";".join(format_cell(cell) for cell in col))
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
    p, t, m = (int(g) for g in match.groups())
    body = lines[2:]
    if len(body) != m:
        raise FormatError(f"expected {m} column lines, found {len(body)}")
    columns = []
    for line_no, line in enumerate(body, start=1):
        cells = [parse_cell(tok, p) for tok in line.split(";")]
        if len(cells) != t:
            raise FormatError(f"column {line_no} has {len(cells)} cells, expected t={t}")
        columns.append(cells)
    return ArrayCode.from_columns(p, columns)


def _canonical_sets(sets: Iterable[Collection[int]]) -> tuple[frozenset[int], ...]:
    frozen = [frozenset(int(c) for c in one) for one in sets]
    return tuple(sorted(frozen, key=lambda s: tuple(sorted(s))))


class RecoveryPlan:
    """Per part, a list of pairwise disjoint column sets each spanning that part.

    Column indices are 1-based.  Set order is canonicalized so equal plans
    serialize identically; `plan_k` is the minimum per-part set count.
    """

    __slots__ = ("_sets",)

    def __init__(self, sets_by_part: Mapping[int, Iterable[Collection[int]]]):
        self._sets: dict[int, tuple[frozenset[int], ...]] = {
            int(part): _canonical_sets(sets) for part, sets in sorted(sets_by_part.items())
        }

    def parts(self) -> tuple[int, ...]:
        return tuple(self._sets)

    def sets(self, part: int) -> tuple[frozenset[int], ...]:
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


def serialize_plan(plan: RecoveryPlan) -> str:
    lines = [PLAN_MAGIC]
    for part in plan.parts():
        rendered = ";".join("{" + ",".join(str(c) for c in sorted(s)) + "}" for s in plan.sets(part))
        lines.append(f"part {part}: {rendered}" if rendered else f"part {part}:")
    return "\n".join(lines) + "\n"


_PLAN_LINE_RE = re.compile(r"^part (\d+):(.*)$")
_SET_RE = re.compile(r"^\{(\d+(?:,\d+)*)\}$")


def parse_plan(text: str) -> RecoveryPlan:
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != PLAN_MAGIC:
        raise FormatError(f"missing {PLAN_MAGIC!r} header")
    sets_by_part: dict[int, list[frozenset[int]]] = {}
    for line in lines[1:]:
        match = _PLAN_LINE_RE.match(line)
        if match is None:
            raise FormatError(f"malformed plan line {line!r}")
        part = int(match.group(1))
        if part in sets_by_part:
            raise FormatError(f"duplicate plan line for part {part}")
        rest = match.group(2).strip()
        sets: list[frozenset[int]] = []
        if rest:
            for tok in rest.split(";"):
                set_match = _SET_RE.match(tok)
                if set_match is None:
                    raise FormatError(f"malformed column set {tok!r} for part {part}")
                columns = [int(c) for c in set_match.group(1).split(",")]
                if len(set(columns)) != len(columns):
                    raise FormatError(f"repeated column in set {tok!r} for part {part}")
                if columns != sorted(columns):
                    raise FormatError(f"column set {tok!r} for part {part} must be ascending")
                sets.append(frozenset(columns))
        sets_by_part[part] = sets
    return RecoveryPlan(sets_by_part)
