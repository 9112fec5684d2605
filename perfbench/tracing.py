"""Spans around calls into pirarray, recorded from outside the library.

The tracer replaces module-level names that pirarray looks up at call time
(for example `pirarray.verify.max_general_matching`, which `k_pir_pairs`
resolves on every call) with timing wrappers, and puts the originals back
afterwards.  No source file is edited.  Spans live in memory as
`[name, start, end, parent, op_id]` and are written out once, at the end of
a run.  `gf2` gets no span: its pivot kernels run per cell inside `verify`,
`simulate` and `model`, so a wrapper would cost more than the work it
times; their cost shows as those callers' self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def pirarray_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every layer boundary the benchmark times."""
    from pirarray import constructions, model, simulate, verify

    builders = ("build_c1", "build_c2", "build_c3", "build_integer_s", "build_general_s")
    return [
        *((constructions, name, "constructions.build") for name in builders),
        (model.ArrayCode, "from_columns", "model.from_columns"),
        (model, "serialize_code", "model.serialize"),
        (model, "parse_code", "model.parse"),
        (model, "serialize_plan", "model.plan_io"),
        (model, "parse_plan", "model.plan_io"),
        (verify, "k_pir_pairs", "verify.pairs"),
        (verify, "k_pir_exhaustive", "verify.exhaustive"),
        (verify, "verify_plan", "verify.plan_check"),
        (verify, "max_general_matching", "matching"),
        (simulate, "verify_plan", "verify.plan_check"),
        (simulate, "retrieve", "simulate.retrieve"),
        (simulate, "availability_sweep", "simulate.sweep"),
        (simulate.SessionTranscript, "jsonl", "simulate.jsonl"),
    ]


class Tracer:
    """Installs timing wrappers on `targets` and keeps the spans they record."""

    def __init__(self, targets: list[tuple[object, str, str]]):
        self.targets = targets
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op_id])
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index][1:3] = start, end

    def _timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name in self.targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._timed(raw.__func__, name))
            else:
                replacement = self._timed(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def self_times(self, scales: list[float]) -> dict[str, float]:
        """Per span name, total self time of the spans recorded inside ops,
        each multiplied by `scales[op_id]`.

        A span's self time is its duration minus the time its direct
        children cover; spans nest strictly because the benchmark is
        single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, op_id) in enumerate(self.spans):
            if op_id is not None:
                totals[name] += (end - start - child_time[index]) * scales[op_id]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op_id")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")
