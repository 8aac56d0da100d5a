"""Outside-in span recorder.

Spans are taken by the benchmark around its own calls into the library:
each records a name, start and end (perf_counter seconds), the index of the
enclosing span and the run id.  Counts taken at the same boundaries are kept
beside them.  Everything stays in memory until the run writes it out once.

A disabled recorder hands out one shared no-op context instead of spans, so
an untraced pass pays a method call per boundary.  Counts are kept either
way: they cost a dict update and let untraced runs on different seeds be
compared.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class _Span:
    __slots__ = ("rec", "name", "parent", "start", "index")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.parent = rec._stack[-1] if rec._stack else None
        self.index = len(rec.spans)
        rec.spans.append(None)  # reserve the slot so parents precede children
        rec._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        rec._stack.pop()
        rec.spans[self.index] = {
            "name": self.name,
            "start": self.start,
            "end": end,
            "parent": self.parent,
            "run": rec.run_id,
        }
        return False


class Recorder:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NOOP

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp["name"]] += sp["end"] - sp["start"]
        return dict(out)

    def coverage(self, root_name: str) -> float:
        """Share of the root span's duration covered by its direct children
        (which never overlap: the workloads are single-threaded)."""
        roots = [i for i, sp in enumerate(self.spans) if sp["name"] == root_name]
        if not roots:
            return 0.0
        root = self.spans[roots[0]]
        total = root["end"] - root["start"]
        covered = sum(
            sp["end"] - sp["start"] for sp in self.spans if sp["parent"] == roots[0]
        )
        return covered / total if total > 0 else 0.0
