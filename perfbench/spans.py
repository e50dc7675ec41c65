"""Spans around sparsecube's layer entry points, recorded from outside.

The program has no tracing of its own, so the traced mode swaps wrappers in
for the functions a probe passes through (coordinate encoding, header
lookup, cell read, block read, and the two stores' point queries) and swaps
the originals back afterwards.  With the wrappers removed the program runs
exactly the code it runs untraced.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter_ns

from sparsecube import blockio, diffseq, headers, mdstore, tablestore

HEADER_CLASSES = {
    "schc": headers.SchcHeader,
    "lpc": headers.LpcHeader,
    "boc": headers.BocHeader,
    "dsc": diffseq.DscHeader,
    "dhc": diffseq.DhcHeader,
}

KEEP_SPANS = 5000


class Tracer:
    """The spans of one benchmark phase, kept in memory.

    Each closed span appends its duration and its self time (duration minus
    the durations of its direct children) to per-name lists, so every span
    counts towards the metrics.  Only the first KEEP_SPANS spans opened are
    kept whole, with parent and probe ids, for writing out.
    """

    def __init__(self, phase: str):
        self.phase = phase
        self.probe: int | None = None
        self.total: defaultdict[str, list[int]] = defaultdict(list)
        self.self_time: defaultdict[str, list[int]] = defaultdict(list)
        self.kept: list[dict] = []
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, 0, perf_counter_ns()])

    def close(self) -> None:
        end = perf_counter_ns()
        span_id, name, child_ns, start = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.total[name].append(duration)
        self.self_time[name].append(duration - child_ns)
        if span_id <= KEEP_SPANS:  # a kept span's parent opened earlier, so it is kept too
            self.kept.append({
                "phase": self.phase,
                "id": span_id,
                "parent": self._stack[-1][0] if self._stack else None,
                "probe": self.probe,
                "name": name,
                "start_ns": start,
                "end_ns": end,
            })

    def call(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def count(self, name: str) -> int:
        return len(self.total.get(name, ()))


def _wrap(tracer: Tracer, fn, name):
    """`fn` inside a span; `name` is a string or a function of the first argument."""
    if callable(name):
        @functools.wraps(fn)
        def traced(first, *args, **kwargs):
            tracer.open(name(first))
            try:
                return fn(first, *args, **kwargs)
            finally:
                tracer.close()
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
    return traced


# (owner, attribute, span name or function of the first argument giving it)
QUERIES = [
    (mdstore.MultidimStore, "point_query", lambda s: "mdstore.query." + s.scheme),
    (tablestore.TableStore, "point_query", "tablestore.query"),
]
PROBE_PATH = QUERIES + [
    (mdstore.MultidimStore, "cell_measure", "mdstore.cell_read"),
    (mdstore, "encode_logical_position", "relation.encode"),
    (tablestore, "encode_logical_position", "relation.encode"),
    (blockio.BlockReader, "read_at", lambda r: "blockio.read." + r.name),
] + [(cls, "lookup", f"header.lookup.{s}") for s, cls in HEADER_CLASSES.items()]


class Patches:
    """Wrappers for the given entry points, swapped in by `active`."""

    def __init__(self, tracer: Tracer, targets=PROBE_PATH):
        self._swaps = [
            (owner, attr, vars(owner)[attr], _wrap(tracer, vars(owner)[attr], name))
            for owner, attr, name in targets
        ]

    @contextlib.contextmanager
    def active(self):
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._swaps:
                setattr(owner, attr, original)
