"""Fixed pieces of pure work that gauge how fast the machine runs right now.

On shared CPUs the speed of the interpreter drifts by 20% and more over
seconds to minutes, and the whole process drifts together: set-up, probes
and sweeps alike.  Timing a reference next to each piece of measured work
and scaling the work's time by the reference's nominal time over its
measured time gives times at a fixed reference speed, which repeat across
runs far better than raw wall times.  The references touch no sparsecube
code.  Each runs three times and keeps the median, so the first run, which
may find its data evicted by the work before it, does not count.
"""

from __future__ import annotations

import bisect
import random
import signal
import struct
from time import perf_counter_ns

import numpy as np

# How often `timed` runs the reference inside a long call.
PERIOD_S = 0.02


class Reference:
    """A fixed piece of work and the times it took.

    `nominal_ns` is about its time on the 2-vCPU Xeon (Sapphire Rapids, KVM)
    this benchmark was tuned on, so scaled times stay close to raw ones there.
    """

    nominal_ns: int

    def _work(self) -> None:
        raise NotImplementedError

    def time_ns(self) -> int:
        """Median wall time of three runs of the work, so one interrupt does not count."""
        times = []
        for _ in range(3):
            t0 = perf_counter_ns()
            self._work()
            times.append(perf_counter_ns() - t0)
        return sorted(times)[1]


class QueryReference(Reference):
    """A point query's mix: mostly a bit-decoding loop like the DSC/DHC scans,
    plus binary searches, struct unpacks and dict lookups.

    The loop makes it slow down with the interpreter's own speed, which the
    scans and most of every lookup depend on; C-level searches alone track
    memory contention rather than that.
    """

    nominal_ns = 100_000

    def __init__(self):
        rng = random.Random(0)
        self._sorted = sorted(rng.sample(range(1 << 30), 20000))
        self._keys = [rng.randrange(1 << 30) for _ in range(25)]
        self._buf = bytes(range(256)) * 64
        self._map = {k: i for i, k in enumerate(self._sorted[::16])}
        self._unpack = struct.Struct("<Q").unpack_from
        self._stream = bytes(rng.randrange(256) for _ in range(250))

    def _work(self) -> None:
        sorted_, buf, lookup, unpack = self._sorted, self._buf, self._map.get, self._unpack
        acc = 0
        for k in self._keys:
            j = bisect.bisect_left(sorted_, k)
            acc += unpack(buf, (j * 8) & 16376)[0] & 7
            acc += lookup(sorted_[j - 1], 0)
        bits = fill = cur = 0
        for byte in self._stream:
            bits = ((bits << 8) | byte) & 0xFFFF
            fill += 8
            while fill >= 5:
                fill -= 5
                d = (bits >> fill) & 31
                if d:
                    cur += d
                else:
                    acc += cur
                    cur = 0


class BuildReference(Reference):
    """New tuples, dict entries and strings, a bytes join and a numpy sort, like a build's mix."""

    nominal_ns = 130_000

    def __init__(self):
        self._array = np.random.default_rng(0).integers(0, 1 << 40, 2000)
        rng = random.Random(1)
        self._values = [rng.random() for _ in range(60)]

    def _work(self) -> None:
        table = {}
        for i, v in enumerate(self._values):
            table[(i, i >> 3, i & 7)] = repr(v)
        ordered = np.sort(self._array)
        b"".join(s.encode() for s in table.values())
        int(ordered[-1])


def scale(reference: Reference, before_ns: int, after_ns: int) -> float:
    """Factor that turns a time measured between two reference runs into reference speed."""
    return reference.nominal_ns * 2 / (before_ns + after_ns)


def timed(reference: Reference | None, fn, *args, **kwargs):
    """Call `fn`; returns its result, its raw seconds and its seconds at reference speed.

    A one-shot timer signal, re-armed after each run, runs `reference` about
    every PERIOD_S during the call, so each stretch of the call between two
    runs is scaled by the speed measured at its two ends.  The reference's
    own runs count in neither time.  With no reference both times are raw.
    """
    if reference is None:
        t0 = perf_counter_ns()
        result = fn(*args, **kwargs)
        raw = (perf_counter_ns() - t0) / 1e9
        return result, raw, raw

    marks = []  # (start of a reference run, its time, its end)

    def sample(*_):
        start = perf_counter_ns()
        ref_ns = reference.time_ns()
        marks.append((start, ref_ns, perf_counter_ns()))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        sample()
        result = fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    marks.append((perf_counter_ns(), reference.time_ns(), 0))
    raw = scaled = 0.0
    for (_, before, end), (start, after, _) in zip(marks, marks[1:]):
        raw += start - end
        scaled += (start - end) * scale(reference, before, after)
    return result, raw / 1e9, scaled / 1e9
