"""Block-granular file access with an optional simulated cache.

Every stored part of both physical representations is read through a
BlockReader so a SimCache can observe exactly which blocks a query touches.
A loaded store reads its files; a freshly built one reads the same octets
from memory through a BytesReader, which differs only in where a block
comes from, so both take one path.  Every read is one block: a 4- or 8-octet
md cell never crosses a 4096-octet boundary, and a table index page or row
group is a whole block.  Every block a query reads goes through
`BlockReader.read_at`, which does the whole read itself (bounds, cache,
file), so each read is one call there: perfbench's traced mode counts and
times the reads of each file by wrapping that one method.  Only
`contents()`, for saving and for a load's checks, reads a whole file at
once, around the cache.  The cache is fill-then-LRU, counts hits and
misses, and stores block bytes so hits never reach the file.  It is
deterministic: identical access sequences produce identical counters and
resident sets.  A block whose length is not the one the file's size at
open gives (the file changed under its reader) raises FormatError.

`lru_misses` is how the memory sweep charges its sampled queries.  A
store's `block_touches` names every block a sampled query reads by an
integer code (block number times the store's reader count, plus the
reader's index), one row of codes per query, and `lru_misses` runs the
same rule over those codes and the blocks' lengths in one loop, from an
empty cache, for a whole budget at once.  Neither reads a file or touches
a cache, so the sweep reads no file, and it leaves each cache as it found
it except for the hits and misses it adds to the counters (`add_counts`).
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError

# The largest block, and table page, in octets.
MAX_BLOCK_SIZE = 1 << 20
# Each reader's serial, which keys its blocks in a cache: reader names
# repeat across stores, and an `id()` is reused once its reader is freed.
_SERIALS = itertools.count()


class SimCache:
    """Fill-then-LRU block cache, accounted in actual resident bytes.

    Readers with different block sizes may share one cache; a block is
    keyed by its reader's `serial` and its number, and each resident entry
    is charged its true length, so a short tail block costs what it is.
    A lock keeps concurrent lookups safe; experiments stay single-threaded
    for determinism, but stores themselves may be probed from many threads.
    A hit is one `get`, which takes the lock once; a miss is a `get`, the
    reader's load outside the lock, and a `put`.
    """

    def __init__(self, capacity: int):
        self.hits = 0
        self.misses = 0
        self._resident: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()
        self.set_capacity(capacity)

    @property
    def resident_blocks(self) -> int:
        return len(self._resident)

    @property
    def used_bytes(self) -> int:
        return self._used

    def set_capacity(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        with self._lock:
            self.capacity = capacity
            self._evict()

    def clear(self) -> None:
        with self._lock:
            self._resident.clear()
            self._used = 0

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0

    def add_counts(self, hits: int, misses: int) -> None:
        """Add accesses simulated around the cache (see `lru_misses`)."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def _evict(self) -> None:
        while self._used > self.capacity:
            _, dropped = self._resident.popitem(last=False)
            self._used -= len(dropped)

    def get(self, key: tuple[int, int]) -> bytes | None:
        """The block named `key` on a hit, which becomes most recent; None on
        a miss, whose block the caller loads and hands to `put`.  Either
        counts itself.

        This is the LRU rule of live reads, with `put`.  `lru_misses` runs
        the same rule over block codes and lengths from an empty cache, and
        a property test holds it to these two methods.  The lock is taken
        by `acquire`/`release`: on CPython 3.11 a `with` block costs about
        0.14 µs more, a fifth of a cached read.
        """
        lock = self._lock
        lock.acquire()
        try:
            cached = self._resident.get(key)
            if cached is None:
                self.misses += 1
                return None
            self.hits += 1
            self._resident.move_to_end(key)
            return cached
        finally:
            lock.release()

    def put(self, key: tuple[int, int], data: bytes) -> None:
        """Hold a missed block if it fits, evicting least recent first."""
        with self._lock:
            if self.capacity >= len(data) and key not in self._resident:
                self._resident[key] = data
                self._used += len(data)
                self._evict()


def lru_misses(
    codes: np.ndarray,
    readers: Sequence[BlockReader],
    capacity: int,
    marks: Sequence[int] = (),
) -> tuple[list[int], list[int]]:
    """Each query's misses when the blocks `codes` names are read, in order,
    through a fill-then-LRU cache of `capacity` octets that starts empty:
    the rule `SimCache.get` and `SimCache.put` apply to live reads.

    `codes` holds one row per query, read left to right; code k names block
    `k // len(readers)` of `readers[k % len(readers)]`.  A block's length
    follows from its reader's `block_size` and `file_size`, so no file is
    read.  Also returns, for each q in `marks` (ascending), the octets
    resident once the first q queries have run.
    """
    codes = np.asarray(codes, dtype=np.int64)
    queries, width = codes.shape
    codes = codes.ravel()
    n = len(readers)
    block, which = np.divmod(codes, n)
    size = np.array([r.block_size for r in readers], dtype=np.int64)[which]
    tail = np.array([r.file_size for r in readers], dtype=np.int64)[which] - block * size
    lengths = np.clip(tail, 0, size).tolist()
    codes = codes.tolist()
    lru: OrderedDict[int, int] = OrderedDict()  # code: length, least recent first
    move, pop = lru.move_to_end, lru.popitem
    used = 0
    missed = []
    miss = missed.append
    used_at = []
    lo = 0
    for hi in [q * width for q in marks] + [len(codes)]:
        for i, code in enumerate(codes[lo:hi], lo):
            if code in lru:
                move(code)
                continue
            miss(i)
            length = lengths[i]
            if length <= capacity:
                lru[code] = length
                used += length
                while used > capacity:
                    used -= pop(False)[1]
        used_at.append(used)
        lo = hi
    by_query = np.array(missed, dtype=np.int64) // width
    return np.bincount(by_query, minlength=queries).tolist(), used_at[:-1]


class Closing:
    """`with` support for the readers and stores: leaving the block calls `close()`."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class BlockReader(Closing):
    """Reads byte ranges, each within one fixed-size block, from a file."""

    def __init__(
        self,
        path: str | Path,
        block_size: int = 4096,
        cache: SimCache | None = None,
        name: str | None = None,
    ):
        if not 1 <= block_size <= MAX_BLOCK_SIZE:
            raise ValueError(f"block size {block_size} is not in 1..{MAX_BLOCK_SIZE}")
        self.path = str(path)
        self.block_size = block_size
        self.cache = cache
        self.name = name if name is not None else self.path
        self.serial = next(_SERIALS)
        self._fd = os.open(self.path, os.O_RDONLY)
        self.file_size = os.fstat(self._fd).st_size

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _load_block(self, block_no: int) -> bytes:
        """Block `block_no` from the file.  A block of another length than
        the file's size at open gives raises FormatError."""
        start = block_no * self.block_size
        data = os.pread(self._fd, self.block_size, start)
        expected = min(self.block_size, self.file_size - start)
        if len(data) != expected:
            raise FormatError(
                f"{self.name} block {block_no} holds {len(data)} octets, not {expected}"
            )
        return data

    def contents(self) -> bytes:
        """The whole file in one read, around the cache so saving leaves it
        untouched.  A file now shorter than when it was opened raises
        FormatError."""
        data = os.pread(self._fd, self.file_size, 0)
        if len(data) != self.file_size:
            raise FormatError(f"{self.name} holds {len(data)} octets, not {self.file_size}")
        return data

    def read_at(self, offset: int, length: int) -> bytes:
        """The `length` octets at `offset`, which must lie within one block:
        from the cache on a hit, else from the block's load, which the cache
        then holds if it fits."""
        bs = self.block_size
        block = offset // bs
        start = offset - block * bs
        if not 0 <= offset <= offset + length <= self.file_size or start + length > bs:
            raise ValueError(
                f"read [{offset}, {offset + length}) outside file of {self.file_size} bytes "
                f"or across its {bs}-octet blocks"
            )
        if not length:
            return b""
        cache = self.cache
        if cache is None:
            data = self._load_block(block)
        else:
            key = (self.serial, block)
            data = cache.get(key)
            if data is None:
                data = self._load_block(block)
                cache.put(key, data)
        return data[start : start + length]


class BytesReader(BlockReader):
    """An uncached BlockReader over octets already in memory."""

    def __init__(self, data: bytes, name: str, block_size: int = 4096):
        self.block_size = block_size
        self.cache = None
        self.name = name
        self.serial = next(_SERIALS)
        self._fd = None
        self._data = data
        self.file_size = len(data)

    def _load_block(self, block_no: int) -> bytes:
        start = block_no * self.block_size
        return self._data[start : start + self.block_size]

    def contents(self) -> bytes:
        return self._data
