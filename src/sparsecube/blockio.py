"""Block-granular file access with an optional simulated cache.

Every stored part of both physical representations is read through a
BlockReader so a SimCache can observe exactly which blocks a query touches.
A loaded store reads its files; a freshly built one reads the same octets
from memory through a BytesReader, which differs only in where a block
comes from, so both take one path.  Every read is one block: a 4- or 8-octet
md cell never crosses a 4096-octet boundary, and a table index page or row
group is a whole block.  Only `contents()`, for saving and for a load's
checks, reads a whole file at once, around the cache.  The cache is
fill-then-LRU, counts hits and misses, and stores block bytes so hits never
reach the file.  It is deterministic: identical access sequences produce
identical counters and resident sets.

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

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import FormatError

# The largest block, and table page, in octets.
MAX_BLOCK_SIZE = 1 << 20


class SimCache:
    """Fill-then-LRU block cache, accounted in actual resident bytes.

    Readers with different block sizes may share one cache; each resident
    entry is charged its true length, so a short tail block costs what it is.
    A lock keeps concurrent lookups safe; experiments stay single-threaded
    for determinism, but stores themselves may be probed from many threads.
    """

    def __init__(self, capacity: int):
        self.hits = 0
        self.misses = 0
        self._resident: OrderedDict[tuple[str, int], bytes] = OrderedDict()
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

    def access(self, key: tuple[str, int], loader: Callable[..., bytes], *args) -> bytes:
        """The block named `key`: from the cache on a hit, else `loader(*args)`.

        Readers pass their block loader and the block number as `args`, so
        no closure is built per access.  This is the LRU rule of live reads:
        a hit becomes most recent, and a missed block is held if it fits,
        evicting least recent first.  `lru_misses` runs the same rule over
        block codes and lengths from an empty cache, and a property test
        holds it to this method.
        """
        with self._lock:
            cached = self._resident.get(key)
            if cached is not None:
                self.hits += 1
                self._resident.move_to_end(key)
                return cached
            self.misses += 1
        data = loader(*args)
        with self._lock:
            if self.capacity >= len(data) and key not in self._resident:
                self._resident[key] = data
                self._used += len(data)
                self._evict()
        return data


def lru_misses(
    codes: np.ndarray,
    readers: Sequence[BlockReader],
    capacity: int,
    marks: Sequence[int] = (),
) -> tuple[list[int], list[int]]:
    """Each query's misses when the blocks `codes` names are read, in order,
    through a fill-then-LRU cache of `capacity` octets that starts empty.

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
        return os.pread(self._fd, self.block_size, block_no * self.block_size)

    def contents(self) -> bytes:
        """The whole file in one read, around the cache so saving leaves it
        untouched.  A file now shorter than when it was opened raises
        FormatError."""
        data = os.pread(self._fd, self.file_size, 0)
        if len(data) != self.file_size:
            raise FormatError(f"{self.name} holds {len(data)} octets, not {self.file_size}")
        return data

    def read_block(self, block_no: int) -> bytes:
        if self.cache is None:
            return self._load_block(block_no)
        return self.cache.access((self.name, block_no), self._load_block, block_no)

    def read_at(self, offset: int, length: int) -> bytes:
        """The `length` octets at `offset`, which must lie within one block."""
        bs = self.block_size
        first, start = divmod(offset, bs)
        if not 0 <= offset <= offset + length <= self.file_size or start + length > bs:
            raise ValueError(
                f"read [{offset}, {offset + length}) outside file of {self.file_size} bytes "
                f"or across its {bs}-octet blocks"
            )
        return self.read_block(first)[start : start + length] if length else b""


class BytesReader(BlockReader):
    """An uncached BlockReader over octets already in memory."""

    def __init__(self, data: bytes, name: str, block_size: int = 4096):
        self.block_size = block_size
        self.cache = None
        self.name = name
        self._fd = None
        self._data = data
        self.file_size = len(data)

    def _load_block(self, block_no: int) -> bytes:
        start = block_no * self.block_size
        return self._data[start : start + self.block_size]

    def contents(self) -> bytes:
        return self._data
