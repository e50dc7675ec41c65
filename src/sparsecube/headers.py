"""Run-pair (SCHC), position-list (LPC) and base+offset (BOC) headers.

Each header translates a logical position into a physical position in the
compressed cell array, or reports the cell as empty.  All sequences are
sorted by construction, so every lookup is a binary search.

The serialized layout is shared by every header type: a 4-octet magic tag,
one version octet, a parameter block of 8-octet little-endian integers, then
the sequences packed contiguously at their configured entry widths.
`write_envelope` and `read_envelope` write and read everything before the
sequences, for all five schemes.
`size_bytes()` reports the size of the structure itself (the quantity the
size comparisons reason about); serialized files add the small envelope.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidPositionError, OffsetOverflowError

VERSION = 1


def pack_ints(values, width: int) -> bytes:
    """Unsigned integers as `width`-octet (1..8) little-endian entries."""
    if not 1 <= width <= 8:
        raise ValueError(f"entry width {width} is not 1..8 octets")
    arr = np.ascontiguousarray(values, dtype="<u8").ravel()
    if width < 8 and arr.size and int(arr.max()) >> (8 * width):
        raise InvalidPositionError(f"value {int(arr.max())} does not fit {width} octets")
    return arr.view(np.uint8).reshape(-1, 8)[:, :width].tobytes()


def unpack_ints(data: bytes, width: int, count: int, offset: int = 0) -> np.ndarray:
    """`count` `width`-octet little-endian entries from `offset`, as uint64."""
    if not 1 <= width <= 8:
        raise FormatError(f"entry width {width} is not 1..8 octets")
    if offset + width * count > len(data):
        raise FormatError("truncated header payload")
    wide = np.zeros((count, 8), dtype=np.uint8)
    wide[:, :width] = np.frombuffer(
        data, dtype=np.uint8, count=width * count, offset=offset
    ).reshape(count, width)
    return wide.view("<u8").ravel().astype(np.uint64)


def _check_positions(positions) -> np.ndarray:
    arr = np.asarray(positions, dtype=np.uint64)
    if arr.size == 0:
        raise ValueError("position sequence is empty")
    if arr.size > 1 and not (np.diff(arr) > 0).all():
        raise ValueError("position sequence must be strictly increasing")
    return arr


def write_envelope(magic: bytes, *params: int) -> bytes:
    """The magic tag, the version octet and the parameter block."""
    return magic + bytes([VERSION]) + struct.pack(f"<{len(params)}Q", *params)


def read_envelope(data: bytes, magic: bytes, n_params: int) -> tuple[list[int], int]:
    """The parameters `write_envelope` wrote, and the offset of the payload."""
    end = 5 + 8 * n_params
    if len(data) < end:
        raise FormatError("header file too short")
    if data[:4] != magic:
        raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
    if data[4] != VERSION:
        raise FormatError(f"unsupported header version {data[4]}")
    return list(struct.unpack_from(f"<{n_params}Q", data, 5)), end


@dataclass
class SchcHeader:
    """One (last position, cumulative empty count) pair per run of nonempty cells."""

    MAGIC = b"SCHC"

    run_ends: list[int]
    empty_counts: list[int]
    entry_width: int = 8

    @property
    def num_runs(self) -> int:
        return len(self.run_ends)

    @property
    def count(self) -> int:
        """Stored cells: the last run's end plus one, less every empty cell."""
        return self.run_ends[-1] + 1 - self.empty_counts[-1] if self.run_ends else 0

    def size_bytes(self) -> int:
        return 2 * self.num_runs * self.entry_width

    def memory_bytes(self) -> int:
        return self.size_bytes()

    def lookup(self, position: int) -> int | None:
        j = bisect_left(self.run_ends, position)
        if j == self.num_runs:
            return None
        prev_end = self.run_ends[j - 1] if j > 0 else -1
        prev_empty = self.empty_counts[j - 1] if j > 0 else 0
        # Nonempty iff position lies past the empty prefix of run j.
        if position <= prev_end + (self.empty_counts[j] - prev_empty):
            return None
        return position - self.empty_counts[j]

    def positions(self) -> list[int]:
        out: list[int] = []
        prev_end, prev_empty = -1, 0
        for end, empty in zip(self.run_ends, self.empty_counts):
            start = prev_end + (empty - prev_empty) + 1
            out.extend(range(start, end + 1))
            prev_end, prev_empty = end, empty
        return out

    def to_bytes(self) -> bytes:
        pairs = np.array([self.run_ends, self.empty_counts], dtype=np.uint64).T
        head = write_envelope(self.MAGIC, self.entry_width, self.num_runs)
        return head + pack_ints(pairs, self.entry_width)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchcHeader":
        (entry_width, num_runs), off = read_envelope(data, cls.MAGIC, 2)
        flat = unpack_ints(data, entry_width, 2 * num_runs, off).tolist()
        return cls(flat[0::2], flat[1::2], entry_width)


def build_schc(positions, total_cells: int, entry_width: int = 8) -> SchcHeader:
    arr = _check_positions(positions)
    if int(arr[-1]) >= total_cells:
        raise InvalidPositionError(
            f"position {int(arr[-1])} >= total cell count {total_cells}"
        )
    run_break = np.diff(arr) > 1
    end_mask = np.append(run_break, True)
    ends = arr[end_mask]
    end_idx = np.flatnonzero(end_mask).astype(np.uint64)
    empties = ends - end_idx  # end+1 minus nonempty count (idx+1) up to the end
    return SchcHeader(ends.tolist(), empties.tolist(), entry_width)


@dataclass
class LpcHeader:
    """The full sequence of nonempty logical positions, stored verbatim."""

    MAGIC = b"LPCH"

    positions_list: list[int]
    entry_width: int = 8

    @property
    def count(self) -> int:
        return len(self.positions_list)

    def size_bytes(self) -> int:
        return self.count * self.entry_width

    def memory_bytes(self) -> int:
        return self.size_bytes()

    def lookup(self, position: int) -> int | None:
        j = bisect_left(self.positions_list, position)
        if j < self.count and self.positions_list[j] == position:
            return j
        return None

    def positions(self) -> list[int]:
        return list(self.positions_list)

    def to_bytes(self) -> bytes:
        head = write_envelope(self.MAGIC, self.entry_width, self.count)
        return head + pack_ints(self.positions_list, self.entry_width)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LpcHeader":
        (entry_width, count), off = read_envelope(data, cls.MAGIC, 2)
        return cls(unpack_ints(data, entry_width, count, off).tolist(), entry_width)


def build_lpc(positions, entry_width: int = 8) -> LpcHeader:
    arr = _check_positions(positions)
    return LpcHeader(arr.tolist(), entry_width)


@dataclass
class BocHeader:
    """Block bases plus narrow per-position offsets."""

    MAGIC = b"BOCH"

    bases: list[int]
    offsets: list[int]
    block_len: int
    entry_width: int = 8
    offset_width: int = 2

    @property
    def count(self) -> int:
        return len(self.offsets)

    def size_bytes(self) -> int:
        return self.entry_width * len(self.bases) + self.offset_width * self.count

    def memory_bytes(self) -> int:
        return self.size_bytes()

    def lookup(self, position: int) -> int | None:
        k = bisect_right(self.bases, position) - 1
        if k < 0:
            return None
        target = position - self.bases[k]
        lo = k * self.block_len
        hi = min(lo + self.block_len, self.count)
        j = bisect_left(self.offsets, target, lo, hi)
        if j < hi and self.offsets[j] == target:
            return j
        return None

    def positions(self) -> list[int]:
        return [
            self.bases[j // self.block_len] + off for j, off in enumerate(self.offsets)
        ]

    def to_bytes(self) -> bytes:
        head = write_envelope(
            self.MAGIC,
            self.entry_width,
            self.offset_width,
            self.block_len,
            self.count,
            len(self.bases),
        )
        return (
            head
            + pack_ints(self.bases, self.entry_width)
            + pack_ints(self.offsets, self.offset_width)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BocHeader":
        (entry_width, offset_width, block_len, count, n_bases), off = read_envelope(
            data, cls.MAGIC, 5
        )
        bases = unpack_ints(data, entry_width, n_bases, offset=off)
        offsets = unpack_ints(data, offset_width, count, offset=off + entry_width * n_bases)
        return cls(bases.tolist(), offsets.tolist(), block_len, entry_width, offset_width)


def build_boc(
    positions,
    block_len: int = 16,
    entry_width: int = 8,
    offset_width: int = 2,
) -> BocHeader:
    if block_len < 1:
        raise ValueError("block length must be >= 1")
    if not 1 <= offset_width < entry_width:
        raise ValueError("offset width must satisfy 1 <= offset_width < entry_width")
    arr = _check_positions(positions)
    bases = arr[::block_len]
    offsets = arr - np.repeat(bases, block_len)[: arr.size]
    bound = 1 << (8 * offset_width)
    if int(offsets.max()) >= bound:
        bad = int(np.argmax(offsets >= np.uint64(bound)))
        block = bad // block_len
        raise OffsetOverflowError(
            f"offset {int(offsets[bad])} in block {block} does not fit "
            f"{offset_width} octets",
            block=block,
        )
    return BocHeader(bases.tolist(), offsets.tolist(), block_len, entry_width, offset_width)
