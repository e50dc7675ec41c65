"""Run-pair (SCHC), position-list (LPC) and base+offset (BOC) headers.

Each header translates a logical position into a physical position in the
compressed cell array, or reports the cell as empty.  All sequences are
sorted by construction, so every lookup is a binary search.

The serialized layout is shared by every header type: a 4-octet magic tag,
one version octet, a parameter block of 8-octet little-endian integers, then
the sequences packed contiguously at their configured entry widths.
`write_envelope` and `read_envelope` write and read everything before the
sequences for all five schemes, and `check_payload_end` refuses any after.
`size_bytes()` reports the size of the structure itself (the quantity the
size comparisons reason about); serialized files add the small envelope.

In memory every sequence is a compact `array.array` made by `held` straight
from the numpy arrays a build or a load produces: run ends, empty counts,
positions, BOC bases and the DSC/DHC jumps as 8-octet 'Q' entries whatever
the entry width, BOC offsets in the narrowest typecode that holds
`offset_width` octets ('B', 'H', 'I' or 'Q'), and each column of the
DSC/DHC checkpoint table in the narrowest typecode that holds its largest
value.  A lookup is a scalar `bisect` over those arrays.  `memory_bytes()`
counts what is held, itemsize times length of each array, so at entry width
8 and offset width 2 it equals `size_bytes()`.  A load checks that the sequences are ordered
as a build leaves them and raises `FormatError` otherwise.
"""

from __future__ import annotations

import struct
from array import array
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
    if width in (1, 2, 4, 8):  # read as it is, without the strided copy below
        return np.frombuffer(data, dtype=f"<u{width}", count=count, offset=offset).astype(np.uint64)
    wide = np.zeros((count, 8), dtype=np.uint8)
    wide[:, :width] = np.frombuffer(
        data, dtype=np.uint8, count=width * count, offset=offset
    ).reshape(count, width)
    return wide.view("<u8").ravel().astype(np.uint64, copy=False)


# The narrowest array typecode of at least `width` octets, for width 1..8.
_TYPECODES = {w: next(c for c in "BHIQ" if array(c).itemsize >= w) for w in range(1, 9)}


def held(values, width: int = 8) -> array:
    """`values` (unsigned integers that fit `width` octets) as a compact array
    of the narrowest typecode that holds `width` octets.

    Sized by repetition: `frombytes` would leave a sixteenth spare.
    """
    out = array(_TYPECODES[width], [0]) * len(values)
    if out:
        np.frombuffer(out, dtype=f"u{out.itemsize}")[:] = values
    return out


def narrow(values: np.ndarray) -> array:
    """`values` in the narrowest typecode that holds the largest of them."""
    top = int(values.max()) if values.size else 0
    return held(values, max(1, (top.bit_length() + 7) // 8))


def held_bytes(*arrays: array) -> int:
    """The octets `arrays` hold, without the objects' fixed overhead."""
    return sum(a.itemsize * len(a) for a in arrays)


def _increasing(values: np.ndarray) -> bool:
    return bool((values[1:] > values[:-1]).all())


def _check_positions(positions) -> np.ndarray:
    arr = np.asarray(positions, dtype=np.uint64)
    if arr.size == 0:
        raise ValueError("position sequence is empty")
    if not _increasing(arr):
        raise ValueError("position sequence must be strictly increasing")
    return arr


def write_envelope(magic: bytes, *params: int) -> bytes:
    """The magic tag, the version octet and the parameter block."""
    return magic + bytes([VERSION]) + struct.pack(f"<{len(params)}Q", *params)


def read_envelope(data: bytes, magic: bytes, n_params: int) -> tuple[list[int], int]:
    """The parameters `write_envelope` wrote, and the offset of the payload."""
    end = 5 + 8 * n_params
    if len(data) < end:
        raise FormatError(f"file too short for its {magic!r} envelope")
    if data[:4] != magic:
        raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
    if data[4] != VERSION:
        raise FormatError(f"unsupported {magic!r} version {data[4]}")
    return list(struct.unpack_from(f"<{n_params}Q", data, 5)), end


def check_payload_end(data: bytes, end: int) -> None:
    """Raise FormatError if `data` runs on past its payload's end `end`."""
    if len(data) > end:
        raise FormatError(f"{len(data) - end} octets past the end of the header's payload")


@dataclass
class SchcHeader:
    """One (last position, cumulative empty count) pair per run of nonempty cells."""

    MAGIC = b"SCHC"

    run_ends: array
    empty_counts: array
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
        return held_bytes(self.run_ends, self.empty_counts)

    def lookup(self, position: int) -> int | None:
        ends = self.run_ends
        j = bisect_left(ends, position)
        if j == len(ends):
            return None
        empty = self.empty_counts[j]
        # Nonempty iff position lies past the empty prefix of run j, which
        # starts after the previous run's end (-1 before the first run).
        if j:
            if position - ends[j - 1] <= empty - self.empty_counts[j - 1]:
                return None
        elif position < empty:
            return None
        return position - empty

    def positions(self) -> np.ndarray:
        empties = np.frombuffer(self.empty_counts, dtype=np.uint64)
        # Cells up to each run's end, then each cell's position: its index
        # plus its run's empty count.
        through = np.frombuffer(self.run_ends, dtype=np.uint64) + np.uint64(1) - empties
        lengths = np.diff(through, prepend=np.uint64(0)).astype(np.int64)
        return np.arange(self.count, dtype=np.uint64) + np.repeat(empties, lengths)

    def to_bytes(self) -> bytes:
        pairs = np.column_stack((self.run_ends, self.empty_counts))
        head = write_envelope(self.MAGIC, self.entry_width, self.num_runs)
        return head + pack_ints(pairs, self.entry_width)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchcHeader":
        (entry_width, num_runs), off = read_envelope(data, cls.MAGIC, 2)
        flat = unpack_ints(data, entry_width, 2 * num_runs, off)
        check_payload_end(data, off + entry_width * 2 * num_runs)
        ends, empties = flat[0::2], flat[1::2]
        # Counted from the start (-1, 0), each run end grows and the empty
        # count grows by less, so every run holds at least one cell.
        if ends.size and not (
            empties[0] <= ends[0]
            and _increasing(ends)
            and (empties[1:] >= empties[:-1]).all()
            and (np.diff(empties) < np.diff(ends)).all()
        ):
            raise FormatError("run ends do not increase or a run holds no cell")
        return cls(held(ends), held(empties), entry_width)


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
    return SchcHeader(held(ends), held(empties), entry_width)


@dataclass
class LpcHeader:
    """The full sequence of nonempty logical positions, stored verbatim."""

    MAGIC = b"LPCH"

    positions_list: array
    entry_width: int = 8

    @property
    def count(self) -> int:
        return len(self.positions_list)

    def size_bytes(self) -> int:
        return self.count * self.entry_width

    def memory_bytes(self) -> int:
        return held_bytes(self.positions_list)

    def lookup(self, position: int) -> int | None:
        stored = self.positions_list
        j = bisect_left(stored, position)
        if j < len(stored) and stored[j] == position:
            return j
        return None

    def positions(self) -> np.ndarray:
        view = np.frombuffer(self.positions_list, dtype=np.uint64)
        view.flags.writeable = False
        return view

    def to_bytes(self) -> bytes:
        head = write_envelope(self.MAGIC, self.entry_width, self.count)
        return head + pack_ints(self.positions_list, self.entry_width)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LpcHeader":
        (entry_width, count), off = read_envelope(data, cls.MAGIC, 2)
        positions = unpack_ints(data, entry_width, count, off)
        check_payload_end(data, off + entry_width * count)
        if not _increasing(positions):
            raise FormatError("positions do not strictly increase")
        return cls(held(positions), entry_width)


def build_lpc(positions, entry_width: int = 8) -> LpcHeader:
    return LpcHeader(held(_check_positions(positions)), entry_width)


@dataclass
class BocHeader:
    """Block bases plus narrow per-position offsets."""

    MAGIC = b"BOCH"

    bases: array
    offsets: array
    block_len: int
    entry_width: int = 8
    offset_width: int = 2

    @property
    def count(self) -> int:
        return len(self.offsets)

    def size_bytes(self) -> int:
        return self.entry_width * len(self.bases) + self.offset_width * self.count

    def memory_bytes(self) -> int:
        return held_bytes(self.bases, self.offsets)

    def lookup(self, position: int) -> int | None:
        bases = self.bases
        k = bisect_right(bases, position) - 1
        if k < 0:
            return None
        target = position - bases[k]
        offsets = self.offsets
        lo = k * self.block_len
        hi = min(lo + self.block_len, len(offsets))
        j = bisect_left(offsets, target, lo, hi)
        if j < hi and offsets[j] == target:
            return j
        return None

    def positions(self) -> np.ndarray:
        block = _block_of(self.count, self.block_len)
        return np.frombuffer(self.bases, dtype=np.uint64)[block] + np.asarray(self.offsets)

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
        if block_len < 1 or n_bases != -(-count // block_len):
            raise FormatError(
                f"{n_bases} bases for {count} offsets in blocks of {block_len}"
            )
        bases = unpack_ints(data, entry_width, n_bases, offset=off)
        offsets = unpack_ints(data, offset_width, count, offset=off + entry_width * n_bases)
        check_payload_end(data, off + entry_width * n_bases + offset_width * count)
        _check_blocks(bases, offsets, block_len)
        return cls(
            held(bases), held(offsets, offset_width), block_len, entry_width, offset_width
        )


def _block_of(count: int, block_len: int) -> np.ndarray:
    """The BOC block of each of `count` offsets.

    A block length past the count still makes one block; clamping it keeps
    the arithmetic within int64 for any 8-octet block length.
    """
    return np.arange(count) // min(block_len, max(count, 1))


def _check_blocks(bases: np.ndarray, offsets: np.ndarray, block_len: int) -> None:
    """Raise FormatError unless the sequences are ordered as `build_boc`
    leaves them: the bases strictly increase, each block's offsets start at
    0 and strictly increase, each block's last position is below the next
    base, and the last position fits 64 bits."""
    within = np.diff(_block_of(offsets.size, block_len)) == 0  # offset i + 1 in i's block
    if not (
        _increasing(bases)
        and not offsets[:1].any()
        and not offsets[1:][~within].any()
        and (offsets[1:] > offsets[:-1])[within].all()
        and (offsets[:-1][~within] < np.diff(bases)).all()
        and (not offsets.size or int(bases[-1]) + int(offsets[-1]) < 1 << 64)
    ):
        raise FormatError("BOC bases or offsets are out of order")


def build_boc(
    positions,
    block_len: int = 16,
    entry_width: int = 8,
    offset_width: int = 2,
) -> BocHeader:
    if not 1 <= offset_width < entry_width:
        raise ValueError("offset width must satisfy 1 <= offset_width < entry_width")
    arr = _check_positions(positions)
    bases = arr[::block_len]
    offsets = arr - bases[_block_of(arr.size, block_len)]
    bound = 1 << (8 * offset_width)
    if int(offsets.max()) >= bound:
        bad = int(np.argmax(offsets >= np.uint64(bound)))
        block = bad // block_len
        raise OffsetOverflowError(
            f"offset {int(offsets[bad])} in block {block} does not fit "
            f"{offset_width} octets",
            block=block,
        )
    return BocHeader(
        held(bases), held(offsets, offset_width), block_len, entry_width, offset_width
    )
