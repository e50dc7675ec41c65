"""Difference-coded headers: DSC (packed gaps) and DHC (Huffman-coded gaps).

Both store the full jump sequence (absolute positions restarting the running
sum wherever a gap overflows the difference width) next to the per-cell
difference sequence.  The first difference is zero by definition and is
carried by the first jump.

Point queries binary-search a checkpoint table, then scan differences forward
from the checkpoint, switching to the next jump whenever a zero difference
comes up.  The table has an entry at every `stride`-th jump and at every
CHECKPOINT_CELLS-th cell, so a lookup decodes fewer than CHECKPOINT_CELLS
differences however rarely a gap overflows.  The table is never serialized:
a build fills it from the arrays it already holds, and a load rebuilds it in
one pass over the stored differences.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CorruptStreamError, FormatError
from .headers import VERSION, read_envelope
from .huffman import BitStream, CodeBook, Decoder, build_codebook, encode_sequence

# Cells between two checkpoints at most.  Each checkpoint costs 24 resident
# octets (DSC) or 32 (DHC); at 128 a DHC store stays within 5% of its disk size.
CHECKPOINT_CELLS = 128

_MAGIC_DSC = b"DSCH"
_MAGIC_DHC = b"DHCH"


def _difference_arrays(
    positions: Sequence[int], diff_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not 1 <= diff_bits <= 32:
        raise ValueError("difference width must be 1..32 bits")
    arr = np.asarray(positions, dtype=np.uint64)
    if arr.size == 0:
        raise ValueError("position sequence is empty")
    if arr.size > 1 and not (np.diff(arr) > 0).all():
        raise ValueError("position sequence must be strictly increasing")
    max_diff = np.uint64((1 << diff_bits) - 1)
    deltas = np.diff(arr)
    over = deltas > max_diff
    diffs = np.zeros(arr.size, dtype=np.uint64)
    diffs[1:] = np.where(over, np.uint64(0), deltas)
    jump_idx = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.flatnonzero(over) + 1]
    )
    return diffs, arr[jump_idx], jump_idx


def build_difference_sequence(
    positions: Sequence[int], diff_bits: int
) -> tuple[list[int], list[int], list[int]]:
    """Split a strictly increasing sequence into (diffs, jumps, jump indices).

    diffs[i] is the gap to the previous position when it fits diff_bits bits,
    else 0; diffs[0] is always 0.  jumps holds the absolute position behind
    every zero diff, and the returned indices locate those zeros.
    """
    diffs, jumps, jump_idx = _difference_arrays(positions, diff_bits)
    return diffs.tolist(), jumps.tolist(), jump_idx.tolist()


def pack_diffs(values: Sequence[int], diff_bits: int) -> bytes:
    """Pack diff_bits-wide unsigned values into little-endian bit groups."""
    if diff_bits == 8:
        return np.asarray(values, dtype="<u1").tobytes()
    if diff_bits == 16:
        return np.asarray(values, dtype="<u2").tobytes()
    if diff_bits == 32:
        return np.asarray(values, dtype="<u4").tobytes()
    octets = np.asarray(values, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    return np.packbits(bits[:, :diff_bits], bitorder="little").tobytes()


def packed_size(count: int, diff_bits: int) -> int:
    return (diff_bits * count + 7) // 8


def _diff_array(data: bytes, diff_bits: int, count: int) -> np.ndarray:
    """The first `count` packed differences as a uint64 array."""
    if diff_bits in (8, 16, 32):
        raw = np.frombuffer(data, dtype=f"<u{diff_bits // 8}", count=count)
        return raw.astype(np.uint64)
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=count * diff_bits, bitorder="little"
    ).reshape(count, diff_bits)
    wide = np.zeros((count, 32), dtype=np.uint8)
    wide[:, :diff_bits] = bits
    words = np.packbits(wide, axis=1, bitorder="little").view("<u4")
    return words.ravel().astype(np.uint64)


def _diff_window(data: bytes, diff_bits: int, first: int, stop: int) -> Iterable[int]:
    """The packed differences first .. stop-1, for a scan that may stop early.

    Whole-octet widths unpack in one call.  Other widths read the window's
    octets as one integer and shift each difference off its low end.
    """
    if diff_bits == 8:
        return data[first:stop]
    if diff_bits in (16, 32):
        code = "H" if diff_bits == 16 else "I"
        return struct.unpack_from(f"<{stop - first}{code}", data, first * diff_bits // 8)
    return _bit_window(data, diff_bits, first, stop)


def _bit_window(data: bytes, diff_bits: int, first: int, stop: int) -> Iterator[int]:
    start = first * diff_bits
    window = int.from_bytes(data[start >> 3 : (stop * diff_bits + 7) >> 3], "little")
    window >>= start & 7
    mask = (1 << diff_bits) - 1
    for _ in range(first, stop):
        yield window & mask
        window >>= diff_bits


def unpack_diffs(data: bytes, diff_bits: int, count: int) -> list[int]:
    return _diff_array(data, diff_bits, count).tolist()


def _u64(values) -> array:
    """A compact array('Q') holding `values` (any integer numpy array)."""
    out = array("Q")
    out.frombytes(np.ascontiguousarray(values, dtype=np.uint64).tobytes())
    return out


def _pack_jumps(jumps: array, entry_width: int) -> bytes:
    if entry_width == 8:
        return np.frombuffer(jumps, dtype=np.uint64).astype("<u8").tobytes()
    return b"".join(int(j).to_bytes(entry_width, "little") for j in jumps)


def _unpack_jumps(data: bytes, offset: int, entry_width: int, count: int) -> array:
    end = offset + entry_width * count
    if end > len(data):
        raise FormatError("truncated jump sequence")
    if entry_width == 8:
        jumps = array("Q", data[offset:end])
        if sys.byteorder == "big":
            jumps.byteswap()
        return jumps
    return array("Q", (
        int.from_bytes(data[offset + i * entry_width : offset + (i + 1) * entry_width], "little")
        for i in range(count)
    ))


@dataclass
class Checkpoints:
    """Where a scan may start, one entry per checkpointed cell, by cell.

    Entry e: cell `cell[e]` sits at absolute position `pos[e]` in the run of
    jump `jump[e]`.  For DHC, `bit[e]` is the stream bit offset right after
    that cell's code, so a decoder started there yields the next difference.
    Positions go up to 2**64 - 1, so every column is unsigned 64-bit.
    """

    pos: array
    cell: array
    jump: array
    bit: array = field(default_factory=lambda: array("Q"))

    def memory_bytes(self) -> int:
        return sum(c.itemsize * len(c) for c in (self.pos, self.cell, self.jump, self.bit))


def _positions_at(
    cells: np.ndarray, diffs: np.ndarray, jump_idx: np.ndarray, jumps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute positions of `cells`, and the jump whose run holds each one."""
    run = np.searchsorted(jump_idx, cells, side="right") - 1
    total = np.cumsum(diffs, dtype=np.uint64)
    return jumps[run] + (total[cells] - total[jump_idx[run]]), run


def _checkpoints_from_arrays(
    diffs: np.ndarray, jump_idx: np.ndarray, jumps: np.ndarray, stride: int
) -> Checkpoints:
    """The checkpoint table, without DHC bit offsets, from the numpy arrays.

    Entries sit at every stride-th jump and every CHECKPOINT_CELLS-th cell.
    """
    every_k = np.arange(0, diffs.size, CHECKPOINT_CELLS, dtype=np.int64)
    cells = np.union1d(every_k, jump_idx[::stride])
    pos, run = _positions_at(cells, diffs, jump_idx, jumps)
    return Checkpoints(_u64(pos), _u64(cells), _u64(run))


def _jump_indices(diffs: np.ndarray, n_jumps: int) -> np.ndarray:
    zero_idx = np.flatnonzero(diffs == 0)
    if zero_idx.size != n_jumps:
        raise CorruptStreamError(f"{zero_idx.size} zero differences but {n_jumps} jumps")
    if zero_idx.size and zero_idx[0] != 0:
        raise CorruptStreamError("first difference is not zero")
    return zero_idx


@dataclass
class DscHeader:
    """Packed difference sequence plus jump sequence."""

    diff_bits: int
    entry_width: int
    stride: int
    count: int
    jumps: array
    diff_data: bytes
    checkpoints: Checkpoints | None = field(default=None, repr=False)  # rebuilt on load

    def __post_init__(self):
        if self.checkpoints is None:
            # One vectorised pass over the stored differences.
            self.checkpoints = _checkpoints_from_arrays(*self._arrays(), self.stride)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Differences, the cells of their zeros and the jumps, as numpy arrays."""
        if len(self.diff_data) < packed_size(self.count, self.diff_bits):
            raise CorruptStreamError("difference data shorter than declared count")
        diffs = _diff_array(self.diff_data, self.diff_bits, self.count)
        jump_idx = _jump_indices(diffs, len(self.jumps))
        return diffs, jump_idx, np.frombuffer(self.jumps, dtype=np.uint64)

    def size_bytes(self) -> int:
        return packed_size(self.count, self.diff_bits) + self.entry_width * len(
            self.jumps
        )

    def memory_bytes(self) -> int:
        return self.size_bytes() + self.checkpoints.memory_bytes()

    def lookup(self, position: int) -> int | None:
        cp = self.checkpoints
        m = bisect_right(cp.pos, position) - 1
        if m < 0:
            return None
        i = cp.cell[m]
        cur = cp.pos[m]
        if cur == position:
            return i
        limit = cp.cell[m + 1] if m + 1 < len(cp.cell) else self.count
        jumps = self.jumps
        k = cp.jump[m]
        diffs = _diff_window(self.diff_data, self.diff_bits, i + 1, limit)
        for i, d in zip(range(i + 1, limit), diffs):
            if d == 0:
                k += 1
                if k >= len(jumps):
                    raise CorruptStreamError("more zero differences than jumps")
                cur = jumps[k]
            else:
                cur += d
            if cur >= position:
                return i if cur == position else None
        return None

    def positions(self) -> list[int]:
        cells = np.arange(self.count, dtype=np.int64)
        return _positions_at(cells, *self._arrays())[0].tolist()

    def to_bytes(self) -> bytes:
        head = _MAGIC_DSC + bytes([VERSION])
        head += struct.pack(
            "<QQQQQ",
            self.entry_width,
            self.diff_bits,
            self.stride,
            self.count,
            len(self.jumps),
        )
        return head + _pack_jumps(self.jumps, self.entry_width) + self.diff_data

    @classmethod
    def from_bytes(cls, data: bytes) -> "DscHeader":
        entry_width, diff_bits, stride, count, n_jumps = read_envelope(
            data, _MAGIC_DSC, 5
        )
        if stride < 1:
            raise FormatError("checkpoint stride must be positive")
        off = 45
        jumps = _unpack_jumps(data, off, entry_width, n_jumps)
        off += entry_width * n_jumps
        need = packed_size(count, diff_bits)
        diff_data = data[off : off + need]
        if len(diff_data) < need:
            raise CorruptStreamError("truncated difference data")
        return cls(diff_bits, entry_width, stride, count, jumps, diff_data)


def build_dsc(
    positions: Sequence[int],
    diff_bits: int = 16,
    entry_width: int = 8,
    stride: int = 16,
) -> DscHeader:
    diffs, jumps, jump_idx = _difference_arrays(positions, diff_bits)
    return DscHeader(
        diff_bits,
        entry_width,
        stride,
        diffs.size,
        _u64(jumps),
        pack_diffs(diffs, diff_bits),
        checkpoints=_checkpoints_from_arrays(diffs, jump_idx, jumps, stride),
    )


def lookup_dsc(header: DscHeader, position: int) -> int | None:
    return header.lookup(position)


@dataclass
class DhcHeader:
    """Jump sequence plus the Huffman code of the difference sequence.

    The stream encodes diffs 1..count-1 (the leading zero is implied by the
    first jump).  The checkpoint table carries, per entry, the stream bit
    offset right after that cell's code.
    """

    diff_bits: int
    entry_width: int
    stride: int
    count: int
    jumps: array
    codebook: CodeBook | None
    stream: BitStream
    checkpoints: Checkpoints | None = field(default=None, repr=False)  # rebuilt on load

    def __post_init__(self):
        if self.checkpoints is None:
            self.checkpoints = self._decode_checkpoints()

    def _decode_checkpoints(self) -> Checkpoints:
        """Decode the stream once, taking the checkpoints on the way."""
        jumps, stride, n = self.jumps, self.stride, self.count
        if not jumps:
            raise CorruptStreamError("empty jump sequence")
        cells, pos, runs, bits = [0], [jumps[0]], [0], [0]
        k = 0
        if n > 1:
            if self.codebook is None:
                raise CorruptStreamError("missing codebook for a multi-cell stream")
            dec = Decoder(self.codebook, self.stream, 0, 0)
            decode = dec.decode_next
            cur = jumps[0]
            # Chunks of CHECKPOINT_CELLS cells keep the per-cell loop free of
            # the cell-count test.
            for start in range(0, n - 1, CHECKPOINT_CELLS):
                stop = min(start + CHECKPOINT_CELLS, n - 1)
                for cell in range(start + 1, stop + 1):
                    sym = decode()
                    if sym is None:
                        raise CorruptStreamError("stream ended before declared count")
                    if sym == 0:
                        k += 1
                        if k >= len(jumps):
                            raise CorruptStreamError("more zero differences than jumps")
                        cur = jumps[k]
                        if k % stride == 0:
                            cells.append(cell)
                            pos.append(cur)
                            runs.append(k)
                            bits.append(dec.pos)
                    else:
                        cur += sym
                if stop % CHECKPOINT_CELLS == 0 and cells[-1] != stop:
                    cells.append(stop)
                    pos.append(cur)
                    runs.append(k)
                    bits.append(dec.pos)
            if self.stream.bit_length - dec.pos >= 8:
                raise CorruptStreamError("trailing data after final code")
        if k + 1 != len(jumps):
            raise CorruptStreamError(f"{k + 1} zero differences but {len(jumps)} jumps")
        try:
            return Checkpoints(array("Q", pos), array("Q", cells), array("Q", runs),
                               array("Q", bits))
        except OverflowError as exc:
            raise CorruptStreamError("position beyond 64 bits") from exc

    def codebook_bytes(self) -> int:
        return self.codebook.size_bytes() if self.codebook else 0

    def stream_bytes(self) -> int:
        # Raw octets plus the stored bit length.
        return 8 + len(self.stream.data)

    def size_bytes(self) -> int:
        return (
            self.entry_width * len(self.jumps)
            + self.codebook_bytes()
            + self.stream_bytes()
        )

    def memory_bytes(self) -> int:
        tables = self.codebook.decode_table_bytes() if self.codebook else 0
        return self.size_bytes() + self.checkpoints.memory_bytes() + tables

    def lookup(self, position: int) -> int | None:
        cp = self.checkpoints
        m = bisect_right(cp.pos, position) - 1
        if m < 0:
            return None
        idx = cp.cell[m]
        cur = cp.pos[m]
        if cur == position:
            return idx
        limit = cp.cell[m + 1] if m + 1 < len(cp.cell) else self.count
        if idx + 1 >= limit:
            return None
        jumps = self.jumps
        k = cp.jump[m]
        # Inlined table-driven decode: scans dominate point-query cost, so the
        # general Decoder is only consulted for codes past the table width.
        first, count, offset, syms, w, lut = self.codebook._tables()
        data = self.stream.data
        bits = self.stream.bit_length
        end = len(data)
        pos = cp.bit[m]
        cursor = pos >> 3
        buf = 0
        fill = 0
        lead = pos & 7
        if lead and cursor < end:
            buf = data[cursor] & (0xFF >> lead)
            fill = 8 - lead
            cursor += 1
        while idx + 1 < limit:
            if pos >= bits:
                raise CorruptStreamError("stream ended before declared count")
            if fill < w:
                while fill < 56:
                    buf = (buf << 8) | (data[cursor] if cursor < end else 0)
                    cursor += 1
                    fill += 8
            entry = lut[buf >> (fill - w)]
            if entry is None:
                return self._scan_from(position, pos, idx, limit, k, cur)
            d, ln = entry
            if ln > bits - pos:
                raise CorruptStreamError("code truncated at end of stream")
            fill -= ln
            buf &= (1 << fill) - 1
            pos += ln
            idx += 1
            if d == 0:
                k += 1
                if k >= len(jumps):
                    raise CorruptStreamError("more zero differences than jumps")
                cur = jumps[k]
            else:
                cur += d
            if cur >= position:
                return idx if cur == position else None
        return None

    def _scan_from(self, position, pos, idx, limit, k, cur) -> int | None:
        # Continue the scan through the general decoder (long codes).
        jumps = self.jumps
        dec = Decoder(self.codebook, self.stream, pos >> 3, pos & 7)
        decode = dec.decode_next
        while idx + 1 < limit:
            d = decode()
            if d is None:
                raise CorruptStreamError("stream ended before declared count")
            idx += 1
            if d == 0:
                k += 1
                if k >= len(jumps):
                    raise CorruptStreamError("more zero differences than jumps")
                cur = jumps[k]
            else:
                cur += d
            if cur >= position:
                return idx if cur == position else None
        return None

    def positions(self) -> list[int]:
        out = [self.jumps[0]]
        if self.count > 1:
            if self.codebook is None:
                raise CorruptStreamError("missing codebook for a multi-cell stream")
            dec = Decoder(self.codebook, self.stream, 0, 0)
            cur = self.jumps[0]
            k = 0
            for _ in range(self.count - 1):
                d = dec.decode_next()
                if d == 0:
                    k += 1
                    cur = self.jumps[k]
                else:
                    cur += d
                out.append(cur)
        return out

    def to_bytes(self) -> bytes:
        head = _MAGIC_DHC + bytes([VERSION])
        head += struct.pack(
            "<QQQQQQ",
            self.entry_width,
            self.diff_bits,
            self.stride,
            self.count,
            len(self.jumps),
            self.stream.bit_length,
        )
        jumps = _pack_jumps(self.jumps, self.entry_width)
        cb = self.codebook.to_bytes() if self.codebook else struct.pack("<Q", 0)
        return head + jumps + cb + self.stream.data

    @classmethod
    def from_bytes(cls, data: bytes) -> "DhcHeader":
        entry_width, diff_bits, stride, count, n_jumps, bit_length = read_envelope(
            data, _MAGIC_DHC, 6
        )
        if stride < 1:
            raise FormatError("checkpoint stride must be positive")
        off = 53
        jumps = _unpack_jumps(data, off, entry_width, n_jumps)
        off += entry_width * n_jumps
        if len(data) < off + 8:
            raise FormatError("truncated codebook")
        (n_syms,) = struct.unpack_from("<Q", data, off)
        if n_syms == 0:
            codebook = None
            off += 8
        else:
            codebook, off = CodeBook.from_bytes(data, off)
        nbytes = (bit_length + 7) // 8
        raw = data[off : off + nbytes]
        if len(raw) < nbytes:
            raise CorruptStreamError("truncated code stream")
        return cls(diff_bits, entry_width, stride, count, jumps, codebook,
                   BitStream(raw, bit_length))


def build_dhc(
    positions: Sequence[int],
    diff_bits: int = 16,
    entry_width: int = 8,
    stride: int = 16,
) -> DhcHeader:
    diffs, jumps, jump_idx = _difference_arrays(positions, diff_bits)
    symbols = diffs[1:].tolist()
    if symbols:
        freqs: dict[int, int] = {}
        for s in symbols:
            freqs[s] = freqs.get(s, 0) + 1
        codebook = build_codebook(freqs)
        stream, ends = encode_sequence(codebook, symbols)
    else:
        codebook = None
        stream = BitStream(b"", 0)
        ends = []
    checkpoints = _checkpoints_from_arrays(diffs, jump_idx, jumps, stride)
    for c in checkpoints.cell:
        byte, bit = ends[c - 1] if c else (0, 0)
        checkpoints.bit.append(8 * byte + bit)
    return DhcHeader(
        diff_bits,
        entry_width,
        stride,
        diffs.size,
        _u64(jumps),
        codebook,
        stream,
        checkpoints=checkpoints,
    )


def lookup_dhc(header: DhcHeader, position: int) -> int | None:
    return header.lookup(position)
