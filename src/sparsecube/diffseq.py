"""Difference-coded headers: DSC (packed gaps) and DHC (Huffman-coded gaps).

Both store the full jump sequence (absolute positions restarting the running
sum wherever a gap overflows the difference width) next to the per-cell
difference sequence.  The first difference is zero by definition and is
carried by the first jump.  `difference_arrays` splits a position sequence
into differences and jumps for both builders.

The two share one core, `DifferenceHeader`: the fields, the envelope and
jumps of the file, the checkpoint table, `positions()` and the base of
`memory_bytes()`.  Each scheme adds its payload, how it reads every
difference back (`_arrays`) and its own `lookup` loop.

Point queries find a start in a two-level checkpoint table, then scan
differences forward from it, switching to the next jump whenever a zero
difference comes up.  The coarse level holds full entries at every
COARSE_CELLS-th cell.  The fine level has an entry at every coarse entry,
every FINE_CELLS-th cell and every `stride`-th jump, held as deltas from its
coarse entry (the sampled pointers of two-level rank directories).  Each
class sets its own FINE_CELLS, 16 for DSC and 32 for DHC (the comment on
COARSE_CELLS says why).  Every column takes the narrowest typecode that
holds its largest value in the store.  A lookup bisects the coarse
positions, then the fine deltas of that block, and decodes fewer than
FINE_CELLS differences however rarely a gap overflows.  The table is never
serialized: a build fills it from the arrays it already holds, and a load
rebuilds it in one numpy pass over the stored differences (DHC decodes its
whole stream with `huffman.decode_stream` for that).  Every cell's position
comes from one `cumsum`; a load rejects positions that do not strictly
increase, which is how a run past 2**64 - 1 shows.  A load rejects a
`diff_bits` outside 1..MAX_DIFF_BITS, and DHC a codebook symbol wider.

Every header holds what a lookup relies on: difference data as long as the
count, whole codes with no trailing octet, and as many zero differences as
jumps.  A build has them by construction; made from fields or from a file,
a header gets them checked by that decode.  `checkpoints` is no constructor
argument, so no caller skips it; the builders, which hold the arrays
already, go through the private `_built`.  Nothing changes a header once
made, so the scans check none of it again.

A DSC lookup unpacks its window in one `struct` call at 8, 16 and 32 bits,
and elsewhere masks and shifts each difference off one integer.  A DHC
lookup reads its window, from its entry's stream bit to the next entry's
(or the stream's bit length), as one integer, and reads each code's slot of
the 11-bit table at a falling bit offset; the window is masked only before
a longer code, which is matched against each longer length's canonical
range.  The table's all-zero slot goes the same way, and there the lookup
steps over a whole run of the all-zero code at once: the window's leading
zeros, counted by `int.bit_length()`, give the run's length, and a run of a
positive gap d0 is resolved by arithmetic, a run of jumps by one `bisect`.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import CorruptStreamError, FormatError
from .headers import (
    _check_positions,
    check_payload_end,
    held,
    held_bytes,
    narrow,
    pack_ints,
    read_envelope,
    unpack_ints,
    write_envelope,
)
from .huffman import BitStream, CodeBook, build_codebook, decode_stream, encode_sequence

# Cells between two coarse checkpoints.  The most cells between two fine
# ones is each header class's FINE_CELLS: a denser table makes a lookup
# decode fewer differences and holds more octets per cell.  DSC's 16 holds
# 0.34 octets per cell on dense relations and 0.67 where a gap overflows
# every few cells.  DHC's 32 holds 0.24-0.31 and 0.67; at 16, c08's DHC
# memory overhead would be 7.3%, over its 5% bound.
COARSE_CELLS = 512
# The widest difference a header stores: DSC packs and reads each one
# through a 32-bit word.
MAX_DIFF_BITS = 32


def difference_arrays(
    positions: Sequence[int], diff_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a strictly increasing sequence into the positions, their
    differences and the cells of the zero differences.

    diffs[i] is the gap to the previous position when it fits diff_bits bits,
    else 0; diffs[0] is always 0.  The positions at the zeros are the jumps.
    """
    arr = _check_positions(positions)
    max_diff = np.uint64((1 << diff_bits) - 1)
    deltas = np.diff(arr)
    over = deltas > max_diff
    diffs = np.zeros(arr.size, dtype=np.uint64)
    diffs[1:] = np.where(over, np.uint64(0), deltas)
    jump_idx = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.flatnonzero(over) + 1]
    )
    return arr, diffs, jump_idx


def pack_diffs(values: Sequence[int], diff_bits: int) -> bytes:
    """Pack diff_bits-wide unsigned values into little-endian bit groups."""
    if diff_bits % 8 == 0:
        return pack_ints(values, diff_bits // 8)
    octets = np.asarray(values, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    return np.packbits(bits[:, :diff_bits], bitorder="little").tobytes()


def packed_size(count: int, diff_bits: int) -> int:
    return (diff_bits * count + 7) // 8


def _diff_array(data: bytes, diff_bits: int, count: int) -> np.ndarray:
    """The first `count` packed differences as a uint64 array."""
    if diff_bits % 8 == 0:
        return unpack_ints(data, diff_bits // 8, count)
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=count * diff_bits, bitorder="little"
    ).reshape(count, diff_bits)
    wide = np.zeros((count, 32), dtype=np.uint8)
    wide[:, :diff_bits] = bits
    words = np.packbits(wide, axis=1, bitorder="little").view("<u4")
    return words.ravel().astype(np.uint64)


def _diff_window(data: bytes, diff_bits: int, first: int, stop: int) -> Sequence[int]:
    """The packed differences first .. stop-1 at 8, 16 or 32 bits, in one call."""
    if diff_bits == 8:
        return data[first:stop]
    code = "H" if diff_bits == 16 else "I"
    return struct.unpack_from(f"<{stop - first}{code}", data, first * diff_bits // 8)


@dataclass
class Checkpoints:
    """Where a scan may start: full coarse entries, and fine entries held as
    deltas from the coarse entry of their block.

    Coarse entry j: cell `cell[j]` sits at absolute position `pos[j]` in the
    run of jump `jump[j]`.  For DHC, `bit[j]` is the stream bit offset right
    after that cell's code, so a decoder started there yields the next
    difference; DSC leaves `bit` and `fine_bit` empty.  Its block holds fine
    entries `first[j]` .. `first[j+1] - 1`, the first of which is the coarse
    entry itself; fine entry e stands for cell `cell[j] + fine_cell[e]` at
    `pos[j] + fine_pos[e]`, and so on for the jump and the bit.  `cell` and
    `first` close with one entry more: the cell count and the fine entry
    count.  Every column has the narrowest typecode that holds its largest
    value in this store.
    """

    pos: array
    cell: array
    jump: array
    bit: array
    first: array
    fine_pos: array
    fine_cell: array
    fine_jump: array
    fine_bit: array

    def memory_bytes(self) -> int:
        return held_bytes(*(getattr(self, f.name) for f in fields(self)))

    def find(self, position: int) -> tuple[int, int, int, int, int, int | None] | None:
        """The cell, position, jump index and bit offset of the last entry at
        or before `position`, then the cell and bit offset of the entry after
        it; past the last entry, the cell count and None.  None before the
        first cell.  DSC, with no bits, gets 0 and None."""
        j = bisect_right(self.pos, position) - 1
        if j < 0:
            return None
        base = self.pos[j]
        cell = self.cell[j]
        hi = self.first[j + 1]
        e = bisect_right(self.fine_pos, position - base, self.first[j], hi) - 1
        bits = self.bit
        if e + 1 < hi:
            limit = cell + self.fine_cell[e + 1]
            stop = bits[j] + self.fine_bit[e + 1] if bits else None
        else:
            limit = self.cell[j + 1]
            stop = bits[j + 1] if j + 1 < len(bits) else None
        return (
            cell + self.fine_cell[e],
            base + self.fine_pos[e],
            self.jump[j] + self.fine_jump[e],
            bits[j] + self.fine_bit[e] if bits else 0,
            limit,
            stop,
        )


def _positions(diffs: np.ndarray, jump_idx: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """The absolute position of every cell.

    Raises CorruptStreamError unless the positions strictly increase: a jump
    must pass the run before it, and a run that passes 2**64 - 1 wraps to a
    smaller position.
    """
    run = np.cumsum(diffs == 0) - 1
    total = np.cumsum(diffs, dtype=np.uint64)
    pos = jumps[run] + (total - total[jump_idx][run])
    if not (pos[1:] > pos[:-1]).all():
        raise CorruptStreamError(
            "positions do not increase: a jump falls behind its run or a run passes 2**64 - 1"
        )
    return pos


def _checkpoints(
    pos: np.ndarray,
    jump_idx: np.ndarray,
    fine: int,
    stride: int,
    ends: np.ndarray | None = None,
) -> Checkpoints:
    """The checkpoint table from every cell's position (and DHC code end).

    Coarse entries sit at every COARSE_CELLS-th cell.  Fine entries sit at
    every coarse entry, every `fine`-th cell and every stride-th jump.
    """
    n = pos.size
    coarse = np.arange(0, n, COARSE_CELLS, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    mark[::fine] = mark[::COARSE_CELLS] = True
    mark[jump_idx[::stride]] = True
    cells = np.flatnonzero(mark)
    first = np.searchsorted(cells, coarse)
    # The fine index of each fine entry's coarse entry.
    base = first[np.searchsorted(coarse, cells, side="right") - 1]

    def split(col: np.ndarray) -> tuple[array, array]:
        """The coarse column and the fine deltas of one value per fine entry."""
        return narrow(col[first]), narrow(col - col[base])

    at, fine_pos = split(pos[cells])
    run, fine_jump = split(np.searchsorted(jump_idx, cells, side="right") - 1)
    bit, fine_bit = split(ends[cells]) if ends is not None else (array("B"), array("B"))
    return Checkpoints(
        pos=at,
        cell=narrow(np.append(coarse, n)),
        jump=run,
        bit=bit,
        first=narrow(np.append(first, cells.size)),
        fine_pos=fine_pos,
        fine_cell=narrow(cells - cells[base]),
        fine_jump=fine_jump,
        fine_bit=fine_bit,
    )


def _jump_indices(diffs: np.ndarray, n_jumps: int) -> np.ndarray:
    zero_idx = np.flatnonzero(diffs == 0)
    if zero_idx.size != n_jumps:
        raise CorruptStreamError(f"{zero_idx.size} zero differences but {n_jumps} jumps")
    if zero_idx.size and zero_idx[0] != 0:
        raise CorruptStreamError("first difference is not zero")
    return zero_idx


@dataclass
class DifferenceHeader:
    """What DSC and DHC share: the parameters, the jumps and the checkpoints.

    A subclass sets `MAGIC` and `FINE_CELLS`, the most cells between two
    fine checkpoints, and defines `size_bytes`, `lookup` and `_arrays`,
    which returns the differences, the cells of their zeros, the jumps and,
    for DHC, the stream bit offset after each cell's code, as numpy arrays.
    """

    diff_bits: int
    entry_width: int
    stride: int
    count: int
    jumps: array
    checkpoints: Checkpoints = field(init=False, repr=False)

    def __post_init__(self):
        diffs, jump_idx, jumps, ends = self._arrays()
        pos = _positions(diffs, jump_idx, jumps)
        self.checkpoints = _checkpoints(pos, jump_idx, self.FINE_CELLS, self.stride, ends)

    @classmethod
    def _built(cls, pos: np.ndarray, jump_idx: np.ndarray, ends: np.ndarray | None, *values):
        """The header with these field values, its table made from the
        positions, zero cells and code ends its builder already holds."""
        self = object.__new__(cls)
        for f, value in zip([f for f in fields(cls) if f.init], values):
            setattr(self, f.name, value)
        self.checkpoints = _checkpoints(pos, jump_idx, cls.FINE_CELLS, self.stride, ends)
        return self

    def memory_bytes(self) -> int:
        return self.size_bytes() + self.checkpoints.memory_bytes()

    def positions(self) -> np.ndarray:
        return _positions(*self._arrays()[:3])

    def _head(self, *extra: int) -> bytes:
        """The envelope, with `extra` after the shared parameters, then the jumps."""
        return write_envelope(
            self.MAGIC,
            self.entry_width,
            self.diff_bits,
            self.stride,
            self.count,
            len(self.jumps),
            *extra,
        ) + pack_ints(self.jumps, self.entry_width)

    @classmethod
    def _read_head(cls, data: bytes, n_extra: int = 0) -> tuple[tuple, list[int], int]:
        """The shared constructor arguments, the `n_extra` parameters after
        them and the offset of the payload after the jumps."""
        params, off = read_envelope(data, cls.MAGIC, 5 + n_extra)
        entry_width, diff_bits, stride, count, n_jumps = params[:5]
        if not 1 <= diff_bits <= MAX_DIFF_BITS:
            raise FormatError(f"diff_bits {diff_bits} is not in 1..{MAX_DIFF_BITS}")
        if stride < 1:
            raise FormatError("checkpoint stride must be positive")
        jumps = held(unpack_ints(data, entry_width, n_jumps, off))
        off += entry_width * n_jumps
        return (diff_bits, entry_width, stride, count, jumps), params[5:], off


@dataclass
class DscHeader(DifferenceHeader):
    """Packed difference sequence plus jump sequence."""

    MAGIC = b"DSCH"
    FINE_CELLS = 16

    diff_data: bytes

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, None]:
        if len(self.diff_data) < packed_size(self.count, self.diff_bits):
            raise CorruptStreamError("difference data shorter than declared count")
        diffs = _diff_array(self.diff_data, self.diff_bits, self.count)
        jump_idx = _jump_indices(diffs, len(self.jumps))
        return diffs, jump_idx, np.frombuffer(self.jumps, dtype=np.uint64), None

    def size_bytes(self) -> int:
        return packed_size(self.count, self.diff_bits) + self.entry_width * len(
            self.jumps
        )

    def lookup(self, position: int) -> int | None:
        start = self.checkpoints.find(position)
        if start is None:
            return None
        i, cur, k, _, limit, _ = start
        if cur == position:
            return i
        jumps = self.jumps
        bits = self.diff_bits
        if bits in (8, 16, 32):
            for i, d in zip(range(i + 1, limit), _diff_window(self.diff_data, bits, i + 1, limit)):
                if d == 0:
                    k += 1
                    cur = jumps[k]
                else:
                    cur += d
                if cur >= position:
                    return i if cur == position else None
            return None
        # The window's octets as one integer: each turn masks the next
        # difference off its low end, then shifts it away.
        at, mask = (i + 1) * bits, (1 << bits) - 1
        window = int.from_bytes(self.diff_data[at >> 3 : (limit * bits + 7) >> 3], "little")
        window >>= at & 7
        for i in range(i + 1, limit):
            d = window & mask
            window >>= bits
            if d == 0:
                k += 1
                cur = jumps[k]
            else:
                cur += d
            if cur >= position:
                return i if cur == position else None
        return None

    def to_bytes(self) -> bytes:
        return self._head() + self.diff_data

    @classmethod
    def from_bytes(cls, data: bytes) -> "DscHeader":
        fields, _, off = cls._read_head(data)
        diff_bits, _, _, count, _ = fields
        end = off + packed_size(count, diff_bits)
        check_payload_end(data, end)
        return cls(*fields, data[off:end])


def build_dsc(
    positions: Sequence[int],
    diff_bits: int = 16,
    entry_width: int = 8,
    stride: int = 16,
) -> DscHeader:
    arr, diffs, jump_idx = difference_arrays(positions, diff_bits)
    return DscHeader._built(
        arr,
        jump_idx,
        None,
        diff_bits,
        entry_width,
        stride,
        diffs.size,
        held(arr[jump_idx]),
        pack_diffs(diffs, diff_bits),
    )


def _long_code(cb: CodeBook, window: int, fill: int) -> tuple[int, int] | None:
    """(symbol, length) of the code longer than the lookup table that starts
    `fill` bits above the low end of `window`, or None where the all-zero
    code starts there, a run of which the lookup steps over.

    Each longer length's canonical range is tried; the header's whole-stream
    decode proved that one of them holds the code.  It is kept out of
    `DhcHeader.lookup` so that the loop there, which runs once per decoded
    code, holds only what the table path needs.
    """
    w, _, ln0, _ = cb._lut
    head = window & ((1 << fill) - 1)
    if not head >> (fill - ln0):
        return None
    for ln in range(w + 1, cb.max_len + 1):
        c = (head >> (fill - ln)) - cb.first[ln]
        if 0 <= c < cb.count[ln]:
            return cb.symbols[cb.offset[ln] + c], ln


@dataclass
class DhcHeader(DifferenceHeader):
    """Jump sequence plus the Huffman code of the difference sequence.

    The stream encodes diffs 1..count-1 (the leading zero is implied by the
    first jump).  The checkpoint table carries, per entry, the stream bit
    offset right after that cell's code.  The envelope adds the stream's bit
    length to the shared parameters.
    """

    MAGIC = b"DHCH"
    FINE_CELLS = 32

    codebook: CodeBook | None
    stream: BitStream

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if not self.jumps:
            raise CorruptStreamError("empty jump sequence")
        diffs = np.zeros(min(self.count, 1), dtype=np.uint64)
        ends = np.zeros(diffs.size, dtype=np.int64)
        if self.count > 1:
            if self.codebook is None:
                raise CorruptStreamError("missing codebook for a multi-cell stream")
            symbols, code_ends = decode_stream(self.codebook, self.stream, self.count - 1)
            if self.stream.bit_length - code_ends[-1] >= 8:
                raise CorruptStreamError("trailing data after final code")
            diffs = np.concatenate((diffs, symbols))
            ends = np.concatenate((ends, code_ends))
        jump_idx = _jump_indices(diffs, len(self.jumps))
        return diffs, jump_idx, np.frombuffer(self.jumps, dtype=np.uint64), ends

    def size_bytes(self) -> int:
        # The jumps, the codebook, and the stream's octets plus its stored
        # bit length.
        codebook = self.codebook.size_bytes() if self.codebook is not None else 0
        return self.entry_width * len(self.jumps) + codebook + 8 + len(self.stream.data)

    def memory_bytes(self) -> int:
        tables = self.codebook.decode_table_bytes() if self.codebook is not None else 0
        return super().memory_bytes() + tables

    def lookup(self, position: int) -> int | None:
        start = self.checkpoints.find(position)
        if start is None:
            return None
        idx, cur, k, pos, limit, stop = start
        if cur == position:
            return idx
        if idx + 1 >= limit:
            return None
        if stop is None:
            stop = self.stream.bit_length
        jumps = self.jumps
        # Inlined table-driven decode: scans dominate point-query cost.
        cb = self.codebook
        w, lut, ln0, d0 = cb._lut
        wmask = (1 << w) - 1
        # The window: the octets that hold stream bits `pos` to `stop` (the
        # next entry's code end, or the stream's), as one integer, MSB first,
        # with w zero bits after them so that a table read at the last code
        # stays inside.  The next code starts `fill` bits above its low end.
        window = int.from_bytes(self.stream.data[pos >> 3 : (stop + 7) >> 3], "big") << w
        fill = ((stop + 7) & ~7) - pos + w
        # The inner loop decodes one code per turn and leaves by `break` at a
        # run of the all-zero code, which the outer loop steps over at once.
        # Kept outside, the run step adds no long jumps to the inner loop.
        while True:
            while idx + 1 < limit:
                entry = lut[(window >> (fill - w)) & wmask]
                if entry is None:
                    entry = _long_code(cb, window, fill)
                    if entry is None:
                        break
                d, ln = entry
                fill -= ln
                idx += 1
                if d == 0:
                    k += 1
                    cur = jumps[k]
                else:
                    cur += d
                if cur >= position:
                    return idx if cur == position else None
            else:
                return None
            # As many all-zero codes as the window's next zero bits hold, up
            # to the window's last cell.
            run = min((fill - (window & ((1 << fill) - 1)).bit_length()) // ln0, limit - idx - 1)
            if d0:
                if cur + run * d0 >= position:
                    step, off = divmod(position - cur, d0)
                    return None if off else idx + step
                cur += run * d0
            else:
                if jumps[k + run] >= position:
                    j = bisect_left(jumps, position, k + 1, k + run + 1)
                    return idx + j - k if jumps[j] == position else None
                k += run
                cur = jumps[k]
            idx += run
            fill -= run * ln0

    def to_bytes(self) -> bytes:
        cb = self.codebook.to_bytes() if self.codebook is not None else struct.pack("<Q", 0)
        return self._head(self.stream.bit_length) + cb + self.stream.data

    @classmethod
    def from_bytes(cls, data: bytes) -> "DhcHeader":
        fields, (bit_length,), off = cls._read_head(data, 1)
        if len(data) < off + 8:
            raise FormatError("truncated codebook")
        (n_syms,) = struct.unpack_from("<Q", data, off)
        if n_syms == 0:
            codebook = None
            off += 8
        else:
            codebook, off = CodeBook.from_bytes(data, off)
            widest = max(codebook.symbols)
            if widest >> fields[0]:
                raise FormatError(f"codebook symbol {widest} does not fit diff_bits {fields[0]}")
        nbytes = (bit_length + 7) // 8
        raw = data[off : off + nbytes]
        if len(raw) < nbytes:
            raise CorruptStreamError("truncated code stream")
        check_payload_end(data, off + nbytes)
        return cls(*fields, codebook, BitStream(raw, bit_length))


def build_dhc(
    positions: Sequence[int],
    diff_bits: int = 16,
    entry_width: int = 8,
    stride: int = 16,
) -> DhcHeader:
    arr, diffs, jump_idx = difference_arrays(positions, diff_bits)
    ends = np.zeros(diffs.size, dtype=np.int64)
    if diffs.size > 1:
        symbols, freqs = np.unique(diffs[1:], return_counts=True)
        codebook = build_codebook(dict(zip(symbols.tolist(), freqs.tolist())))
        stream, ends[1:] = encode_sequence(codebook, diffs[1:])
    else:
        codebook = None
        stream = BitStream(b"", 0)
    return DhcHeader._built(
        arr,
        jump_idx,
        ends,
        diff_bits,
        entry_width,
        stride,
        diffs.size,
        held(arr[jump_idx]),
        codebook,
        stream,
    )
