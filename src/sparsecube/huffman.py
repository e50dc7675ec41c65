"""Canonical prefix coding over unsigned integer symbols.

Codes are optimal (Huffman lengths) and assigned canonically by
(length, symbol), so a codebook is fully described by its symbols in that
order and the number of codes of each length.  `CodeBook` holds just that,
as the per-length canonical ranges (first code, count, offset into the
symbols) beside one compact array of the symbols; a symbol's length and
code are derived when needed.  Bits are MSB-first within octets; the final
partial octet is zero-padded.  A stream position is a plain bit offset: 0
is the very start, and the offset right after one code is where the next
one starts.

A single-symbol alphabet gets a deliberate 1-bit code: a zero-bit code would
never advance the stream.

No code is longer than MAX_CODE_BITS = 56 bits, so one 56-bit window holds
any code: a Huffman code that deep needs about 1.5e12 coded symbols, since
Fibonacci counts are the lightest that reach a given depth.  A codebook
with a longer length is rejected, and a load raises `FormatError`.

Whole streams are coded in numpy: `encode_sequence` gathers every code's bits
at once, and `decode_stream` reads the 56-bit window at every bit offset to
find the code there, then the offsets where codes really start.  A DHC
point query (`diffseq.DhcHeader.lookup`) decodes its few codes from a known
code end itself, with the table of `CodeBook._lut` and, past it, the
canonical ranges, which are all the whole-stream decode needs.  The first
code of the shortest length is all zeros (Moffat & Turpin 1997), so a run
of that code is a run of zero bits, which the lookup steps over at once.
"""

from __future__ import annotations

import heapq
import math
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import CorruptStreamError, FormatError

MAX_CODE_BITS = 56
_LUT_MAX_BITS = 11
# One stored codebook entry: the symbol, then its code length.
_ENTRY = np.dtype([("symbol", "<u8"), ("length", "u1")])


@dataclass(frozen=True)
class BitStream:
    data: bytes
    bit_length: int

    def __post_init__(self):
        if self.bit_length > 8 * len(self.data):
            raise ValueError("bit length exceeds buffer")


class CodeBook:
    """A canonical prefix code, held once as its canonical ranges.

    `symbols` is every symbol in canonical order (by code length, then by
    symbol) as an `array('Q')`.  `first`, `count` and `offset` are indexed
    by code length 0..max_len: the codes of length ln are the count[ln]
    integers from first[ln], and code first[ln] + i stands for
    symbols[offset[ln] + i].  That is all a canonical code is (Moffat &
    Turpin 1997), so nothing else is held per symbol: `lengths` is derived
    on each access, and so are the codes `encode_sequence` writes.  Only a
    point query adds to it, the short-prefix table `_lut`.
    """

    def __init__(self, lengths: Mapping[int, int]):
        if not lengths:
            raise ValueError("codebook needs at least one symbol")
        canonical = sorted((ln, sym) for sym, ln in lengths.items())
        for ln, sym in (canonical[0], canonical[-1]):  # the shortest and the longest
            if not 1 <= ln <= MAX_CODE_BITS:
                raise ValueError(f"code length for symbol {sym} must be 1..{MAX_CODE_BITS}")
        self.max_len = canonical[-1][0]
        self.symbols = array("Q", [sym for _, sym in canonical])
        self.count = [0] * (self.max_len + 1)
        for ln, _ in canonical:
            self.count[ln] += 1
        self.first = [0] * (self.max_len + 1)
        self.offset = [0] * (self.max_len + 1)
        code = pos = 0
        for ln in range(1, self.max_len + 1):
            code <<= 1
            self.first[ln] = code
            self.offset[ln] = pos
            code += self.count[ln]
            pos += self.count[ln]
        # Past the Kraft sum, the codes of some length overrun its range, and
        # the overrun carries down to the longest length.
        if code > 1 << self.max_len:
            raise ValueError("code lengths violate the Kraft inequality")

    def _canonical_lengths(self) -> np.ndarray:
        """The code length of each entry of `symbols`."""
        return np.repeat(np.arange(self.max_len + 1), self.count)

    @property
    def lengths(self) -> dict[int, int]:
        """Each symbol's code length, derived from the canonical ranges."""
        return dict(zip(self.symbols, self._canonical_lengths().tolist()))

    @cached_property
    def _lut(self):
        """The short-prefix table of a point query's decode: its width w and,
        per w-bit prefix, the (symbol, length) of the code it starts with,
        or None for a longer code; then the length ln0 and symbol d0 of the
        all-zero code.  Built on the first lookup.  Left-justified to w bits,
        the codes of at most w bits tile the table from 0 in canonical order,
        and every slot of one code holds the same tuple.  The first code of
        the shortest length is all zeros, so slot 0, w zero bits, starts a
        run of it (or a code longer than w): it holds None, and the lookup
        steps over the whole run there."""
        w = min(self.max_len, _LUT_MAX_BITS)
        lut: list[tuple[int, int] | None] = [None] * (1 << w)
        at = 0
        for ln in range(1, w + 1):
            span = 1 << (w - ln)
            for sym in self.symbols[self.offset[ln] : self.offset[ln] + self.count[ln]]:
                lut[at : at + span] = [(sym, ln)] * span
                at += span
        lut[0] = None
        ln0 = next(ln for ln, n in enumerate(self.count) if n)
        return w, lut, ln0, self.symbols[0]

    def decode_table_bytes(self) -> int:
        # Memory-model size of the resident decode structures (canonical
        # per-length tables), analogous to a decoding tree.
        return 8 * len(self.symbols) + 16 * self.max_len

    def size_bytes(self) -> int:
        # Serialized: symbol count (8) + per symbol (symbol 8, length 1).
        return 8 + 9 * len(self.symbols)

    def to_bytes(self) -> bytes:
        entries = np.empty(len(self.symbols), dtype=_ENTRY)
        entries["symbol"] = self.symbols
        entries["length"] = self._canonical_lengths()
        by_symbol = entries[np.argsort(entries["symbol"])]
        return struct.pack("<Q", len(entries)) + by_symbol.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["CodeBook", int]:
        if len(data) < offset + 8:
            raise FormatError("truncated codebook")
        (n,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        if len(data) < offset + 9 * n:
            raise FormatError("truncated codebook entries")
        entries = np.frombuffer(data, dtype=_ENTRY, count=n, offset=offset)
        symbols = entries["symbol"]
        if (symbols[1:] <= symbols[:-1]).any():
            raise FormatError("codebook symbols do not strictly increase")
        try:
            return cls(dict(zip(symbols.tolist(), entries["length"].tolist()))), offset + 9 * n
        except ValueError as exc:  # a length outside 1..56 or past the Kraft sum
            raise FormatError(f"bad codebook: {exc}") from exc


def build_codebook(freqs: Mapping[int, int]) -> CodeBook:
    """Optimal prefix codebook for the given symbol frequencies."""
    if not freqs:
        raise ValueError("frequency map is empty")
    for sym, n in freqs.items():
        if n <= 0:
            raise ValueError(f"frequency of symbol {sym} must be positive")
    symbols = sorted(freqs)
    if len(symbols) == 1:
        return CodeBook({symbols[0]: 1})
    # Ties merge lowest (weight, smallest contained symbol) first so files
    # are reproducible across runs.
    heap = [(freqs[s], s, i) for i, s in enumerate(symbols)]
    heapq.heapify(heap)
    parent: list[int] = [-1] * len(symbols)
    next_id = len(symbols)
    while len(heap) > 1:
        w1, m1, i1 = heapq.heappop(heap)
        w2, m2, i2 = heapq.heappop(heap)
        parent[i1] = next_id
        parent[i2] = next_id
        parent.append(-1)
        heapq.heappush(heap, (w1 + w2, min(m1, m2), next_id))
        next_id += 1
    # A parent is made after its children, so one pass from the root down
    # gives every node's depth.
    depth = [0] * next_id
    for node in range(next_id - 2, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = dict(zip(symbols, depth))
    return CodeBook(lengths)


def encode_sequence(
    cb: CodeBook, symbols: Sequence[int] | np.ndarray
) -> tuple[BitStream, np.ndarray]:
    """Concatenate codes MSB-first, in numpy.

    Returns the stream and, per symbol, the bit offset right after its code,
    which is where the following symbol's code starts.
    """
    canonical = np.frombuffer(cb.symbols, dtype=np.uint64)
    by_symbol = np.argsort(canonical)
    seq = np.asarray(symbols, dtype=np.uint64)
    row = by_symbol[np.minimum(np.searchsorted(canonical[by_symbol], seq), len(by_symbol) - 1)]
    missing = canonical[row] != seq
    if missing.any():
        raise ValueError(f"symbol {int(seq[missing.argmax()])} not in codebook")
    # One row of left-justified code bits per symbol, in canonical order.
    width = cb._canonical_lengths()
    code = np.array(cb.first)[width] + np.arange(width.size) - np.array(cb.offset)[width]
    left = (code.astype(np.uint64) << (64 - width).astype(np.uint64)).astype(">u8")
    nbytes = (cb.max_len + 7) // 8
    code_bits = np.unpackbits(left.view(np.uint8).reshape(-1, 8)[:, :nbytes])
    lengths = width[row]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    bit_index = np.repeat(row * (8 * nbytes) - (ends - lengths), lengths) + np.arange(total)
    return BitStream(np.packbits(code_bits[bit_index]).tobytes(), total), ends


def _windows(data: bytes, n: int) -> np.ndarray:
    """win[k] is the 56 stream bits ending at bit k, for k in [0, n).

    One unaligned 64-bit read shifted left by up to 7 bits still holds 57
    valid bits.  Bits before the stream and past its data read as zero.
    """
    n_words = (n + 7) >> 3
    padded = (bytes(7) + bytes(data[:n_words])).ljust(n_words + 7, b"\0")
    words = np.ndarray((n_words,), dtype=">u8", buffer=padded, strides=(1,))
    shifts = np.arange(8, dtype=np.uint64)
    return ((words.astype(np.uint64)[:, None] << shifts) >> np.uint64(8)).ravel()[:n]


def _code_lengths(cb: CodeBook, win: np.ndarray, n_bits: int, none: int) -> np.ndarray:
    """The length of the code at each bit offset, or `none` where no code matches.

    Left-justified to one 56-bit window, the codes of length ln end below
    (first[ln] + count[ln]) << (56 - ln), and these limits never decrease in
    ln.  So the code at an offset has length 1 + (limits <= its window), and
    none matches where that exceeds max_len.  A table over the first k <= 11
    bits settles every offset unless a limit has those k bits and more below;
    one `searchsorted` over the limits settles those few.
    """
    first, count, max_len = cb.first, cb.count, cb.max_len
    # The end of a complete code's space is never reached by a window.
    limits = [(first[ln] + count[ln]) << (MAX_CODE_BITS - ln) for ln in range(1, max_len + 1)]
    limits = [x for x in limits if x < 1 << MAX_CODE_BITS]
    k = min(max_len, _LUT_MAX_BITS)
    shift = MAX_CODE_BITS - k
    # Limits below the smallest and below the largest window of each prefix.
    prefixes = np.arange(1 << k)
    low = np.searchsorted(np.array([-(-x >> shift) for x in limits], dtype=np.int64),
                          prefixes, side="right")
    high = np.searchsorted(np.array([x >> shift for x in limits], dtype=np.int64),
                           prefixes, side="right")
    window = win[MAX_CODE_BITS : MAX_CODE_BITS + n_bits]
    head = (window >> np.uint64(shift)).view(np.int64)
    length = np.take(np.where(low < max_len, low + 1, none), head)
    ambiguous = low != high
    if not ambiguous.any():
        return length
    cand = np.flatnonzero(ambiguous[head])
    below = np.searchsorted(np.array(limits, dtype=np.uint64), window[cand], side="right")
    length[cand] = np.where(below < max_len, below + 1, none)
    return length


def _walk(nxt: np.ndarray, pos: np.ndarray, stop: np.ndarray, seen=None, until=None):
    """Move walkers along nxt until each reaches its stop or a position in `until`.

    Returns where they ended, and marks in `seen` every position they left.
    """
    shape = np.broadcast_shapes(pos.shape, stop.shape)
    end = np.broadcast_to(pos, shape).ravel().copy()
    stop = np.broadcast_to(stop, shape).ravel()
    idx = np.arange(end.size)
    cur = end
    while idx.size:
        live = cur < stop
        if until is not None:
            live &= ~until[cur]
        if not live.all():
            end[idx[~live]] = cur[~live]
            idx, cur, stop = idx[live], cur[live], stop[live]
        if seen is not None:
            seen[cur] = True
        cur = nxt[cur]
    return end.reshape(shape)


def _code_starts(nxt: np.ndarray, n_bits: int, max_len: int, count: int) -> np.ndarray:
    """Bit offsets of the first `count` codes, following nxt from offset 0.

    nxt[i] is the offset after the code at i for i < n_bits, where n_bits + 1
    marks no whole code; both n_bits and n_bits + 1 lead to themselves.  One
    walker per chunk of the stream walks, in lockstep with the others, the
    codes from the chunk's first offset.  The real path enters a chunk at one
    of its first max_len offsets and, prefix codes being self-synchronising,
    soon lands on that chunk path and follows it (Weissenberger & Schmidt
    2018).  So each possible entry is walked only until it joins the chunk
    path or leaves the chunk, and the chunks are chained from offset 0.  The
    starts are the real entries' walks plus the chunk paths from where those
    joined.  The chunk grows with the square root of the stream, which
    balances the lockstep steps against the chained chunks.
    """
    chunk = max(max_len, math.isqrt(n_bits))
    n_chunks = -(-n_bits // chunk)
    head = np.arange(n_chunks, dtype=np.int64) * chunk
    stop = np.minimum(head + chunk, n_bits)
    on_path = np.zeros(n_bits + 2, dtype=bool)
    path_exit = _walk(nxt, head, stop, on_path)
    entries = np.minimum(head[:, None] + np.arange(max_len), n_bits)
    joined = _walk(nxt, entries, stop[:, None], until=on_path)
    exits = np.where(joined < stop[:, None], path_exit[:, None], joined).tolist()
    at, entered = 0, []
    while at < n_bits:
        entered.append(at)
        c = at // chunk
        at = exits[c][at - c * chunk]
    entered = np.array(entered, dtype=np.int64)
    seen = np.zeros(n_bits + 2, dtype=bool)
    join = stop.copy()  # the path of a chunk never entered is not real
    join[entered // chunk] = _walk(nxt, entered, stop[entered // chunk], seen, on_path)
    before_join = np.zeros(n_bits + 2, dtype=bool)
    _walk(nxt, head, np.minimum(join, stop), before_join)
    starts = np.flatnonzero((seen | (on_path & ~before_join))[:n_bits])
    if starts.size - (at > n_bits) < count:
        if at == n_bits:
            raise CorruptStreamError("stream ended before declared count")
        raise CorruptStreamError(f"no whole code at bit {starts[-1]}")
    return starts[:count]


def decode_stream(cb: CodeBook, stream: BitStream, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` symbols from bit 0, and the bit offset after each code.

    Raises `CorruptStreamError` when the first `count` codes are not whole
    codes within the stream's bit length.  The code length and symbol are
    found at every bit offset (Klein & Wiseman 2003), and a walk from offset 0
    picks the offsets where a code really starts.
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    max_len = cb.max_len
    n_bits = stream.bit_length
    win = _windows(stream.data, n_bits + MAX_CODE_BITS + 1)
    length = _code_lengths(cb, win, n_bits, n_bits + 1)
    nxt = np.arange(n_bits + 2)
    nxt[:n_bits] += length
    np.minimum(nxt, n_bits + 1, out=nxt)  # past the end: no whole code
    starts = _code_starts(nxt, n_bits, max_len, count)
    ln = length[starts]
    ends = starts + ln
    # The code's offset in its length class, from the 56 bits ending with it.
    masks = (np.uint64(1) << np.arange(max_len + 1, dtype=np.uint64)) - np.uint64(1)
    rank = np.array(cb.offset, dtype=np.int64)[ln] + (
        (win[ends] & masks[ln]) - np.array(cb.first, dtype=np.uint64)[ln]
    ).astype(np.int64)
    return np.frombuffer(cb.symbols, dtype=np.uint64)[rank], ends

