import math
import random
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sparsecube.errors import CorruptStreamError
from sparsecube.huffman import (
    _LUT_MAX_BITS,
    MAX_CODE_BITS,
    BitStream,
    CodeBook,
    build_codebook,
    decode_stream,
    encode_sequence,
)


def optimal_tree_cost(weights):
    """Brute force over every binary tree shape: minimal weighted path length.

    Independent of the heap construction under test.  cost(S) adds the total
    weight of S at each split, which equals sum(w_i * depth_i).
    """
    w = tuple(weights)

    @lru_cache(maxsize=None)
    def cost(mask):
        bits = [i for i in range(len(w)) if mask >> i & 1]
        if len(bits) == 1:
            return 0
        total = sum(w[i] for i in bits)
        best = None
        lowest = 1 << bits[0]
        rest = mask ^ lowest
        sub = rest
        while True:  # proper submasks of rest, paired with the lowest bit
            left = lowest | sub
            right = mask ^ left
            if right:
                c = cost(left) + cost(right)
                if best is None or c < best:
                    best = c
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return total + best

    return cost((1 << len(w)) - 1)


def canonical_codes(cb):
    """symbol -> (length, code), numbering codes from `cb.lengths` in
    (length, symbol) order: the reference for the codes `CodeBook` implies."""
    codes, code, prev = {}, 0, 0
    for ln, sym in sorted((ln, sym) for sym, ln in cb.lengths.items()):
        code <<= ln - prev
        codes[sym] = (ln, code)
        code, prev = code + 1, ln
    return codes


freq_maps = st.dictionaries(
    st.integers(0, 300), st.integers(1, 50), min_size=1, max_size=40
)


class TestCodebook:
    def test_two_symbols_one_bit(self):
        cb = build_codebook({7: 1, 9: 1})
        assert cb.lengths == {7: 1, 9: 1}
        assert canonical_codes(cb) == {7: (1, 0), 9: (1, 1)}
        assert encode_sequence(cb, [9, 7])[0].data == bytes([0b10000000])

    def test_three_symbols(self):
        # Oracle over all 3-leaf prefix trees gives lengths (2, 2, 1).
        assert optimal_tree_cost([1, 1, 2]) == 6
        cb = build_codebook({0: 1, 1: 1, 2: 2})
        assert cb.lengths == {0: 2, 1: 2, 2: 1}

    def test_single_symbol_gets_one_bit(self):
        cb = build_codebook({5: 5})
        assert cb.lengths == {5: 1}

    def test_empty_freqs_error(self):
        with pytest.raises(ValueError):
            build_codebook({})

    def test_nonpositive_count_error(self):
        with pytest.raises(ValueError):
            build_codebook({1: 0})

    @given(freq_maps)
    def test_kraft_equality(self, freqs):
        cb = build_codebook(freqs)
        if len(freqs) >= 2:
            assert sum(Fraction(1, 2**l) for l in cb.lengths.values()) == 1

    @given(freq_maps)
    def test_prefix_free(self, freqs):
        cb = build_codebook(freqs)
        codes = [(format(c, f"0{l}b")) for l, c in canonical_codes(cb).values()]
        for i, a in enumerate(codes):
            for b in codes[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a)

    @given(freq_maps)
    def test_expected_length_within_one_bit_of_entropy(self, freqs):
        # The 1-bit convention for a single-symbol alphabet sits outside the
        # classic bound, which assumes at least two symbols.
        if len(freqs) < 2:
            return
        cb = build_codebook(freqs)
        total = sum(freqs.values())
        entropy = -sum(
            n / total * math.log2(n / total) for n in freqs.values()
        )
        avg_len = sum(cb.lengths[s] * n for s, n in freqs.items()) / total
        assert entropy <= avg_len + 1e-9
        assert avg_len < entropy + 1

    def test_optimality_small_alphabets(self):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(2, 6)
            freqs = {s: rng.randint(1, 40) for s in rng.sample(range(100), k)}
            cb = build_codebook(freqs)
            got = sum(cb.lengths[s] * n for s, n in freqs.items())
            assert got == optimal_tree_cost(list(freqs.values()))

    def test_deterministic_construction(self):
        freqs = {3: 2, 1: 2, 7: 2, 5: 2}
        assert build_codebook(freqs).to_bytes() == build_codebook(freqs).to_bytes()

    def test_serialization_round_trip(self):
        cb = build_codebook({0: 3, 1: 1, 2: 1, 9: 7})
        data = cb.to_bytes()
        again, end = CodeBook.from_bytes(data)
        assert end == len(data) == cb.size_bytes()
        assert (again.symbols, again.lengths) == (cb.symbols, cb.lengths)

    @pytest.mark.parametrize("lengths", [
        {0: 1, 5: 1},  # acceptance criterion c08's two-symbol codebook
        {g: min(g, 15) for g in range(1, 17)},  # Fibonacci-deep: past the 11-bit table
        {g: 9 for g in range(300, 812)},  # every symbol past CPython's small integers
        {1: 2, **{g: 12 for g in range(2, 3074)}},  # one code fits the table
        # Every code of at most 11 bits has 11, so slot 0 held the all-zero
        # code's only slot.
        {**{g: 11 for g in range(2047)}, 5000: 12, 5001: 12},
    ], ids=["c08", "deep", "wide-symbols", "one-short-code", "zero-code-in-one-slot"])
    def test_decode_table_bytes_counts_the_lookup_table(self, lengths):
        # What a queried header holds: the canonical ranges, and the list
        # of `_lut` with each distinct tuple in it and its symbol's integer
        # where CPython makes one per value (past 256).
        cb = CodeBook(lengths)
        ranges = 8 * len(cb.symbols) + 16 * cb.max_len
        counted = cb.decode_table_bytes()
        _, lut, ln0, d0 = cb._lut
        tuples = {id(t): t for t in lut if t is not None}.values()
        held = sys.getsizeof(lut) - sys.getsizeof([]) + sum(
            sys.getsizeof(t) + (sys.getsizeof(t[0]) if t[0] > 256 else 0) for t in tuples
        )
        # The all-zero code's tuple is counted though slot 0 drops it, where
        # that slot was its only one.
        dropped = 56 + 28 * (d0 > 256) if ln0 == min(cb.max_len, _LUT_MAX_BITS) else 0
        assert counted == ranges + held + dropped


class TestEncode:
    def test_empty_sequence(self):
        cb = build_codebook({0: 1, 1: 1})
        stream, ends = encode_sequence(cb, [])
        assert stream.bit_length == 0
        assert stream.data == b""
        assert ends.tolist() == []

    def test_two_symbol_example(self):
        # Canonical assignment pins 0->bit 0, 1->bit 1, so "0101" packs
        # MSB-first into a single octet 0b0101_0000.
        cb = build_codebook({0: 1, 1: 1})
        stream, ends = encode_sequence(cb, [0, 1, 0, 1])
        assert stream.bit_length == 4
        assert stream.data == bytes([0b01010000])
        assert ends.tolist() == [1, 2, 3, 4]

    def test_unknown_symbol(self):
        cb = build_codebook({0: 1, 1: 1})
        with pytest.raises(ValueError):
            encode_sequence(cb, [2])

    def test_bit_count_matches_lengths(self):
        freqs = {0: 5, 1: 3, 2: 1}
        cb = build_codebook(freqs)
        seq = [0] * 5 + [1] * 3 + [2]
        stream, _ = encode_sequence(cb, seq)
        assert stream.bit_length == sum(cb.lengths[s] * n for s, n in freqs.items())


def decoded(cb, stream, count):
    """`decode_stream`'s symbols, checked against the scalar reference."""
    symbols, ends = decode_stream(cb, stream, count)
    assert (symbols.tolist(), ends.tolist()) == scalar_decode(cb, stream, count)
    return symbols.tolist()


class TestDecode:
    def test_stream_of_abab(self):
        cb = build_codebook({0: 1, 1: 1})
        stream, _ = encode_sequence(cb, [0, 1, 0, 1])
        assert decoded(cb, stream, 4) == [0, 1, 0, 1]
        for decode in (decode_stream, scalar_decode):
            with pytest.raises(CorruptStreamError):
                decode(cb, stream, 5)

    def test_init_at_anchor_returns_next_symbol(self):
        rng = random.Random(5)
        freqs = {s: rng.randint(1, 9) for s in range(17)}
        cb = build_codebook(freqs)
        seq = rng.choices(list(freqs), k=60)
        stream, ends = encode_sequence(cb, seq)
        assert decode_stream(cb, stream, len(seq))[1].tolist() == ends.tolist()
        for i, end in enumerate(ends[:-1].tolist()):
            assert scalar_decode(cb, stream, 1, end) == ([seq[i + 1]], [int(ends[i + 1])])

    def test_anchor_suffix_decoding(self):
        rng = random.Random(6)
        freqs = {s: rng.randint(1, 9) for s in range(30)}
        cb = build_codebook(freqs)
        seq = rng.choices(list(freqs), k=80)
        stream, ends = encode_sequence(cb, seq)
        for i in (0, 10, 41, 78):
            rest, _ = scalar_decode(cb, stream, len(seq) - 1 - i, int(ends[i]))
            assert rest == seq[i + 1 :]

    def test_init_past_stream_end(self):
        cb = build_codebook({0: 1, 1: 1})
        stream, _ = encode_sequence(cb, [0, 1])
        with pytest.raises(CorruptStreamError):
            scalar_decode(cb, stream, 1, 2)  # from exactly the end
        with pytest.raises(CorruptStreamError):
            decode_stream(cb, stream, 3)

    def test_truncated_mid_code_is_corruption(self):
        cb = build_codebook({0: 1, 1: 1, 2: 2, 3: 4})  # 3-bit codes exist
        stream, _ = encode_sequence(cb, [0])
        ln = cb.lengths[0]
        truncated = BitStream(stream.data, ln - 1)
        for decode in (decode_stream, scalar_decode):
            with pytest.raises(CorruptStreamError):
                decode(cb, truncated, 1)

    @given(st.data())
    def test_round_trip(self, data):
        freqs = data.draw(freq_maps)
        cb = build_codebook(freqs)
        seq = data.draw(st.lists(st.sampled_from(sorted(freqs)), max_size=200))
        stream, _ = encode_sequence(cb, seq)
        assert decoded(cb, stream, len(seq)) == seq

    def test_round_trip_large_alphabet(self):
        rng = random.Random(13)
        freqs = {s: rng.randint(1, 1000) for s in range(300)}
        cb = build_codebook(freqs)
        seq = rng.choices(range(300), k=5000)
        stream, _ = encode_sequence(cb, seq)
        assert decoded(cb, stream, len(seq)) == seq

    def test_single_symbol_stream(self):
        cb = build_codebook({4: 9})
        stream, _ = encode_sequence(cb, [4, 4, 4])
        assert decoded(cb, stream, 3) == [4, 4, 4]

    # 42 is the whole sequence.  The others end around a multiple of
    # decode_stream's 16-code hop, and one more code runs past the stream.
    @pytest.mark.parametrize("count", [42, 15, 16, 17, 33])
    def test_skewed_codebook_slow_path(self, count):
        # Fibonacci-like weights force code lengths past the lookup table.
        freqs = {i: fib for i, fib in enumerate([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377])}
        cb = build_codebook(freqs)
        assert cb.max_len > 11
        seq = (list(freqs) * 3)[:count]
        stream, _ = encode_sequence(cb, seq)
        assert decoded(cb, stream, len(seq)) == seq
        assert count + 1 <= stream.bit_length  # so the hop walk meets the end
        for decode in (decode_stream, scalar_decode):
            with pytest.raises(CorruptStreamError):
                decode(cb, stream, count + 1)

    def test_count_past_the_bits_raises_at_once(self):
        # Every code takes a bit, so 2**62 codes cannot fit in one octet;
        # the decode raises before it sizes anything by the count.
        cb = build_codebook({0: 1, 1: 1})
        with pytest.raises(CorruptStreamError, match="stream ended before declared count"):
            decode_stream(cb, BitStream(bytes([0b01010101]), 8), 2**62)


def scalar_encode(cb, symbols):
    """One code at a time through an integer accumulator: the reference for
    `encode_sequence`.  Returns the octets, the bit count and each code's end."""
    codes = canonical_codes(cb)
    out = bytearray()
    acc = acc_bits = total = 0
    ends = []
    for sym in symbols:
        ln, code = codes[sym]
        acc = (acc << ln) | code
        acc_bits += ln
        total += ln
        while acc_bits >= 8:
            acc_bits -= 8
            out.append((acc >> acc_bits) & 0xFF)
        acc &= (1 << acc_bits) - 1
        ends.append(total)
    if acc_bits:
        out.append((acc << (8 - acc_bits)) & 0xFF)
    return bytes(out), total, ends


def scalar_decode(cb, stream, count, start=0):
    """`count` codes from bit offset `start`, read one bit at a time and
    matched against `canonical_codes`: the reference for `decode_stream`.  Returns
    the symbols and each code's end; a code that runs past the stream's bit
    length, or bits that match no code, are corrupt."""
    symbol_of = {code: sym for sym, code in canonical_codes(cb).items()}  # (length, bits) -> symbol
    longest = max(cb.lengths.values())
    symbols, ends = [], []
    pos = start
    for _ in range(count):
        ln = code = 0
        while (ln, code) not in symbol_of:
            if ln == longest or pos >= stream.bit_length:
                raise CorruptStreamError(f"no whole code at bit {pos - ln}")
            code = code << 1 | stream.data[pos >> 3] >> (7 - (pos & 7)) & 1
            ln, pos = ln + 1, pos + 1
        symbols.append(symbol_of[ln, code])
        ends.append(pos)
    return symbols, ends


def outcome(decode, cb, stream, count):
    try:
        symbols, ends = decode(cb, stream, count)
    except CorruptStreamError:
        return "corrupt"
    return [int(s) for s in symbols], [int(e) for e in ends]


@st.composite
def chain_codes(draw):
    """Lengths 1, 2, .., m-1, m-1 (a complete code) up to 56 bits deep,
    some symbols possibly dropped (an incomplete code), on random symbols."""
    m = draw(st.integers(2, MAX_CODE_BITS + 1))
    lengths = list(range(1, m)) + [m - 1]
    keep = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    symbols = draw(st.lists(st.integers(0, 2**64 - 1), min_size=m, max_size=m, unique=True))
    chosen = {s: ln for s, ln, k in zip(symbols, lengths, keep) if k} or {symbols[0]: 1}
    return CodeBook(chosen)


codebooks = st.one_of(
    freq_maps.map(build_codebook),
    st.integers(0, 2**64 - 1).map(lambda s: build_codebook({s: 3})),
    chain_codes(),
)


class TestWholeStream:
    @given(codebooks, st.data())
    @settings(max_examples=400)
    def test_matches_scalar_coder(self, cb, data):
        alphabet = sorted(cb.lengths)
        seq = data.draw(st.lists(st.sampled_from(alphabet), max_size=150))
        stream, ends = encode_sequence(cb, seq)
        octets, bits, scalar_ends = scalar_encode(cb, seq)
        assert (stream.data, stream.bit_length, ends.tolist()) == (octets, bits, scalar_ends)
        assert outcome(decode_stream, cb, stream, len(seq)) == (seq, scalar_ends)
        # Damaged streams: asking for more symbols, cutting the stream short
        # and flipping bits give what the scalar decoder gives, or its error.
        count = data.draw(st.integers(0, len(seq) + 3))
        cut = data.draw(st.integers(0, bits))
        flipped = bytearray(octets)
        for bit in data.draw(st.lists(st.integers(0, max(8 * len(octets) - 1, 0)), max_size=3)):
            if flipped:
                flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        for damaged in (stream, BitStream(octets, cut), BitStream(bytes(flipped), bits)):
            assert outcome(decode_stream, cb, damaged, count) == outcome(
                scalar_decode, cb, damaged, count
            )

    def test_codes_past_the_lookup_table(self):
        rng = random.Random(21)
        for depth in (_LUT_MAX_BITS + 4, 56, MAX_CODE_BITS + 1):
            cb = CodeBook({s: min(s + 1, depth - 1) for s in range(depth)})
            assert cb.max_len == depth - 1
            seq = rng.choices(range(depth), k=300)
            stream, ends = encode_sequence(cb, seq)
            symbols, decoded_ends = decode_stream(cb, stream, len(seq))
            assert symbols.tolist() == seq
            assert decoded_ends.tolist() == ends.tolist()

    @pytest.mark.parametrize("depth", [MAX_CODE_BITS + 2, 70, 200])
    def test_codes_past_the_limit_rejected(self, depth):
        with pytest.raises(ValueError):
            CodeBook({s: min(s + 1, depth - 1) for s in range(depth)})

    def test_single_symbol_alphabet(self):
        cb = build_codebook({9: 4})
        stream, ends = encode_sequence(cb, [9] * 5)
        assert decode_stream(cb, stream, 5)[0].tolist() == [9] * 5
        with pytest.raises(CorruptStreamError):
            decode_stream(cb, stream, 6)
        with pytest.raises(CorruptStreamError):  # a 1 bit matches no code
            decode_stream(cb, BitStream(bytes([0b00001000]), 5), 5)
