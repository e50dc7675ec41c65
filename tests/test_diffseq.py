import dataclasses
import random
import struct
import sys
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sparsecube import diffseq
from sparsecube.diffseq import (
    DhcHeader,
    DscHeader,
    build_dhc,
    build_dsc,
    difference_arrays,
    pack_diffs,
)
from sparsecube.errors import CorruptStreamError, FormatError, StoreError
from sparsecube.huffman import BitStream, CodeBook, encode_sequence
from sparsecube.headers import build_boc, build_lpc, pack_ints, write_envelope
from sparsecube.errors import OffsetOverflowError


def reconstruct(diffs, jumps):
    """Literal application of the recursive rebuild rule (independent oracle):
    positive diffs extend the previous position, zeros fetch the smallest jump
    greater than it."""
    out = []
    for j, d in enumerate(diffs):
        if d > 0:
            out.append(out[-1] + d)
        else:
            prev = out[-1] if out else -1
            out.append(min(x for x in jumps if x > prev))
    return out


def random_increasing(rng, n, max_gap):
    cur = rng.randint(0, 5)
    out = [cur]
    for _ in range(n - 1):
        cur += rng.randint(1, max_gap)
        out.append(cur)
    return out


position_lists = st.lists(
    st.integers(0, 100_000), min_size=1, max_size=120, unique=True
).map(sorted)


class TestDifferenceSequence:
    def test_small_gaps_single_jump(self):
        arr, diffs, jump_idx = difference_arrays([5, 6, 7], 8)
        assert diffs.tolist() == [0, 1, 1]
        assert arr[jump_idx].tolist() == [5]
        assert jump_idx.tolist() == [0]

    def test_overflow_forces_jump(self):
        # 300 - 0 = 300 > 255, so the second element becomes a jump.
        arr, diffs, jump_idx = difference_arrays([0, 300, 301], 8)
        assert diffs.tolist() == [0, 0, 1]
        assert arr[jump_idx].tolist() == [0, 300]
        assert jump_idx.tolist() == [0, 1]

    def test_zero_jump_correspondence_pattern(self):
        # Layout engineered so diffs 0, 3 and 5 are zeros: the fourth position
        # equals the second jump, and the fifth extends it by its gap.
        positions = [10, 11, 12, 400, 401, 900, 901, 902, 903]
        arr, diffs, jump_idx = difference_arrays(positions, 8)
        diffs, jumps = diffs.tolist(), arr[jump_idx].tolist()
        zero_at = [i for i, d in enumerate(diffs) if d == 0]
        assert zero_at == [0, 3, 5]
        assert len(jumps) == 3
        assert positions[3] == jumps[1]
        assert positions[4] == jumps[1] + diffs[4]

    def test_zero_jump_bijection(self):
        rng = random.Random(3)
        for _ in range(50):
            positions = random_increasing(rng, rng.randint(1, 80), 700)
            arr, diffs, jump_idx = difference_arrays(positions, 8)
            jumps = arr[jump_idx].tolist()
            assert sum(1 for d in diffs if d == 0) == len(jumps)
            assert jumps[0] == positions[0]
            assert all(a < b for a, b in zip(jumps, jumps[1:]))

    @pytest.mark.parametrize("bits", [4, 8, 12, 16])
    def test_reconstruction_exact(self, bits):
        rng = random.Random(bits)
        for _ in range(200):
            positions = random_increasing(rng, rng.randint(1, 100), 2 ** (bits + 2))
            arr, diffs, jump_idx = difference_arrays(positions, bits)
            assert reconstruct(diffs.tolist(), arr[jump_idx].tolist()) == positions

    @given(position_lists, st.sampled_from([4, 8, 12, 16]))
    def test_reconstruction_property(self, positions, bits):
        arr, diffs, jump_idx = difference_arrays(positions, bits)
        jumps = arr[jump_idx].tolist()
        assert reconstruct(diffs.tolist(), jumps) == positions
        assert [positions[a] for a in jump_idx] == jumps


class TestPacking:
    @pytest.mark.parametrize("bits", [1, 4, 7, 8, 12, 16, 24, 32])
    def test_pack_unpack(self, bits):
        rng = random.Random(bits)
        values = [rng.randrange(1 << bits) for _ in range(257)]
        data = pack_diffs(values, bits)
        assert len(data) == (bits * len(values) + 7) // 8
        assert diffseq._diff_array(data, bits, len(values)).tolist() == values
        if bits in (8, 16, 32):
            assert list(diffseq._diff_window(data, bits, 0, len(values))) == values


def theorem_block_len(positions, offset_width, cap=64):
    """Largest block length (searched downward) the offsets still fit."""
    for block_len in range(cap, 0, -1):
        try:
            return build_boc(positions, block_len=block_len, offset_width=offset_width)
        except OffsetOverflowError:
            continue
    raise AssertionError("block length 1 must always fit")


class TestJumpsVsBase:
    @pytest.mark.parametrize("offset_width,bits", [(1, 8), (2, 16)])
    def test_never_more_jumps_than_bases(self, offset_width, bits):
        rng = random.Random(offset_width)
        for _ in range(100):
            positions = random_increasing(
                rng, rng.randint(1, 90), rng.choice([10, 200, 5000, 80_000])
            )
            _, _, jump_idx = difference_arrays(positions, bits)
            boc = theorem_block_len(positions, offset_width)
            assert len(jump_idx) <= len(boc.bases)


def oracle_lookup(positions, query):
    h = build_lpc(positions)
    return h.lookup(query)


class TestDsc:
    def test_basic_lookups(self):
        h = build_dsc([5, 6, 7], diff_bits=8)
        assert h.lookup(6) == 1  # linear-scan oracle over the positions
        assert h.lookup(8) is None
        assert h.lookup(4) is None

    def test_jumps_are_exact_hits(self):
        positions = [0, 300, 301, 900, 905]
        h = build_dsc(positions, diff_bits=8, stride=1)
        for k, j in enumerate(h.jumps):
            assert h.lookup(j) == positions.index(j)
        assert DscHeader.from_bytes(h.to_bytes()).checkpoints == h.checkpoints

    def test_single_cell(self):
        h = build_dsc([42], diff_bits=8)
        assert list(h.jumps) == [42]
        assert diffseq._diff_array(h.diff_data, 8, 1).tolist() == [0]
        assert h.lookup(42) == 0
        assert h.lookup(41) is None
        assert h.lookup(43) is None

    def test_size_formula(self):
        for positions, bits in (([5, 6, 7], 8), ([0, 300, 301], 8), ([1, 2], 16)):
            h = build_dsc(positions, diff_bits=bits)
            n = len(positions)
            assert h.size_bytes() == (bits * n + 7) // 8 + 8 * len(h.jumps)

    def test_full_domain_vs_oracle(self):
        rng = random.Random(9)
        for bits in (4, 8, 1, 3, 5):
            positions = random_increasing(rng, 60, 2 ** (bits + 1))
            h = build_dsc(positions, diff_bits=bits, stride=4)
            for q in range(positions[-1] + 3):
                assert h.lookup(q) == oracle_lookup(positions, q)

    def test_sampled_domain_vs_oracle_wide_diffs(self):
        rng = random.Random(10)
        positions = random_increasing(rng, 60, 2**17)
        queries = positions + [rng.randrange(positions[-1] + 2) for _ in range(2000)]
        for bits in (16, 24, 32):
            h = build_dsc(positions, diff_bits=bits, stride=4)
            for q in queries:
                assert h.lookup(q) == oracle_lookup(positions, q)

    def test_serialization_and_rebuild(self):
        rng = random.Random(21)
        positions = random_increasing(rng, 200, 600)
        h = build_dsc(positions, diff_bits=8, stride=4)
        again = DscHeader.from_bytes(h.to_bytes())
        assert again.checkpoints == h.checkpoints
        assert again.to_bytes() == h.to_bytes()
        for q in rng.sample(range(positions[-1] + 2), 100):
            assert again.lookup(q) == h.lookup(q)

    def test_corrupt_data_detected(self):
        h = build_dsc([0, 300, 301], diff_bits=8)
        with pytest.raises(CorruptStreamError):
            DscHeader.from_bytes(h.to_bytes()[:-1])

    def test_positions_round_trip(self):
        rng = random.Random(2)
        positions = random_increasing(rng, 150, 500)
        assert build_dsc(positions, diff_bits=8).positions().tolist() == positions


class TestDhc:
    def test_frequent_gap_gets_shortest_code(self):
        # Clustered positions: gap 1 dominates, so its code is minimal.
        positions = list(range(100, 150)) + list(range(300, 340)) + [1000, 1003]
        h = build_dhc(positions, diff_bits=8)
        shortest = min(h.codebook.lengths.values())
        assert h.codebook.lengths[1] == shortest

    def test_dense_run_beats_dsc(self):
        positions = list(range(1000))
        dhc = build_dhc(positions, diff_bits=16)
        dsc = build_dsc(positions, diff_bits=16)
        assert dhc.stream.bit_length == 999  # one 1-bit code per gap
        assert dhc.size_bytes() < dsc.size_bytes()

    def test_single_cell(self):
        h = build_dhc([7], diff_bits=8)
        assert list(h.jumps) == [7]
        assert h.stream.bit_length == 0
        assert h.codebook is None
        assert h.lookup(7) == 0
        assert h.lookup(8) is None

    def test_lookup_matches_oracle(self):
        rng = random.Random(31)
        positions = random_increasing(rng, 80, 600)
        h = build_dhc(positions, diff_bits=8, stride=4)
        for q in range(positions[-1] + 3):
            assert h.lookup(q) == oracle_lookup(positions, q)

    def test_query_below_first_jump(self):
        h = build_dhc([50, 51], diff_bits=8)
        assert h.lookup(10) is None

    def test_serialization_and_rebuild(self):
        rng = random.Random(8)
        positions = random_increasing(rng, 300, 700)
        h = build_dhc(positions, diff_bits=8, stride=8)
        again = DhcHeader.from_bytes(h.to_bytes())
        assert again.checkpoints == h.checkpoints
        assert again.to_bytes() == h.to_bytes()
        for q in rng.sample(range(positions[-1] + 2), 150):
            assert again.lookup(q) == h.lookup(q)

    def test_reloaded_checkpoints_match_built(self):
        rng = random.Random(14)
        positions = random_increasing(rng, 120, 900)
        for build, cls in ((build_dsc, DscHeader), (build_dhc, DhcHeader)):
            built = build(positions, diff_bits=8, stride=4)
            assert cls.from_bytes(built.to_bytes()).checkpoints == built.checkpoints

    def test_corrupt_stream_detected(self):
        rng = random.Random(4)
        positions = random_increasing(rng, 50, 600)
        h = build_dhc(positions, diff_bits=8)
        raw = bytearray(h.to_bytes())
        raw = raw[: len(raw) - len(h.stream.data) // 2]  # drop half the stream
        with pytest.raises((CorruptStreamError, FormatError)):
            DhcHeader.from_bytes(bytes(raw))

    def test_positions_round_trip(self):
        rng = random.Random(19)
        positions = random_increasing(rng, 150, 900)
        assert build_dhc(positions, diff_bits=8).positions().tolist() == positions

    def test_lookup_through_codes_past_one_refill(self):
        # Gap g has a code of min(g, 55) bits, so a long code often starts
        # with fewer bits buffered than it needs and the lookup refills first.
        rng = random.Random(69)
        cb = CodeBook({g: min(g, 55) for g in range(1, 57)})
        gaps = [rng.randint(1, 56) for _ in range(600)]
        positions = [3]
        for g in gaps:
            positions.append(positions[-1] + g)
        stream, _ = encode_sequence(cb, gaps)
        built = DhcHeader(8, 8, 16, len(positions), array("Q", [3]), cb, stream)
        assert built.positions().tolist() == positions
        stored = {p: i for i, p in enumerate(positions)}
        for h in (built, DhcHeader.from_bytes(built.to_bytes())):
            for p in positions:
                for q in (p - 1, p, p + 1):
                    assert h.lookup(q) == stored.get(q), q


def built_and_reloaded(build, cls, positions, **kw):
    built = build(positions, **kw)
    again = cls.from_bytes(built.to_bytes())
    assert again.checkpoints == built.checkpoints
    return built, again


def header_file(cls, diff_bits, entry_width, stride, count, jumps, *payload):
    """The file a header of class `cls` with these field values would save,
    written without making the header."""
    extra = [payload[-1].bit_length] if cls is DhcHeader else []
    head = write_envelope(cls.MAGIC, entry_width, diff_bits, stride, count, len(jumps), *extra)
    if cls is DscHeader:
        return head + pack_ints(jumps, entry_width) + payload[0]
    codebook, stream = payload
    book = codebook.to_bytes() if codebook is not None else bytes(8)  # no symbols
    return head + pack_ints(jumps, entry_width) + book + stream.data[: (stream.bit_length + 7) // 8]


def rejected_when_made(cls, *values, match=None):
    """Neither these field values nor their file make a header: both raise
    CorruptStreamError."""
    with pytest.raises(CorruptStreamError, match=match):
        cls(*values)
    with pytest.raises(CorruptStreamError, match=match):
        cls.from_bytes(header_file(cls, *values))


SCHEMES = ((build_dsc, DscHeader), (build_dhc, DhcHeader))


def fine_entries(cp):
    """Every fine entry as absolute (cell, position, jump index, bit offset):
    its coarse entry plus its deltas.  The bit is None for DSC, and the jump
    index None in a table that holds no `fine_jump`."""
    return [
        (
            e * cp.fine,
            cp.pos[j] + cp.fine_pos[e],
            cp.jump[j] + cp.fine_jump[e] if cp.fine_jump is not None else None,
            cp.bit[j] + cp.fine_bit[e] if cp.bit is not None else None,
        )
        for e in range(len(cp.fine_pos))
        for j in [e // cp.per_coarse]
    ]


def columns(cp):
    """The table's columns: every field but its spacing and count, and the
    optional columns it does not hold."""
    values = (getattr(cp, f.name) for f in dataclasses.fields(cp))
    return [v for v in values if v is not None and not isinstance(v, int)]


def space_checkpoints(mp, fine):
    """Fine entries every `fine` cells in both schemes, in coarse blocks of
    two or three fine entries, which put a coarse boundary next to nearly
    every fine one."""
    for cls in (DscHeader, DhcHeader):
        mp.setattr(cls, "FINE_CELLS", fine)
    mp.setattr(diffseq, "COARSE_CELLS", fine * (2 + fine % 2))


class TestCheckpoints:
    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_checkpoints_at_most_checkpoint_cells_apart(self, bits):
        coarse = diffseq.COARSE_CELLS
        rng = random.Random(bits)
        single_jump = list(range(7, 100_007))
        overflowing = random_increasing(rng, 3000, 2 ** (bits + 1))
        for positions in (single_jump, overflowing):
            _, diffs, _ = difference_arrays(positions, bits)
            for build, cls in SCHEMES:
                fine = cls.FINE_CELLS
                for h in built_and_reloaded(build, cls, positions, diff_bits=bits):
                    cp = h.checkpoints
                    entries = fine_entries(cp)
                    cells = [c for c, _, _, _ in entries]
                    # Every FINE_CELLS-th cell and no other, whatever the jumps.
                    assert cells == list(range(0, h.count, fine))
                    assert len(cp.pos) == len(cp.jump) == -(-h.count // coarse)
                    assert [e for e, (c, _, _, _) in enumerate(entries) if c % coarse == 0] == [
                        j * coarse // fine for j in range(len(cp.pos))
                    ]
                    if cls is DscHeader:
                        assert cp.bit is None and cp.fine_bit is None
                    else:
                        assert len(cp.bit) == len(cp.pos)
                        _, ends = encode_sequence(h.codebook, diffs[1:])
                        ends = [0] + ends.tolist()
                        assert [bit for c, _, _, bit in entries] == [ends[c] for c in cells]
                    for cell, pos, k, bit in entries:
                        assert pos == positions[cell]
                        if k is None:
                            k = cp.jump_index(h.jumps, cell, pos)
                        assert h.jumps[k] <= pos
                        assert k + 1 == len(h.jumps) or h.jumps[k + 1] > pos
                    for col in columns(cp):
                        top = max(col, default=0)
                        assert col.itemsize == min(w for w in (1, 2, 4, 8) if top < 256**w)
                    if positions is single_jump:
                        assert len(h.jumps) == 1
                        # ceil(n / FINE_CELLS): 12,500 for DSC, 6,250 for DHC.
                        assert len(cells) == {8: 12_500, 16: 6250}[fine]

    @pytest.mark.parametrize("every", [1, 2, 3, 128, None])
    def test_probes_around_every_checkpoint(self, monkeypatch, every):
        # None probes each class at its own spacing.
        if every is not None:
            space_checkpoints(monkeypatch, every)
        rng = random.Random(every or 0)
        # Fibonacci gap frequencies (gap 1 the most frequent) give the deepest
        # code: 15 bits, past the width of the table-driven decoder.
        fib = [1, 1]
        while len(fib) < 16:
            fib.append(fib[-1] + fib[-2])
        gaps = [g for g, f in enumerate(reversed(fib), 1) for _ in range(f)]
        rng.shuffle(gaps)
        deep = [5]
        for g in gaps:
            deep.append(deep[-1] + g)
        for bits, positions in (
            (4, random_increasing(rng, 1000, 40)),
            (16, random_increasing(rng, 1000, 2**17)),
            (8, deep),
        ):
            stored = {p: i for i, p in enumerate(positions)}
            for build, cls in SCHEMES:
                for h in built_and_reloaded(build, cls, positions, diff_bits=bits, stride=4):
                    cells = [c for c, _, _, _ in fine_entries(h.checkpoints)]
                    assert cells == list(range(0, len(positions), cls.FINE_CELLS))
                    probes = {positions[0] - 1, positions[-1] + 1}
                    for c in cells:
                        for i in (c - 1, c, c + 1):
                            if 0 <= i < len(positions):
                                probes.update((positions[i] - 1, positions[i], positions[i] + 1))
                    for a, b in zip(cells, cells[1:]):
                        probes.add(positions[(a + b) // 2] + 1)
                    for q in sorted(probes):
                        assert h.lookup(q) == stored.get(q), (q, every)

    @pytest.mark.parametrize("gap, typecode", [(2**12, "I"), (2**26, "Q")])
    def test_wide_deltas_widen_columns(self, gap, typecode):
        # Every other gap overflows 4 bits by far, so one coarse block spans
        # positions past 2**16 (or 2**32) and a narrow column would truncate.
        rng = random.Random(gap)
        positions = [3]
        for i in range(1500):
            positions.append(positions[-1] + (rng.randint(gap // 2, gap) if i % 2 else rng.randint(1, 15)))
        stored = {p: i for i, p in enumerate(positions)}
        probes = sorted({q for p in positions for q in (p - 1, p, p + 1)})
        for build, cls in SCHEMES:
            for h in built_and_reloaded(build, cls, positions, diff_bits=4):
                assert h.checkpoints.fine_pos.typecode == typecode
                assert max(h.checkpoints.fine_pos) >= 2 ** (8 * array(typecode).itemsize // 2)
                assert [h.lookup(q) for q in probes] == [stored.get(q) for q in probes]

    @pytest.mark.parametrize(
        "build, density, most",
        [
            (build_dhc, 0.2, 0.35),
            (build_dhc, 0.0159, 1.0),
            (build_dsc, 0.2, 0.30),
            (build_dsc, 0.0159, 0.55),
        ],
        ids=["0.2-0.35", "0.0159-1.0", "dsc-0.2-0.30", "dsc-0.0159-0.55"],
    )
    def test_dhc_table_octets_per_cell(self, build, density, most):
        # Uniform gaps at 4 bits, as in the dense-uniform and cache-sweep
        # benchmark relations.  One 32-octet entry every 128 cells and every
        # 16th jump held 0.32 and 1.81 octets per cell there.  DHC's entries
        # at every 16th cell hold 0.270 and 0.395, DSC's at every 8th cell
        # 0.262 and 0.512 (its entries every 16 cells and every 16th jump,
        # which held their cells, 0.343 and 0.672).
        gaps = np.random.default_rng(3).geometric(density, 50_000)
        h = build(np.cumsum(gaps), diff_bits=4)
        assert h.checkpoints.memory_bytes() / h.count <= most

    def test_memory_bytes_counts_what_is_held(self):
        positions = random_increasing(random.Random(5), 5000, 40)
        for build, cls in SCHEMES:
            for h in built_and_reloaded(build, cls, positions, diff_bits=4):
                cp = h.checkpoints
                cols = columns(cp)
                assert all(isinstance(c, array) for c in cols)
                # getsizeof counts an array's allocated buffer on top of its
                # empty size: memory_bytes must be exactly those buffers.
                held = sum(sys.getsizeof(c) - sys.getsizeof(array(c.typecode)) for c in cols)
                assert cp.memory_bytes() == held == sum(c.itemsize * len(c) for c in cols)

    def test_bad_stride_and_leading_difference_rejected(self):
        for build, cls in SCHEMES:
            raw = bytearray(build([5, 6, 7], diff_bits=8).to_bytes())
            raw[21:29] = bytes(8)  # the stride field after magic, version and two widths
            with pytest.raises(FormatError):
                cls.from_bytes(bytes(raw))
        # DSC stores its leading zero: move it to the second cell.
        raw = bytearray(build_dsc([5, 6, 7], diff_bits=8).to_bytes())
        assert raw[-3:] == bytes([0, 1, 1])
        raw[-3:] = bytes([1, 0, 1])
        with pytest.raises(CorruptStreamError):
            DscHeader.from_bytes(bytes(raw))


def _jumpy(rng, n, n_jumps, diff_bits, widest=None, together=False):
    """n increasing positions with exactly n_jumps jumps at `diff_bits`: the
    first cell and n_jumps - 1 gaps past the width (in one run of cells if
    `together`), the rest 1 .. `widest` (by default the widest that fits),
    about half of them 1."""
    if together:
        start = rng.randint(1, n - n_jumps + 1)
        over = set(range(start, start + n_jumps - 1))
    else:
        over = set(rng.sample(range(1, n), n_jumps - 1))
    top = 1 << diff_bits
    widest = widest or top - 1
    positions = [rng.randint(0, 9)]
    for i in range(1, n):
        gap = rng.randint(top, 2 * top) if i in over else rng.choice([1, rng.randint(1, widest)])
        positions.append(positions[-1] + gap)
    return positions


# (cells, jumps) around DHC's `fine_jump` threshold of a jump per 16 cells:
# 1600 cells with 100 jumps sit at it and hold the column, 1601 with 100 or
# 1600 with 99 fall just short and hold none.
THRESHOLD = [(1600, 100), (1601, 100), (1600, 99), (1600, 101), (1600, 1), (1600, 1200), (16, 1), (17, 1)]


class TestDhcCheckpoints:
    """DHC's table has an entry at every 16th cell and no other, and holds
    a fine entry's jump index only where the header has a jump per 16
    cells or more."""

    @pytest.mark.parametrize("n, n_jumps", THRESHOLD)
    def test_entries_at_every_16th_cell_and_jumps_where_a_jump_per_16_cells(self, n, n_jumps):
        positions = _jumpy(random.Random(n * n_jumps), n, n_jumps, 8)
        for h in built_and_reloaded(build_dhc, DhcHeader, positions, diff_bits=8, stride=1):
            cp = h.checkpoints
            assert len(h.jumps) == n_jumps
            assert (cp.fine, cp.per_coarse, cp.count) == (16, diffseq.COARSE_CELLS // 16, n)
            entries = fine_entries(cp)
            assert [c for c, _, _, _ in entries] == list(range(0, n, 16))
            assert len(cp.pos) == -(-n // diffseq.COARSE_CELLS)
            assert (cp.fine_jump is not None) == (n_jumps * 16 >= n)
            for cell, pos, k, _ in entries:
                assert pos == positions[cell]
                # Held or found, the index of the last jump at or before pos.
                for k in {k, cp.jump_index(h.jumps, cell, pos)} - {None}:
                    assert h.jumps[k] <= pos and (k + 1 == n_jumps or h.jumps[k + 1] > pos)

    @pytest.mark.parametrize("n, n_jumps", THRESHOLD)
    @pytest.mark.parametrize("zero_code", ["gap", "jump", "jump-run"])
    def test_lookups_match_oracle_with_long_codes(self, n, n_jumps, zero_code):
        # Gaps 2..1025 have 12-bit codes, longer than the 11-bit table.  The
        # 1-bit all-zero code is gap 1, or a jump, so that a run of it is a
        # run of jumps; in `jump-run` the jumps come in one run of cells,
        # which the run step meets with no jump index held when they are few.
        short = {1: 1, 0: 2} if zero_code == "gap" else {0: 1, 1: 2}
        cb = CodeBook({**short, **{g: 12 for g in range(2, 1026)}})
        rng = random.Random(n + n_jumps)
        positions = _jumpy(rng, n, n_jumps, 16, 1025, together=zero_code == "jump-run")
        _, diffs, jump_idx = difference_arrays(positions, 16)
        assert jump_idx.size == n_jumps and (diffs > 1).any()  # some long codes
        stream, _ = encode_sequence(cb, diffs[1:])
        jumps = array("Q", [positions[i] for i in jump_idx])
        built = DhcHeader(16, 8, 16, n, jumps, cb, stream)
        again = DhcHeader.from_bytes(built.to_bytes())
        assert again.checkpoints == built.checkpoints
        assert (built.checkpoints.fine_jump is not None) == (n_jumps * 16 >= n)
        stored = {p: i for i, p in enumerate(positions)}
        probes = {q for p in positions for q in (p - 1, p, p + 1)}
        probes.update(rng.randrange(positions[-1] + 2) for _ in range(300))
        for h in (built, again):
            for q in sorted(probes):
                assert h.lookup(q) == stored.get(q), q


def _alternating(long_gap, short_gap):
    """Long runs of one of `long_gap`'s gaps, each followed by a short run of
    one of `short_gap`'s, and a long run last, which ends the stream."""
    long_run = st.tuples(long_gap, st.integers(20, 150))
    pair = st.tuples(long_run, st.tuples(short_gap, st.integers(1, 3)))
    return st.tuples(st.lists(pair, max_size=8), long_run).map(
        lambda t: [seg for p in t[0] for seg in p] + [t[1]]
    )


# Gaps 1..4, each in a run of 30 to 50 per round: the two rarest together
# always outweigh the most frequent, so all four codes have two bits.
_BALANCED = st.lists(
    st.permutations([1, 2, 3, 4]).flatmap(
        lambda gaps: st.tuples(*(st.tuples(st.just(g), st.integers(30, 50)) for g in gaps))
    ),
    min_size=1, max_size=3,
).map(lambda rounds: [seg for r in rounds for seg in r])

# (diff_bits, [(gap, repeat), ...]) in four shapes of all-zero-code runs.
RUN_SHAPES = {
    # Gap 1, more than half the gaps, is the 1-bit all-zero code (d0 = 1).
    "unit": st.tuples(st.sampled_from([8, 16]), _alternating(
        st.just(1), st.one_of(st.integers(2, 300), st.integers(1 << 16, 1 << 20)))),
    # At 1 or 2 bits a gap of 4 or more overflows, so 0 (a jump) is the
    # 1-bit all-zero code.
    "jump": st.tuples(st.sampled_from([1, 2]), _alternating(st.integers(4, 90), st.integers(1, 3))),
    # ln0 = 2: the all-zero code 00 stands for gap 1.
    "wide": st.tuples(st.just(4), _BALANCED),
    # One gap only: a single-symbol codebook (gap 1, a fully dense relation).
    "single": st.tuples(st.just(8), st.tuples(st.sampled_from([1, 7, 255]),
                                              st.integers(1, 700)).map(lambda seg: [seg])),
}


def _run_positions(start, segments):
    positions = [start]
    for gap, repeat in segments:
        for _ in range(repeat):
            positions.append(positions[-1] + gap)
    return positions


class TestDhcRuns:
    """A lookup steps over a run of the all-zero code at once."""

    @given(st.sampled_from(sorted(RUN_SHAPES)).flatmap(RUN_SHAPES.get),
           st.integers(0, 50), st.sampled_from([1, 2, 3, 7, 32]),
           st.sampled_from([1, 4, 16]), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_lookup_matches_dict_oracle(self, shape, start, fine, stride, rng):
        diff_bits, segments = shape
        positions = _run_positions(start, segments)
        stored = {p: i for i, p in enumerate(positions)}
        probes = {q for p in positions for q in (p - 1, p, p + 1)}
        probes.update(rng.randrange(positions[-1] + 3) for _ in range(100))
        with pytest.MonkeyPatch.context() as mp:
            space_checkpoints(mp, fine)
            for h in built_and_reloaded(build_dhc, DhcHeader, positions,
                                        diff_bits=diff_bits, stride=stride):
                for q in sorted(probes):
                    assert h.lookup(q) == stored.get(q), q

    @given(st.sampled_from(sorted(RUN_SHAPES)).flatmap(RUN_SHAPES.get), st.data())
    @settings(max_examples=150)
    def test_stream_cut_inside_a_run_raises(self, shape, data):
        # The bits after the cut are the rest of the run: zeros, which the
        # decode that makes the header must not read as codes.
        diff_bits, segments = shape
        positions = _run_positions(3, segments)
        h = build_dhc(positions, diff_bits=diff_bits)
        _, diffs, _ = difference_arrays(positions, diff_bits)
        _, ends = encode_sequence(h.codebook, diffs[1:])
        ends = [0] + ends.tolist()
        _, lut, ln0, d0 = h.codebook._lut
        assert lut[0] is None  # w zero bits go to the run step
        runs = [i for i in range(2, h.count) if diffs[i] == diffs[i - 1] == d0]
        assume(runs)
        i = data.draw(st.sampled_from(runs))
        cut = data.draw(st.integers(ends[i - 2] + 1, ends[i] - 1))
        fields = (h.diff_bits, h.entry_width, h.stride, h.count, h.jumps, h.codebook)
        rejected_when_made(DhcHeader, *fields, BitStream(h.stream.data, cut))
        assert DhcHeader(*fields, h.stream).positions().tolist() == positions

    def test_zero_padding_is_not_read_as_codes(self):
        # Seventeen cells at unit gaps, each gap the 1-bit code 0, but a
        # stream of only twelve codes: its last four bits and every bit
        # past the data read as zeros.
        h = build_dhc(range(5, 22), diff_bits=8)
        fields = (h.diff_bits, h.entry_width, h.stride, h.count, h.jumps, h.codebook)
        rejected_when_made(DhcHeader, *fields, BitStream(bytes(2), 12),
                           match="stream ended before declared count")
        # Sixteen zero bits are the sixteen codes.
        whole = DhcHeader(*fields, BitStream(bytes(2), 16))
        assert [whole.lookup(q) for q in range(4, 23)] == [None, *range(17), None]

    def test_long_code_with_a_leading_zero_is_not_a_run(self):
        # Gap 1 is the 2-bit code 00 and 3072 gaps have 12-bit codes, the
        # first of them 010000000000: longer than the 11-bit table, and
        # starting with a zero bit.
        cb = CodeBook({1: 2, **{g: 12 for g in range(2, 3074)}})
        gaps = [1, 1, 2, 1, 3000, 1, 1, 1, 2, 7, 1, 1]
        positions = _run_positions(3, [(g, 1) for g in gaps])
        stream, _ = encode_sequence(cb, gaps)
        built = DhcHeader(16, 8, 16, len(positions), array("Q", [3]), cb, stream)
        stored = {p: i for i, p in enumerate(positions)}
        for h in (built, DhcHeader.from_bytes(built.to_bytes())):
            assert [h.lookup(q) for q in range(positions[-1] + 2)] == [
                stored.get(q) for q in range(positions[-1] + 2)
            ]

    def test_run_past_the_stream_or_the_jumps_raises(self):
        # Unit gaps as the 2-bit code 00, in a stream that ends inside the
        # fourth code.
        full = build_dhc(range(5, 12), diff_bits=8)
        rejected_when_made(DhcHeader, 8, 8, 16, 7, full.jumps, CodeBook({1: 2, 2: 2, 3: 2, 4: 2}),
                           BitStream(bytes(2), 7), match="no whole code at bit 6")
        # Every gap overflows 2 bits, so each is a jump, the 1-bit code 0,
        # but only three jumps are left.
        full = build_dhc(range(5, 33, 4), diff_bits=2)
        rejected_when_made(DhcHeader, 2, 8, 16, full.count, full.jumps[:3], full.codebook,
                           full.stream, match="7 zero differences but 3 jumps")


def _gaps(bits):
    """Gaps that mostly fit `bits` bits, and some that overflow into jumps."""
    return st.lists(
        st.one_of(st.integers(1, (1 << bits) - 1), st.integers(1 << bits, 1 << (bits + 1))),
        min_size=1, max_size=80,
    )


class TestScans:
    """A lookup reads its window, from its start entry to the next entry, as
    one integer and trusts what the header's construction checked.  DSC
    shifts each difference off that integer (one unpack at 8, 16 and 32
    bits); DHC reads its table at a moving bit offset, bounded by the next
    entry's stream bit or the stream's bit length, and masks the window only
    before a long code or a run."""

    @pytest.mark.parametrize("bits", range(1, diffseq.MAX_DIFF_BITS + 1))
    @given(st.data())
    @settings(max_examples=25)
    def test_dsc_lookup_matches_oracle_at_every_width(self, bits, data):
        # Fine entries every 1, 2, 3, 5 or 7 cells put most windows' first
        # difference mid-octet at a width that is not a whole number of
        # octets; the probes past the last cell scan the last window, which
        # ends on the data's last octet.
        fine = data.draw(st.sampled_from([1, 2, 3, 5, 7]))
        positions = _run_positions(data.draw(st.integers(0, 9)), [
            (g, 1) for g in data.draw(_gaps(bits))
        ])
        stored = {p: i for i, p in enumerate(positions)}
        probes = {q for p in positions for q in (p - 1, p, p + 1)}
        probes.update(data.draw(st.lists(st.integers(0, positions[-1] + 2), max_size=20)))
        with pytest.MonkeyPatch.context() as mp:
            space_checkpoints(mp, fine)
            for h in built_and_reloaded(build_dsc, DscHeader, positions,
                                        diff_bits=bits, stride=4):
                for q in sorted(probes):
                    assert h.lookup(q) == stored.get(q), q

    def test_dsc_more_zero_differences_than_jumps(self):
        # At 5 bits every gap of 32 or more is a jump; with only two of the
        # three jumps kept, the header is not made.
        positions = _run_positions(2, [(3, 4), (40, 1), (3, 4), (40, 1), (3, 4)])
        full = build_dsc(positions, diff_bits=5)
        assert len(full.jumps) == 3
        rejected_when_made(DscHeader, 5, full.entry_width, full.stride, full.count,
                           full.jumps[:2], full.diff_data, match="3 zero differences but 2 jumps")

    def test_dhc_window_from_mid_octet_through_run_and_long_code(self, monkeypatch):
        # Gap 1 is the 2-bit code 00 and 3072 gaps have 12-bit codes, all
        # longer than the 11-bit table.  Each 16-cell window holds five long
        # codes (60 bits), a run of six 00 codes, a long code, a run of three
        # and a long code: 102 bits, so most windows start mid-octet.
        space_checkpoints(monkeypatch, 16)
        cb = CodeBook({1: 2, **{g: 12 for g in range(2, 3074)}})
        rng = random.Random(27)
        gaps = []
        for _ in range(12):
            long = [rng.randint(2, 3073) for _ in range(7)]
            gaps += long[:5] + [1] * 6 + long[5:6] + [1] * 3 + long[6:]
        positions = _run_positions(3, [(g, 1) for g in gaps])
        stream, ends = encode_sequence(cb, gaps)
        built = DhcHeader(16, 8, 16, len(positions), array("Q", [3]), cb, stream)
        starts = [bit for _, _, _, bit in fine_entries(built.checkpoints)]
        assert starts == [0] + ends[15::16].tolist()
        assert sum(bit % 8 != 0 for bit in starts) > len(starts) // 2
        stored = {p: i for i, p in enumerate(positions)}
        probes = {q for p in positions for q in (p - 1, p, p + 1)}
        probes.update(rng.randrange(positions[-1] + 2) for _ in range(500))
        for h in (built, DhcHeader.from_bytes(built.to_bytes())):
            for q in sorted(probes):
                assert h.lookup(q) == stored.get(q), q


    @given(st.integers(1, 7), st.sampled_from([1, 3, 16]),
           st.lists(st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                              st.tuples(st.integers(2, 3073), st.integers(1, 3))),
                    max_size=40),
           st.integers(1, 12), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_dhc_window_edges(self, fine, stride, segments, tail, rng):
        # Gap 1 is the 2-bit all-zero code 00, and gaps 2..3073 have 12-bit
        # codes, longer than the 11-bit table.  A fine entry every 1 to 7
        # cells starts most windows mid-octet and ends many inside a run of
        # 00.  The stream ends with a run of `tail` 00 codes, in the last
        # window, which stops at the stream's bit length.
        cb = CodeBook({1: 2, **{g: 12 for g in range(2, 3074)}})
        gaps = [g for g, repeat in segments for _ in range(repeat)] + [1] * tail
        positions = _run_positions(3, [(g, 1) for g in gaps])
        stream, _ = encode_sequence(cb, gaps)
        stored = {p: i for i, p in enumerate(positions)}
        probes = {q for p in positions for q in (p - 1, p, p + 1)}
        probes.update(rng.randrange(positions[-1] + 3) for _ in range(50))
        with pytest.MonkeyPatch.context() as mp:
            space_checkpoints(mp, fine)
            built = DhcHeader(16, 8, stride, len(positions), array("Q", [3]), cb, stream)
            again = DhcHeader.from_bytes(built.to_bytes())
        assert again.checkpoints == built.checkpoints
        # The last window starts at the last multiple of `fine`.
        assert fine_entries(built.checkpoints)[-1][0] == (len(positions) - 1) // fine * fine
        for h in (built, again):
            for q in sorted(probes):
                assert h.lookup(q) == stored.get(q), q


def _damaged(h, data):
    """The file of header `h` cut short, with one to three bits flipped, or
    with one jump dropped, as `data` draws."""
    raw = h.to_bytes()
    how = data.draw(st.sampled_from(["cut", "flip", "drop"]))
    if how == "cut":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        out = bytearray(raw)
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1),
                                      min_size=1, max_size=3, unique=True)):
            out[bit >> 3] ^= 1 << (bit & 7)
        return bytes(out)
    jumps = array("Q", h.jumps)
    del jumps[data.draw(st.integers(0, len(jumps) - 1))]
    values = [getattr(h, f.name) for f in dataclasses.fields(h) if f.init]
    values[4] = jumps
    return header_file(type(h), *values)


class TestDamage:
    """A header proves its fields when it is made, so its lookup need not."""

    @given(st.sampled_from(SCHEMES), position_lists, st.sampled_from([2, 4, 8, 13]),
           st.integers(1, 4), st.data())
    @settings(max_examples=300)
    def test_damaged_file_is_rejected_or_answers_like_its_positions(
        self, scheme, positions, bits, stride, data
    ):
        build, cls = scheme
        raw = _damaged(build(positions, diff_bits=bits, stride=stride), data)
        try:
            h = cls.from_bytes(raw)
        except StoreError:
            return
        held_positions = h.positions().tolist()
        stored = {p: i for i, p in enumerate(held_positions)}
        probes = {q for p in held_positions + positions for q in (p - 1, p, p + 1)}
        for q in sorted(probes):
            assert h.lookup(q) == stored.get(q), q

    @pytest.mark.parametrize("build, cls", SCHEMES)
    def test_no_constructor_takes_a_checkpoint_table(self, build, cls):
        h = build([5, 6, 7, 300], diff_bits=8)
        values = [getattr(h, f.name) for f in dataclasses.fields(h) if f.init]
        with pytest.raises(TypeError):
            cls(*values, checkpoints=h.checkpoints)
        with pytest.raises(ValueError):
            dataclasses.replace(h, checkpoints=h.checkpoints)
        assert cls(*values).checkpoints == h.checkpoints


class TestLoadChecks:
    @pytest.mark.parametrize("build, cls", SCHEMES)
    def test_positions_past_64_bits_rejected(self, build, cls):
        h = build([10, 15, 20], diff_bits=8)
        h.jumps[0] = 2**64 - 6  # the run reaches 2**64 + 4
        with pytest.raises(CorruptStreamError):
            cls.from_bytes(h.to_bytes())

    @pytest.mark.parametrize("build, cls", SCHEMES)
    def test_jump_behind_its_run_rejected(self, build, cls):
        h = build([10, 15, 20, 400], diff_bits=8)
        assert list(h.jumps) == [10, 400]
        h.jumps[1] = 18
        with pytest.raises(CorruptStreamError):
            cls.from_bytes(h.to_bytes())


    @pytest.mark.parametrize("bits", [0, 33, 64, 200])
    @pytest.mark.parametrize("build, cls", SCHEMES)
    def test_diff_bits_checked(self, build, cls, bits):
        raw = bytearray(build([5, 6, 7, 300], diff_bits=8).to_bytes())
        raw[13:21] = struct.pack("<Q", bits)  # after magic, version and the entry width
        with pytest.raises(FormatError, match=f"diff_bits {bits} is not in 1..32"):
            cls.from_bytes(bytes(raw))

    def test_dhc_codebook_symbols_fit_diff_bits(self):
        raw = bytearray(build_dhc([5, 6, 7, 300], diff_bits=9).to_bytes())
        assert DhcHeader.from_bytes(bytes(raw)).codebook.lengths == {1: 1, 293: 1}
        raw[13:21] = struct.pack("<Q", 8)
        with pytest.raises(FormatError, match="symbol 293 does not fit diff_bits 8"):
            DhcHeader.from_bytes(bytes(raw))

    def test_dhc_stream_checks(self):
        h = build_dhc([5, 6, 7, 9, 300], diff_bits=8)
        fields = (h.diff_bits, h.entry_width, h.stride)
        padded = BitStream(h.stream.data + bytes(1), h.stream.bit_length + 8)
        for count, jumps, codebook, stream in (
            (h.count, h.jumps, h.codebook, padded),  # 8 bits past the last code
            (h.count, h.jumps, None, h.stream),  # codebook missing
            (h.count + 9, h.jumps, h.codebook, h.stream),  # stream ends before the count
            (h.count, h.jumps[:1], h.codebook, h.stream),  # more zero differences than jumps
        ):
            with pytest.raises(CorruptStreamError):
                DhcHeader(*fields, count, jumps, codebook, stream)

    def test_dhc_count_far_past_its_stream_raises_at_once(self):
        raw = bytearray(build_dhc([5, 6, 7, 9, 300], diff_bits=8).to_bytes())
        raw[29:37] = struct.pack("<Q", 2**62)  # the count, after entry width, diff_bits, stride
        with pytest.raises(CorruptStreamError, match="stream ended before declared count"):
            DhcHeader.from_bytes(bytes(raw))


    @pytest.mark.parametrize(
        "lengths", [(0, 2, 1), (1, 2, 1), (1, 2, 57)], ids=["zero", "kraft", "57-bit"]
    )
    def test_dhc_codebook_lengths_checked(self, lengths):
        # A zero code length, two 1-bit codes beside a third code, which
        # break the Kraft inequality, and a code past MAX_CODE_BITS.
        h = build_dhc([5, 6, 7, 9, 11, 300], diff_bits=8)
        assert h.codebook.lengths == {0: 2, 1: 2, 2: 1}
        raw = bytearray(h.to_bytes())
        entries = len(raw) - len(h.stream.data) - h.codebook.size_bytes() + 8
        for i, ln in enumerate(lengths):
            raw[entries + 9 * i + 8] = ln  # after each entry's 8-octet symbol
        with pytest.raises(FormatError):
            DhcHeader.from_bytes(bytes(raw))

    def test_dhc_codebook_symbols_must_increase(self):
        # A repeated symbol would collapse into one codebook entry and leave
        # the stream to fail later, if at all.
        h = build_dhc([5, 6, 7, 9, 11, 300], diff_bits=8)
        raw = bytearray(h.to_bytes())
        entries = len(raw) - len(h.stream.data) - h.codebook.size_bytes() + 8
        raw[entries + 9 : entries + 17] = bytes(8)  # symbols 0, 0, 2
        with pytest.raises(FormatError, match="symbols"):
            DhcHeader.from_bytes(bytes(raw))

    def test_dhc_stream_of_57_bit_codes_rejected(self):
        # Gap g < 58 has the code of g - 1 ones and a zero, and gap 58 has 57
        # ones: a complete code one bit past MAX_CODE_BITS, which the stream
        # uses.  The file is otherwise whole.
        gaps = [57, 1, 58, 3, 57, 2]
        bits = "".join("1" * 57 if g == 58 else "1" * (g - 1) + "0" for g in gaps)
        codebook = struct.pack("<Q", 58) + b"".join(
            struct.pack("<QB", g, min(g, 57)) for g in range(1, 59)
        )
        padded = bits.ljust(-(-len(bits) // 8) * 8, "0")
        raw = (
            write_envelope(DhcHeader.MAGIC, 8, 8, 16, len(gaps) + 1, 1, len(bits))
            + pack_ints([4], 8)
            + codebook
            + int(padded, 2).to_bytes(len(padded) // 8, "big")
        )
        with pytest.raises(FormatError):
            DhcHeader.from_bytes(raw)


class TestStrideTransparency:
    @given(position_lists)
    @settings(max_examples=30)
    def test_lookups_identical_across_strides(self, positions):
        rng = random.Random(len(positions))
        queries = [rng.randrange(positions[-1] + 2) for _ in range(40)] + positions[:10]
        want = [oracle_lookup(positions, q) for q in queries]
        for stride in (1, 4, 16, 64):
            dsc = build_dsc(positions, diff_bits=8, stride=stride)
            dhc = build_dhc(positions, diff_bits=8, stride=stride)
            assert [dsc.lookup(q) for q in queries] == want
            assert [dhc.lookup(q) for q in queries] == want
