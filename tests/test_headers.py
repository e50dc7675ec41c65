import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsecube.diffseq import build_dhc, build_dsc
from sparsecube.errors import FormatError, InvalidPositionError, OffsetOverflowError
from sparsecube.headers import (
    BocHeader,
    LpcHeader,
    SchcHeader,
    build_boc,
    build_lpc,
    build_schc,
    held,
    pack_ints,
    unpack_ints,
    write_envelope,
)


def scan_oracle(total_cells, positions, query):
    """Brute-force walk of the E/F layout, counting empties before the query."""
    present = set(positions)
    physical = 0
    for cell in range(total_cells):
        if cell == query:
            return physical if cell in present else None
        if cell in present:
            physical += 1
    return None


position_sets = st.sets(st.integers(0, 199), min_size=1, max_size=60).map(sorted)


def random_positions(rng, total, density):
    n = max(1, round(total * density))
    return sorted(rng.sample(range(total), n))


# E E F F E F layout: nonempty cells at 2, 3, 5 out of 6.
LAYOUT = ([2, 3, 5], 6)


@pytest.mark.parametrize(
    "build", [lambda p: build_schc(p, 10), build_lpc, build_boc, build_dsc, build_dhc]
)
@pytest.mark.parametrize("positions", [[3, 3], [3, 2], [1, 5, 4]])
def test_builders_reject_positions_that_do_not_increase(build, positions):
    with pytest.raises(ValueError):
        build(positions)


class TestSchc:
    def test_dense_is_one_pair(self):
        h = build_schc([0, 1, 2, 3], 4)
        assert list(zip(h.run_ends, h.empty_counts)) == [(3, 0)]

    def test_layout_pairs(self):
        # Oracle: scan of E E F F E F accumulating empties per run.
        positions, total = LAYOUT
        h = build_schc(positions, total)
        assert list(zip(h.run_ends, h.empty_counts)) == [(3, 2), (5, 3)]

    def test_single_cell(self):
        h = build_schc([0], 1)
        assert list(zip(h.run_ends, h.empty_counts)) == [(0, 0)]

    def test_lookup_examples(self):
        positions, total = LAYOUT
        h = build_schc(positions, total)
        assert scan_oracle(total, positions, 3) == 1
        assert h.lookup(3) == 1
        assert scan_oracle(total, positions, 4) is None
        assert h.lookup(4) is None

    def test_dense_lookup_is_identity(self):
        h = build_schc([0, 1, 2, 3], 4)
        assert h.lookup(2) == 2

    def test_position_beyond_total_cells(self):
        with pytest.raises(InvalidPositionError):
            build_schc([5], 5)

    def test_sizes(self):
        h = build_schc(LAYOUT[0], LAYOUT[1])
        assert h.size_bytes() == 2 * h.num_runs * 8 == 32

    @given(position_sets)
    def test_pairs_monotone(self, positions):
        h = build_schc(positions, 200)
        assert all(a < b for a, b in zip(h.run_ends, h.run_ends[1:]))
        assert all(a <= b for a, b in zip(h.empty_counts, h.empty_counts[1:]))
        assert 1 <= h.num_runs <= len(positions)


class TestLpc:
    def test_verbatim_and_size(self):
        h = build_lpc([2, 3, 5])
        assert h.positions_list.tolist() == [2, 3, 5]
        assert h.size_bytes() == 24

    def test_single(self):
        assert build_lpc([0]).size_bytes() == 8

    def test_arithmetic_size(self):
        assert build_lpc(list(range(1000))).size_bytes() == 8000

    def test_lookups(self):
        h = build_lpc([2, 3, 5])
        assert h.lookup(5) == 2  # linear-scan oracle: third stored position
        assert h.lookup(4) is None
        assert h.lookup(h.positions_list[0]) == 0


class TestBoc:
    def test_build_example(self):
        # Hand-enumerated base and offset sequences for l=3.
        h = build_boc([10, 12, 15, 200, 204, 230], block_len=3, offset_width=1)
        assert h.bases.tolist() == [10, 200]
        assert h.offsets.tolist() == [0, 2, 5, 0, 4, 30]

    def test_block_len_one_degenerates(self):
        h = build_boc([7, 90, 2000], block_len=1)
        assert h.bases.tolist() == [7, 90, 2000]
        assert h.offsets.tolist() == [0, 0, 0]

    def test_overflow_names_block(self):
        with pytest.raises(OffsetOverflowError) as exc:
            build_boc([0, 300], block_len=2, offset_width=1)
        assert exc.value.block == 0

    def test_lookup_examples(self):
        h = build_boc([10, 12, 15, 200, 204, 230], block_len=3, offset_width=1)
        assert h.lookup(204) == 4
        assert h.lookup(11) is None
        assert h.lookup(9) is None  # below the first base

    def test_size(self):
        h = build_boc([10, 12, 15, 200, 204, 230], block_len=3, offset_width=1)
        assert h.size_bytes() == 8 * 2 + 1 * 6

    def test_offset_width_must_be_narrower(self):
        with pytest.raises(ValueError):
            build_boc([1, 2], block_len=2, entry_width=8, offset_width=8)

    @pytest.mark.parametrize("block_len", [4, 10**12, 2**63, 2**64 - 1])
    def test_block_past_the_count_is_one_block(self, block_len):
        h = build_boc([10, 12, 15], block_len=block_len, offset_width=1)
        assert (list(h.bases), list(h.offsets)) == ([10], [0, 2, 5])
        for header in (h, BocHeader.from_bytes(h.to_bytes())):
            assert header.positions().tolist() == [10, 12, 15]
            assert [header.lookup(p) for p in (9, 10, 14, 15, 16)] == [None, 0, None, 2, None]

    @given(position_sets, st.integers(1, 7))
    def test_reconstruction(self, positions, block_len):
        h = build_boc(positions, block_len=block_len, offset_width=2)
        for j, p in enumerate(positions):
            assert h.bases[j // block_len] + h.offsets[j] == p


class TestOracleEquivalence:
    @pytest.mark.parametrize("density", [0.001, 0.01, 0.1, 0.5, 0.9])
    def test_all_headers_match_scan(self, density):
        rng = random.Random(int(density * 1000))
        total = 700
        positions = random_positions(rng, total, density)
        schc = build_schc(positions, total)
        lpc = build_lpc(positions)
        boc = build_boc(positions, block_len=4, offset_width=2)
        present = set(positions)
        physical = 0
        for cell in range(total):
            want = physical if cell in present else None
            if cell in present:
                physical += 1
            assert schc.lookup(cell) == want
            assert lpc.lookup(cell) == want
            assert boc.lookup(cell) == want


class TestSizeLaws:
    def test_lpc_smaller_iff_runs_exceed_half(self):
        rng = random.Random(42)
        for _ in range(100):
            total = rng.randint(10, 400)
            positions = random_positions(rng, total, rng.uniform(0.05, 0.95))
            schc = build_schc(positions, total)
            lpc = build_lpc(positions)
            n = len(positions)
            assert (lpc.size_bytes() < schc.size_bytes()) == (n / 2 < schc.num_runs)

    def test_worst_case_is_exactly_half(self):
        # Alternating F E F E ...: every run has length one.
        positions = list(range(0, 100, 2))
        schc = build_schc(positions, 100)
        lpc = build_lpc(positions)
        assert schc.num_runs == len(positions)
        assert lpc.size_bytes() * 2 == schc.size_bytes()


class TestSerialization:
    def roundtrip(self, header, cls):
        data = header.to_bytes()
        again = cls.from_bytes(data)
        assert again == header
        assert again.to_bytes() == data

    def test_schc(self):
        self.roundtrip(build_schc(LAYOUT[0], LAYOUT[1]), SchcHeader)

    def test_lpc(self):
        self.roundtrip(build_lpc([2, 3, 5]), LpcHeader)

    def test_boc(self):
        self.roundtrip(
            build_boc([10, 12, 15, 200, 204, 230], block_len=3, offset_width=1),
            BocHeader,
        )

    def test_bad_magic(self):
        data = build_lpc([1]).to_bytes()
        with pytest.raises(FormatError):
            SchcHeader.from_bytes(data)

    def test_truncated(self):
        data = build_lpc([1, 2, 3]).to_bytes()
        with pytest.raises(FormatError):
            LpcHeader.from_bytes(data[:-4])

    @pytest.mark.parametrize("build", [
        lambda p: build_schc(p, 64),
        build_lpc,
        lambda p: build_boc(p, block_len=2, offset_width=1),
        lambda p: build_dsc(p, diff_bits=4),
        lambda p: build_dhc(p, stride=2),
    ], ids=["schc", "lpc", "boc", "dsc", "dhc"])
    def test_octets_past_the_payload_are_format_error(self, build):
        header = build([2, 3, 5, 40, 41])
        data = header.to_bytes()
        assert type(header).from_bytes(data).to_bytes() == data
        # One stray octet, and the same header twice over.
        for extra in (b"\0", data):
            with pytest.raises(FormatError, match=f"^{len(extra)} octets past the end"):
                type(header).from_bytes(data + extra)

    def test_positions_round_trip(self):
        positions, total = LAYOUT
        assert build_schc(positions, total).positions().tolist() == positions
        assert build_lpc(positions).positions().tolist() == positions
        assert build_boc(positions, block_len=2, offset_width=1).positions().tolist() == positions


class TestIntCodec:
    @given(st.integers(1, 8), st.data())
    def test_matches_int_to_bytes(self, width, data):
        values = data.draw(st.lists(st.integers(0, 2 ** (8 * width) - 1), max_size=40))
        packed = pack_ints(values, width)
        assert packed == b"".join(v.to_bytes(width, "little") for v in values)
        assert unpack_ints(b"ab" + packed, width, len(values), offset=2).tolist() == values

    @pytest.mark.parametrize("width", range(1, 8))
    def test_value_too_wide_rejected(self, width):
        with pytest.raises(InvalidPositionError):
            pack_ints([0, 1 << (8 * width)], width)

    def test_width_outside_one_to_eight_rejected(self):
        for width in (0, 9):
            with pytest.raises(ValueError):
                pack_ints([1], width)
            with pytest.raises(FormatError):
                unpack_ints(bytes(32), width, 1)


class TestHeldArrays:
    @pytest.mark.parametrize(
        "width, itemsize", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (7, 8), (8, 8)]
    )
    def test_narrowest_typecode_holding_width(self, width, itemsize):
        values = [0, 1, (1 << (8 * width)) - 1]
        arr = held(np.array(values, dtype=np.uint64), width)
        assert arr.itemsize == itemsize
        assert arr.tolist() == values

    def test_positions_held_in_eight_octets_at_entry_width_four(self):
        positions = [2, 3, 5, 9, 300, 301]
        cases = [
            (build_schc(positions, 400, entry_width=4), 8 * 2 * 4),  # four runs
            (build_lpc(positions, entry_width=4), 8 * 6),
            (build_boc(positions, block_len=4, entry_width=4), 8 * 2 + 2 * 6),  # two bases
        ]
        for header, held_octets in cases:
            assert header.memory_bytes() == held_octets
            assert type(header).from_bytes(header.to_bytes()).memory_bytes() == held_octets

    def test_three_octet_offsets_held_in_four(self):
        header = build_boc([10, 12, 15, 200, 204, 230], block_len=3, offset_width=3)
        for h in (header, BocHeader.from_bytes(header.to_bytes())):
            assert h.memory_bytes() == 8 * 2 + 4 * 6
            assert h.size_bytes() == 8 * 2 + 3 * 6


def schc_file(pairs):
    flat = [v for pair in pairs for v in pair]
    return write_envelope(SchcHeader.MAGIC, 8, len(pairs)) + pack_ints(flat, 8)


def lpc_file(positions):
    return write_envelope(LpcHeader.MAGIC, 8, len(positions)) + pack_ints(positions, 8)


def boc_file(bases, offsets, block_len=3):
    head = write_envelope(BocHeader.MAGIC, 8, 1, block_len, len(offsets), len(bases))
    return head + pack_ints(bases, 8) + pack_ints(offsets, 1)


class TestLoadRejectsDisorder:
    """Hand-made files, each breaking one ordering that a build guarantees."""

    def test_schc_valid_files_load(self):
        # LAYOUT's pairs, and a first run that starts right at its end.
        assert SchcHeader.from_bytes(schc_file([(3, 2), (5, 3)])).positions().tolist() == [2, 3, 5]
        assert SchcHeader.from_bytes(schc_file([(3, 3), (5, 4)])).positions().tolist() == [3, 5]

    @pytest.mark.parametrize(
        "pairs",
        [
            [(3, 2), (3, 2)],  # run ends repeat
            [(5, 3), (3, 2)],  # run ends fall
            [(3, 4), (5, 4)],  # the first run holds no cell
            [(3, 2), (5, 4)],  # the second run holds no cell
            [(3, 2), (5, 1)],  # empty counts fall
        ],
    )
    def test_schc_disorder_rejected(self, pairs):
        with pytest.raises(FormatError):
            SchcHeader.from_bytes(schc_file(pairs))

    @pytest.mark.parametrize("positions", [[2, 2, 5], [3, 2, 5], [2, 3, 1]])
    def test_lpc_disorder_rejected(self, positions):
        with pytest.raises(FormatError):
            LpcHeader.from_bytes(lpc_file(positions))

    def test_boc_valid_files_load(self):
        header = BocHeader.from_bytes(boc_file([10, 16], [0, 2, 5, 0, 4, 30]))
        assert header.positions().tolist() == [10, 12, 15, 16, 20, 46]
        assert BocHeader.from_bytes(boc_file([], [])).count == 0
        # The last position may be 2**64 - 1; a block length past the
        # offset count makes one block.
        top = BocHeader.from_bytes(boc_file([10, 2**64 - 31], [0, 2, 5, 0, 4, 30]))
        assert top.positions().tolist() == [10, 12, 15, 2**64 - 31, 2**64 - 27, 2**64 - 1]
        one = BocHeader.from_bytes(boc_file([10], [0, 2, 5], block_len=2**64 - 1))
        assert one.positions().tolist() == [10, 12, 15]

    @pytest.mark.parametrize(
        "bases, offsets, block_len",
        [
            ([10], [0, 2, 5, 0, 4, 30], 3),  # too few bases for the offsets
            ([10, 200, 300], [0, 2, 5, 0, 4, 30], 3),  # too many
            ([10, 200], [0, 2, 5, 0, 4, 30], 0),  # blocks of no offsets
            ([200, 10], [0, 2, 5, 0, 4, 30], 3),  # bases fall
            ([10, 10], [0, 2, 5, 0, 4, 30], 3),  # bases repeat
            ([10, 200], [1, 2, 5, 0, 4, 30], 3),  # first block starts past its base
            ([10, 200], [0, 2, 5, 3, 4, 30], 3),  # second block starts past its base
            ([10, 200], [0, 5, 2, 0, 4, 30], 3),  # offsets fall within a block
            ([10, 200], [0, 2, 5, 0, 30, 30], 3),  # offsets repeat within a block
            ([10, 15], [0, 2, 5, 0, 4, 30], 3),  # a block reaches the next base
            ([10, 2**64 - 30], [0, 2, 5, 0, 4, 30], 3),  # the last position passes 2**64 - 1
        ],
    )
    def test_boc_disorder_rejected(self, bases, offsets, block_len):
        with pytest.raises(FormatError):
            BocHeader.from_bytes(boc_file(bases, offsets, block_len))
