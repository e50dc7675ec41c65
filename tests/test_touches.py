"""Batch block codes (`block_touches`) and their replay against live queries.

The memory sweep charges each sampled stored cell by the misses of the
blocks `block_touches` says its query reads, worked out from the cell's
rank and replayed through `blockio.lru_misses` from an empty cache.  These
tests hold both to what a live `point_query` sends to the cache, and
`lru_misses`' own LRU loop to the one `SimCache.get` and `put` take.
"""

import contextlib
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecube import bench, headers, mdstore, tablestore
from sparsecube.blockio import BytesReader, SimCache, lru_misses
from sparsecube.errors import FormatError, InvalidPositionError
from sparsecube.relation import DimensionSchema, decode_logical_position, ordered_cells
from sparsecube.synth import SynthSpec, generate


class RecordingCache(SimCache):
    def __init__(self, capacity=1 << 30):
        super().__init__(capacity)
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return super().get(key)


def live_touches(store, schema, positions):
    """The keys each live query sends to a recording cache, one list per query."""
    cache = RecordingCache()
    readers = store.readers()
    saved = [r.cache for r in readers]
    for r in readers:
        r.cache = cache
    try:
        out = []
        for p in positions:
            cache.keys.clear()
            store.point_query(decode_logical_position(p, schema))
            out.append(list(cache.keys))
        return out
    finally:
        for r, c in zip(readers, saved):
            r.cache = c


def batch_touches(store, ranks):
    """The cache keys `block_touches` codes, one list per query."""
    codes = store.block_touches(np.array(ranks, dtype=np.int64))
    assert codes.shape[0] == len(ranks)
    serials = [r.serial for r in store.readers()]
    return [[(serials[c % len(serials)], c // len(serials)) for c in row] for row in codes.tolist()]


@contextlib.contextmanager
def pages_of(size):
    """Tables build and load at `size`-octet pages inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tablestore, "PAGE_SIZE", size)
        yield


def representations(rel, base: Path, params, page_size):
    """All six representations of `rel`, built and then loaded."""
    for scheme in mdstore.SCHEMES:
        built = mdstore.build_store(rel, scheme, params)
        mdstore.save(built, base / scheme)
        yield f"{scheme}-built", built
        yield f"{scheme}-loaded", mdstore.load(base / scheme)
    with pages_of(page_size):
        built = tablestore.build_table(rel)
        tablestore.save_table(built, base / "table")
        loaded = tablestore.load_table(base / "table")
    yield "table-built", built
    yield "table-loaded", loaded


def check_all(rel, seed, params=mdstore.StoreParams(), page_size=tablestore.PAGE_SIZE):
    """The codes of every stored rank, in shuffled order, against its live query."""
    positions = ordered_cells(rel)[0]
    ranks = list(range(len(positions)))
    random.Random(seed).shuffle(ranks)
    with tempfile.TemporaryDirectory() as tmp:
        for name, store in representations(rel, Path(tmp), params, page_size):
            with store:
                want = live_touches(store, rel.schema, positions[ranks].tolist())
                assert batch_touches(store, ranks) == want, name


class TestTouchesMatchLiveQueries:
    def test_three_level_index(self):
        rel = generate(SynthSpec((30, 20, 16), density=0.12, clustering=0.4, seed=11))
        with pages_of(128):
            assert tablestore.build_table(rel).height >= 3
        check_all(rel, 1, mdstore.StoreParams(diff_bits=4), 128)

    def test_default_parameters(self):
        check_all(generate(SynthSpec((40, 40, 24), density=0.13, seed=6)), 2)

    @given(
        cards=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        density=st.floats(0.01, 1.0),
        clustering=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 1000),
        measure_width=st.sampled_from([4, 8]),
        page_size=st.sampled_from([64, 96, 128, 4096]),
        diff_bits=st.sampled_from([2, 4, 16]),
    )
    @settings(max_examples=25)
    def test_random_relations(self, cards, density, clustering, seed, measure_width,
                              page_size, diff_bits):
        rel = generate(SynthSpec(tuple(cards), density, clustering, seed, measure_width))
        check_all(rel, seed, mdstore.StoreParams(diff_bits=diff_bits, stride=4), page_size)


DAMAGES = [
    ("count", 0), ("count", 65535), ("lead", 1), ("child", 0), ("child", "root"),
    ("group", "past"),
]


class TestTouchChecks:
    """A damaged index page makes a load raise FormatError, and a query that
    reads it once the table is loaded."""

    @pytest.fixture
    def saved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 128)
        rel = generate(SynthSpec((12, 10, 14), density=0.3, clustering=0.3, seed=3))
        table = tablestore.build_table(rel)
        assert table.height == 3
        tablestore.save_table(table, tmp_path / "t")
        return rel, table, tmp_path / "t"

    @staticmethod
    def damage(base, table, where, value):
        idx = Path(str(base) + ".idx")
        raw = bytearray(idx.read_bytes())
        ps = table.page_size
        root = table.root_page * ps
        (child,) = np.frombuffer(raw, "<u8", 1, root + 2 + 8)
        if where == "count":
            raw[root : root + 2] = int(value).to_bytes(2, "little")
        elif where == "lead":  # the root's first child no longer starts at its key
            raw[int(child) * ps + 2 : int(child) * ps + 10] = (1 << 40).to_bytes(8, "little")
        elif where == "child":
            bad = table.root_page if value == "root" else value
            raw[root + 2 + 8 : root + 2 + 16] = bad.to_bytes(8, "little")
        else:  # the first leaf entry points past the last row group
            leaf = table.level_first[0] * ps
            raw[leaf + 2 + 8 : leaf + 2 + 16] = table.n_groups.to_bytes(8, "little")
        idx.write_bytes(bytes(raw))

    @pytest.mark.parametrize("where, value", DAMAGES)
    def test_damage_after_the_load_raises_on_query(self, saved, where, value):
        rel, table, base = saved
        first = int(ordered_cells(rel)[0][0])
        with tablestore.load_table(base) as loaded:
            self.damage(base, table, where, value)
            with pytest.raises(FormatError):
                loaded.point_query(decode_logical_position(first, rel.schema))

    @pytest.mark.parametrize("where, value", DAMAGES)
    def test_damage_before_the_load_raises_on_load(self, saved, where, value):
        rel, table, base = saved
        self.damage(base, table, where, value)
        with pytest.raises(FormatError, match="^the index is not the one"):
            tablestore.load_table(base)


class TestReplay:
    @pytest.fixture
    def pair(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 128)
        rel = generate(SynthSpec((30, 20, 16), density=0.12, clustering=0.4, seed=11))
        mdstore.save(mdstore.build_store(rel, "dhc"), tmp_path / "md")
        tablestore.save_table(tablestore.build_table(rel), tmp_path / "t")
        return rel, tmp_path

    @pytest.mark.parametrize("capacity", [0, 150, 700, 5000, 1 << 30])
    @pytest.mark.parametrize("rep", ["md", "table"])
    def test_replay_counts_what_live_reads_count(self, pair, rep, capacity):
        rel, base = pair
        positions = ordered_cells(rel)[0]
        ranks = random.Random(capacity).choices(range(len(positions)), k=400)
        cache = SimCache(capacity)
        if rep == "md":
            store = mdstore.load(base / "md", cache=cache)
        else:
            store = tablestore.load_table(base / "t", cache=cache)
        with store:
            live_misses = []
            for p in positions[ranks].tolist():
                before = cache.misses
                store.point_query(decode_logical_position(p, rel.schema))
                live_misses.append(cache.misses - before)
            codes = store.block_touches(ranks)
            misses, used = lru_misses(codes, store.readers(), capacity, [len(ranks)])
        assert misses == live_misses
        assert used == [cache.used_bytes]
        assert (codes.size - sum(misses), sum(misses)) == (cache.hits, cache.misses)

    def test_replay_skips_too_large_blocks(self):
        reader = BytesReader(bytes(range(250)), name="f", block_size=100)
        codes = np.array([[2, 0], [2, 1]])
        assert lru_misses(codes, [reader], 60, [0, 1, 2]) == ([2, 1], [0, 50, 50])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_replay_matches_get_and_put(self, data):
        """A random grid of codes over 1-3 readers with short tails, one row
        per query, gives the misses and resident octets that `get` and `put` give
        from an empty cache."""
        draw = data.draw
        shapes = draw(st.lists(
            st.tuples(st.integers(2, 9), st.integers(0, 4), st.integers(1, 8)),
            min_size=1, max_size=3,
        ))  # (block size, whole blocks, tail: 1 to block size - 1 octets)
        readers = [
            BytesReader(bytes(range(i, i + bs * whole + min(tail, bs - 1))), f"r{i}", bs)
            for i, (bs, whole, tail) in enumerate(shapes)
        ]
        n = len(readers)
        # Each reader's whole blocks and then its tail block.
        code = st.integers(0, n - 1).flatmap(
            lambda r: st.integers(0, shapes[r][1]).map(lambda b: b * n + r)
        )
        queries, width = draw(st.integers(0, 12)), draw(st.integers(0, 5))
        grid = [draw(st.lists(code, min_size=width, max_size=width)) for _ in range(queries)]
        tails = [min(tail, bs - 1) for bs, _, tail in shapes]
        largest = max(r.block_size for r in readers)
        total = max(largest, sum(r.file_size for r in readers))  # holds them all
        capacity = draw(st.one_of(
            st.just(0),
            st.integers(0, min(tails) - 1),  # below a tail
            st.integers(0, largest - 1),  # below a block
            st.integers(largest, total),
            st.integers(total, 2 * total),
        ))
        marks = sorted(draw(st.lists(st.integers(0, queries), max_size=4)))

        live = SimCache(capacity)
        live_misses, live_used = [], []
        for row in grid:
            live_used.append(live.used_bytes)
            before = live.misses
            for c in row:
                reader, block = readers[c % n], c // n
                if live.get((reader.serial, block)) is None:
                    live.put((reader.serial, block), reader._load_block(block))
            live_misses.append(live.misses - before)
        live_used.append(live.used_bytes)

        codes = np.array(grid, dtype=np.int64).reshape(queries, width)
        misses, used = lru_misses(codes, readers, capacity, marks)
        assert misses == live_misses
        assert used == [live_used[m] for m in marks]


def test_positions_are_range_checked():
    # A header whose last position lies past the schema's cells.
    schema = DimensionSchema.from_cardinalities((5, 10))
    store = mdstore.MultidimStore(
        schema, headers.build_lpc([0, 7, 50]), 8, BytesReader(bytes(24), name="md.cells")
    )
    for call in (store.positions, lambda: bench.sample_coords(store, 3, 1)):
        with pytest.raises(InvalidPositionError):
            call()
