import contextlib
import itertools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecube import tablestore
from sparsecube.blockio import SimCache
from sparsecube.errors import EmptyRelationError, FormatError
from sparsecube.relation import (
    DimensionSchema,
    Relation,
    decode_logical_position,
    ordered_cells,
)
from sparsecube.synth import SynthSpec, generate
from sparsecube.tablestore import (
    build_table,
    load_table,
    save_table,
    table_paths,
)


@contextlib.contextmanager
def pages_of(size):
    """Tables build and load at `size`-octet pages inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tablestore, "PAGE_SIZE", size)
        yield


@pytest.fixture(scope="module")
def relation():
    return generate(SynthSpec((6, 7, 8), density=0.25, seed=4))


@pytest.fixture(scope="module")
def table(relation):
    return build_table(relation)


class TestBuild:
    def test_row_file_size(self, relation, table):
        row_width = 3 * 4 + 8
        assert table.rows_file_size() == relation.n_cells * row_width

    def test_empty_relation_errors(self):
        rel = Relation(DimensionSchema.from_cardinalities((2, 2)), {})
        with pytest.raises(EmptyRelationError):
            build_table(rel)

    def test_height_bound(self, monkeypatch):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 512)
        rel = generate(SynthSpec((30, 30, 30), density=0.3, seed=1))
        t = build_table(rel)
        fanout = (512 - 2) // 16
        assert t.height <= math.ceil(math.log(t.n_groups, fanout)) + 1

    def test_small_page_still_correct(self, relation, monkeypatch):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 128)
        t = build_table(relation)
        assert t.height >= 2
        for coords, value in relation.iter_cells():
            assert t.point_query(coords) == value


class TestQueries:
    def test_every_stored_key_found(self, relation, table):
        for coords, value in relation.iter_cells():
            assert table.point_query(coords) == value

    def test_absent_keys_empty(self, relation, table):
        cards = relation.schema.cardinalities
        for coords in itertools.product(*[range(c) for c in cards]):
            want = relation.get(coords)
            assert table.point_query(coords) == want


# About 2,450 cells each: index height 3 or more at 128-octet pages, 2 or
# more at 512 and 1 at 4096, for both measure widths.
ORACLE_CARDINALITIES = [(7000,), (50, 140), (14, 20, 25), (5, 7, 10, 20)]


def _oracle_probes(rel: Relation, table) -> list[tuple[int, ...]]:
    """Every stored key; the keys just before and after each row group; for
    every stored key, the next key that matches it in every coordinate but
    the last; the first and last cell of the array."""
    schema = rel.schema
    positions, coords, _ = ordered_cells(rel)
    stored = [tuple(c) for c in coords.tolist()]
    rpg = table.rows_per_group
    group_ends = np.concatenate(
        [positions[::rpg] - 1, positions[rpg - 1 :: rpg] + 1, positions[-1:] + 1]
    )
    last_card = schema.cardinalities[-1]
    return (
        stored
        + [decode_logical_position(int(p), schema) for p in group_ends if 0 <= p < schema.total_cells]
        + [c[:-1] + (c[-1] + 1,) for c in stored if c[-1] + 1 < last_card]
        + [(0,) * schema.n_dims, tuple(card - 1 for card in schema.cardinalities)]
    )


class TestSearchOracle:
    @pytest.mark.parametrize("measure_width", [4, 8])
    @pytest.mark.parametrize("cards", ORACLE_CARDINALITIES, ids=lambda c: f"{len(c)}d")
    @pytest.mark.parametrize("page_size", [128, 512, 4096])
    def test_built_and_loaded_match_relation(self, tmp_path, monkeypatch, page_size, cards,
                                             measure_width):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", page_size)
        rel = generate(SynthSpec(cards, density=0.35, seed=len(cards),
                                 measure_width=measure_width))
        built = build_table(rel)
        assert built.height >= {128: 3, 512: 2, 4096: 1}[page_size]
        probes = _oracle_probes(rel, built)
        want = [rel.get(c) for c in probes]
        if measure_width == 4:
            want = [None if v is None else float(np.float32(v)) for v in want]
        assert want.count(None) > len(probes) // 10
        save_table(built, tmp_path / "o")
        with load_table(tmp_path / "o", cache=SimCache(capacity=4 * page_size)) as loaded:
            for table in (built, loaded):
                assert [table.point_query(c) for c in probes] == want


class TestPersistence:
    def test_save_load_query(self, tmp_path, relation, table):
        base = tmp_path / "t"
        save_table(table, base)
        loaded = load_table(base)
        try:
            rng = random.Random(0)
            cards = relation.schema.cardinalities
            for _ in range(1000):
                coords = tuple(rng.randrange(c) for c in cards)
                assert loaded.point_query(coords) == relation.get(coords)
        finally:
            loaded.close()

    def test_overwritten_first_page_head_is_format_error(self, tmp_path, table):
        base = tmp_path / "t2"
        save_table(table, base)
        idx = tmp_path / "t2.idx"
        idx.write_bytes(b"WHAT" + idx.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_table(base)

    @pytest.mark.parametrize("page_size", [4096, 128])  # index height 1 and 3
    def test_index_is_its_level_pages(self, monkeypatch, page_size):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", page_size)
        table = build_table(generate(SynthSpec((16, 16, 8), density=0.3, seed=2)))
        index = table._idx.contents()
        assert len(index) == (table.root_page + 1) * page_size == table.idx_file_size()
        assert table.level_first[0] == 0
        # Page 0 is the first leaf page: its first entry is row group 0.
        first_key = int(table.positions()[0])
        assert struct.unpack_from("<QQ", index, 2) == (first_key, 0)

    @pytest.mark.parametrize("page_size", [64, 128, 512, 8192])
    def test_index_at_another_page_size_is_format_error(self, tmp_path, relation, page_size):
        with pages_of(page_size):
            save_table(build_table(relation), tmp_path / "p")
            with load_table(tmp_path / "p") as loaded:
                assert loaded.page_size == page_size
        with pytest.raises(FormatError, match="^the index is not the one"):
            load_table(tmp_path / "p")

    def test_a_row_must_fit_a_page(self):
        # 4 octets a coordinate and 8 for the measure: 1022 dimensions fill
        # a 4096-octet page, and 1023 overflow it.
        for n_dims in (1022, 1023):
            rel = Relation(DimensionSchema.from_cardinalities((1,) * n_dims),
                           {(0,) * n_dims: 3.0})
            if n_dims == 1022:
                assert build_table(rel).point_query((0,) * n_dims) == 3.0
            else:
                with pytest.raises(ValueError, match="^a row of 4100 octets does not fit"):
                    build_table(rel)

    @pytest.mark.parametrize("suffix", [".rows", ".idx"])
    def test_files_must_be_whole_rows_and_pages(self, tmp_path, table, suffix):
        base = tmp_path / "w"
        save_table(table, base)
        path = tmp_path / ("w" + suffix)
        valid = path.read_bytes()
        for damaged in (valid + b"\0\0\0", valid[:-3]):
            path.write_bytes(damaged)
            with pytest.raises(FormatError):
                load_table(base)

    @pytest.mark.parametrize(
        "field, value", [("group", 99), ("group", 0), ("group", 2), ("count", 65535)]
    )
    def test_leaf_page_checked_on_query(self, tmp_path, field, value):
        rel = generate(SynthSpec((16, 16, 8), density=0.3, seed=2))
        table = build_table(rel)  # one leaf page, which is the root
        assert table.height == 1 and table.n_groups > 2
        base = tmp_path / "x"
        save_table(table, base)
        idx = tmp_path / "x.idx"
        raw = bytearray(idx.read_bytes())
        leaf = table.root_page * table.page_size
        if field == "group":  # the second entry's row group
            struct.pack_into("<Q", raw, leaf + 2 + 16 + 8, value)
            damaged = table.rows_per_group  # the cells of the second group
        else:
            struct.pack_into("<H", raw, leaf, value)
            damaged = rel.n_cells
        raised = 0
        with load_table(base) as loaded:
            idx.write_bytes(bytes(raw))  # a file can change after the load has checked it
            for coords, measure in rel.iter_cells():
                try:
                    assert loaded.point_query(coords) == measure
                except FormatError:
                    raised += 1
        assert raised == damaged

    def test_child_page_checked_on_query(self, tmp_path, monkeypatch, relation):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 128)
        table = build_table(relation)
        assert table.height == 2 and table.level_first[0] == 0  # the root's children: leaves
        base = tmp_path / "c"
        save_table(table, base)
        idx = tmp_path / "c.idx"
        valid = idx.read_bytes()
        coords = tuple(ordered_cells(relation)[1][0].tolist())  # under the root's first entry
        root = table.root_page * table.page_size
        (first_child, second_child) = struct.unpack_from("<Q8xQ", valid, root + 2 + 8)
        assert first_child == 0
        # The second leaf does not start at the first entry's key, and the
        # rest are outside the leaf level.
        for child in (second_child, table.root_page, table.root_page + 1, 2**64 - 1):
            raw = bytearray(valid)
            struct.pack_into("<Q", raw, root + 2 + 8, child)
            with load_table(base) as loaded:
                idx.write_bytes(bytes(raw))  # after the load, which checks the whole index
                with pytest.raises(FormatError):
                    loaded.point_query(coords)
            idx.write_bytes(valid)

    @pytest.mark.parametrize("level", [1, 2])
    def test_child_on_another_level_is_format_error(self, tmp_path, monkeypatch, level):
        """The first page of every level starts at the first row's key, so
        a first child moved to another level's first page passes the
        page's key check; only the level bound refuses it."""
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 128)
        rel = generate(SynthSpec((16, 16, 8), density=0.3, seed=2))
        table = build_table(rel)
        assert table.level_first == (0, 15, 18)
        base = tmp_path / "l"
        save_table(table, base)
        idx = tmp_path / "l.idx"
        valid = idx.read_bytes()
        coords = tuple(ordered_cells(rel)[1][0].tolist())  # on every level's first page
        slot = table.level_first[level] * table.page_size + 2 + 8  # its first child
        assert struct.unpack_from("<Q", valid, slot) == (table.level_first[level - 1],)
        others = [first for first in table.level_first if first != table.level_first[level - 1]]
        for child in (*others, table.root_page + 1):
            raw = bytearray(valid)
            struct.pack_into("<Q", raw, slot, child)
            with load_table(base) as loaded:
                idx.write_bytes(bytes(raw))  # after the load, which checks the whole index
                with pytest.raises(FormatError, match=f"is not on index level {level - 1}$"):
                    loaded.point_query(coords)
            with pytest.raises(FormatError, match="^the index is not the one"):
                load_table(base)
            idx.write_bytes(valid)

    def test_rows_cut_short_after_the_load_are_format_error(self, tmp_path, table):
        save_table(table, tmp_path / "t")
        rows = tmp_path / "t.rows"
        with load_table(tmp_path / "t") as loaded:
            rows.write_bytes(rows.read_bytes()[:-3])
            with pytest.raises(FormatError):
                loaded.positions()

    def test_sizes_from_files(self, tmp_path, table):
        base = tmp_path / "t3"
        save_table(table, base)
        assert (tmp_path / "t3.rows").stat().st_size == table.rows_file_size()
        assert (tmp_path / "t3.idx").stat().st_size == table.idx_file_size()

    def test_positions_are_the_row_keys_read_around_the_cache(self, tmp_path, relation, table):
        save_table(table, tmp_path / "t")
        cache = SimCache(1 << 20)
        with load_table(tmp_path / "t", cache=cache) as loaded:
            for store in (table, loaded):
                got = store.positions()
                assert got.dtype == np.uint64
                assert got.tolist() == ordered_cells(relation)[0].tolist()
        assert (cache.hits, cache.misses, cache.used_bytes) == (0, 0, 0)

    # (2, 9) made `point_query((0, 3, 6))` answer None for a stored cell
    # when only `positions()` checked the rows.
    @pytest.mark.parametrize("column, value", [(0, 6), (2, 8), (2, 9), (1, 2**32 - 1)])
    def test_row_coordinate_past_its_dimension_is_format_error(
        self, tmp_path, table, column, value
    ):
        save_table(table, tmp_path / "t")
        rows = tmp_path / "t.rows"
        raw = bytearray(rows.read_bytes())
        row = 5 * table.row_width  # the sixth row
        raw[row + 4 * column : row + 4 * column + 4] = value.to_bytes(4, "little")
        rows.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="past its dimension"):
            load_table(tmp_path / "t")

    def test_rows_out_of_order_are_format_error(self, tmp_path, table):
        save_table(table, tmp_path / "t")
        rows = tmp_path / "t.rows"
        raw = bytearray(rows.read_bytes())
        w = table.row_width
        raw[5 * w : 6 * w], raw[6 * w : 7 * w] = raw[6 * w : 7 * w], raw[5 * w : 6 * w]
        rows.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="do not strictly increase"):
            load_table(tmp_path / "t")


@pytest.fixture(scope="module", params=[4096, 256, 128],
                ids=["one-page", "two-levels", "three-levels"])
def saved_index(request, tmp_path_factory):
    """A saved table whose index is one root page, or two or three levels
    high, its valid index and its page size."""
    base = tmp_path_factory.mktemp("index") / "t"
    with pages_of(request.param):
        table = build_table(generate(SynthSpec((16, 16, 8), density=0.3, seed=2)))
        assert table.height == {4096: 1, 256: 2, 128: 3}[request.param]
        save_table(table, base)
        load_table(base).close()
    return base, table._idx.contents(), request.param


class TestWholeIndexChecked:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_one_octet_changed_is_format_error(self, saved_index, data):
        """Padding included: the last octet of the root page is one."""
        base, valid, page_size = saved_index
        offset = data.draw(st.one_of(st.just(len(valid) - 1), st.integers(0, len(valid) - 1)))
        value = data.draw(st.integers(0, 255).filter(lambda v: v != valid[offset]))
        idx = table_paths(base)[2]
        idx.write_bytes(valid[:offset] + bytes([value]) + valid[offset + 1 :])
        try:
            with pages_of(page_size), pytest.raises(FormatError):
                load_table(base)
        finally:
            idx.write_bytes(valid)


class _RecordingCache(SimCache):
    def __init__(self):
        super().__init__(capacity=1 << 30)
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return super().get(key)


class TestBlockTouches:
    def test_each_query_touches_root_to_leaf_then_its_group(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tablestore, "PAGE_SIZE", 128)
        rel = generate(SynthSpec((12, 10, 14), density=0.3, clustering=0.3, seed=3))
        table = build_table(rel)
        assert table.height == 3
        save_table(table, tmp_path / "b")
        positions = ordered_cells(rel)[0]
        group_keys = positions[:: table.rows_per_group]
        fanout = table.entries_per_page
        level_first, level_pages = [], table.n_groups
        first = 0  # levels are written bottom-up, the leaf level from page 0
        for _ in range(table.height):
            level_first.append(first)
            level_pages = -(-level_pages // fanout)
            first += level_pages
        cache = _RecordingCache()
        touched = set()
        with load_table(tmp_path / "b", cache=cache) as loaded:
            serial = {r.name: r.serial for r in loaded.readers()}
            stored = set(positions.tolist())
            misses = sorted(set(range(int(positions[0]), int(positions[-1]) + 2)) - stored)
            for key in sorted(stored) + misses[::5]:
                group = int(np.searchsorted(group_keys, key, side="right")) - 1
                pages = [
                    level_first[lv] + group // fanout ** (lv + 1)
                    for lv in reversed(range(table.height))
                ]
                cache.keys.clear()
                found = loaded.point_query(decode_logical_position(key, rel.schema))
                assert (found is None) == (key not in stored)
                assert cache.keys == [(serial["tbl.idx"], p) for p in pages] + [
                    (serial["tbl.rows"], group)
                ]
                touched.update(pages)
            # A key before every row stops at the root.
            assert positions[0] > 0
            cache.keys.clear()
            assert loaded.point_query(decode_logical_position(int(positions[0]) - 1, rel.schema)) is None
            assert cache.keys == [(serial["tbl.idx"], table.root_page)]
        # Every index page is on some stored row's path.
        assert touched == set(range(table.root_page + 1))


    def test_cold_queries_touch_at_least_two_blocks(self, tmp_path, relation, table):
        base = tmp_path / "t4"
        save_table(table, base)
        cache = SimCache(capacity=1 << 30)
        loaded = load_table(base, cache=cache)
        try:
            for coords, _ in relation.iter_cells():
                cache.clear()
                before = cache.misses
                loaded.point_query(coords)
                assert cache.misses - before >= 2
        finally:
            loaded.close()
