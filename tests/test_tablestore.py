import itertools
import math
import random
import struct

import pytest

from sparsecube.blockio import SimCache
from sparsecube.errors import EmptyRelationError, FormatError
from sparsecube.relation import DimensionSchema, Relation, ordered_cells
from sparsecube.synth import SynthSpec, generate
from sparsecube.tablestore import (
    META_FIELDS,
    TableParams,
    build_table,
    load_table,
    save_table,
)


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

    def test_height_bound(self):
        rel = generate(SynthSpec((30, 30, 30), density=0.3, seed=1))
        t = build_table(rel, TableParams(page_size=512))
        fanout = (512 - 2) // 16
        assert t.height <= math.ceil(math.log(t.n_groups, fanout)) + 1

    def test_small_page_still_correct(self, relation):
        t = build_table(relation, TableParams(page_size=128))
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

    def test_bad_magic(self, tmp_path, table):
        base = tmp_path / "t2"
        save_table(table, base)
        idx = tmp_path / "t2.idx"
        idx.write_bytes(b"WHAT" + idx.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_table(base)

    @pytest.mark.parametrize("page_size", [4096, 128])  # index height 1 and 3
    @pytest.mark.parametrize("field", META_FIELDS)
    def test_meta_field_checked_against_files_and_schema(self, tmp_path, field, page_size):
        rel = generate(SynthSpec((16, 16, 8), density=0.3, seed=2))
        table = build_table(rel, TableParams(page_size=page_size))
        base = tmp_path / "m"
        save_table(table, base)
        with load_table(base) as loaded:
            assert loaded.meta() == table.meta()
        idx = tmp_path / "m.idx"
        valid = idx.read_bytes()
        slot = 5 + 8 * META_FIELDS.index(field)
        (stored,) = struct.unpack_from("<Q", valid, slot)
        for bad in (0, stored + 1, stored - 1, 2**40):
            if bad == stored:
                continue
            idx.write_bytes(valid[:slot] + struct.pack("<Q", bad) + valid[slot + 8 :])
            with pytest.raises(FormatError):
                load_table(base)

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
        idx.write_bytes(bytes(raw))
        raised = 0
        with load_table(base) as loaded:
            for coords, measure in rel.iter_cells():
                try:
                    assert loaded.point_query(coords) == measure
                except FormatError:
                    raised += 1
        assert raised == damaged

    def test_child_page_checked_on_query(self, tmp_path, relation):
        table = build_table(relation, TableParams(page_size=128))
        assert table.height >= 2
        base = tmp_path / "c"
        save_table(table, base)
        idx = tmp_path / "c.idx"
        valid = idx.read_bytes()
        coords = tuple(ordered_cells(relation)[1][0].tolist())  # under the root's first entry
        root = table.root_page * table.page_size
        (second_child,) = struct.unpack_from("<Q", valid, root + 2 + 16 + 8)
        for child in (0, second_child, table.root_page, table.root_page + 1):
            raw = bytearray(valid)
            struct.pack_into("<Q", raw, root + 2 + 8, child)
            idx.write_bytes(bytes(raw))
            with load_table(base) as loaded, pytest.raises(FormatError):
                loaded.point_query(coords)

    def test_sizes_from_files(self, tmp_path, table):
        base = tmp_path / "t3"
        save_table(table, base)
        assert (tmp_path / "t3.rows").stat().st_size == table.rows_file_size()
        assert (tmp_path / "t3.idx").stat().st_size == table.idx_file_size()


class TestBlockTouches:
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
