import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecube import headers, mdstore, tablestore
from sparsecube.blockio import SimCache
from sparsecube.errors import EmptyRelationError, FormatError, OffsetOverflowError, StoreError
from sparsecube.mdstore import (
    SCHEMES,
    StoreParams,
    build_store,
    load,
    save,
)
from sparsecube.relation import (
    DimensionSchema,
    Relation,
    decode_positions,
    ordered_cells,
    schema_to_json,
)
from sparsecube.synth import SynthSpec, generate


def small_relation(seed=0, cards=(5, 6, 7), density=0.2, clustering=0.0):
    return generate(SynthSpec(cards, density=density, clustering=clustering, seed=seed))


PARAMS = StoreParams(diff_bits=8, block_len=4, offset_width=2, stride=4)


@pytest.fixture(scope="module")
def relation():
    return small_relation()


@pytest.fixture(scope="module")
def stores(relation):
    return {s: build_store(relation, s, PARAMS) for s in SCHEMES}


# The five schemes and the table, each with its save, load and file paths.
REPS = SCHEMES + ("table",)


@pytest.fixture(scope="module")
def built(relation, stores):
    return {**stores, "table": tablestore.build_table(relation)}


def save_rep(rep, store, base):
    (tablestore.save_table if rep == "table" else save)(store, base)


def load_rep(rep, base, cache=None):
    return (tablestore.load_table if rep == "table" else load)(base, cache=cache)


def rep_paths(rep, base):
    return (tablestore.table_paths if rep == "table" else mdstore.store_paths)(base)


class TestBuild:
    def test_cell_count_and_bytes(self):
        rel = Relation(
            DimensionSchema.from_cardinalities((2, 2)),
            {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0},
        )
        for scheme in SCHEMES:
            st = build_store(rel, scheme, PARAMS)
            assert st.n_cells == 3
            assert st.size_report().cell_bytes == 3 * 8

    def test_empty_relation_errors(self):
        rel = Relation(DimensionSchema.from_cardinalities((2, 2)), {})
        with pytest.raises(EmptyRelationError):
            build_store(rel, "lpc")

    def test_unknown_scheme(self):
        rel = small_relation()
        with pytest.raises(ValueError):
            build_store(rel, "zip")

    @pytest.mark.parametrize("field, value", [
        ("entry_width", 0), ("entry_width", 9), ("entry_width", -1), ("entry_width", 10**23),
        ("offset_width", 0), ("offset_width", 8),
        ("block_len", 0), ("block_len", -1), ("block_len", 2**64),
        ("diff_bits", 0), ("diff_bits", 33),
        ("stride", 0), ("stride", -1), ("stride", 2**64), ("stride", 10**23),
    ])
    def test_params_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} {value} is not in "):
            StoreParams(**{field: value})

    def test_params_at_their_bounds_accepted(self):
        low = StoreParams(entry_width=1, offset_width=1, block_len=1, diff_bits=1, stride=1)
        high = StoreParams(entry_width=8, offset_width=7, block_len=2**64 - 1, diff_bits=32,
                           stride=2**64 - 1)
        rel = small_relation()  # 210 cells: every position fits one octet
        for params, schemes in ((low, ("schc", "lpc", "dsc", "dhc")), (high, SCHEMES)):
            # A BOC offset must be narrower than its entry, so no BOC entry is one octet.
            for scheme in schemes:
                header = build_store(rel, scheme, params).header
                loaded = type(header).from_bytes(header.to_bytes())
                assert loaded.positions().tolist() == ordered_cells(rel)[0].tolist()


def boc_by_trial(rel, params):
    """The BOC header one build per offset width gives: the first width from
    `params.offset_width` below `entry_width` whose offsets fit, else block
    length 1.  `build_store` must match it without the trials."""
    positions, _, _ = ordered_cells(rel)
    block_len, entry_width = params.block_len, params.entry_width
    for width in range(params.offset_width, entry_width):
        try:
            return headers.build_boc(positions, block_len, entry_width, width)
        except OffsetOverflowError:
            continue
    return headers.build_boc(positions, 1, entry_width, params.offset_width)


def outcome(make):
    """The header bytes `make()` gives, or the class and text of what it raises."""
    try:
        return make().to_bytes()
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


class TestBocWidth:
    @given(
        cards=st.lists(st.integers(1, 1 << 10), min_size=1, max_size=4),
        data=st.data(),
        entry_width=st.integers(1, 8),
        block_len=st.one_of(st.integers(1, 40), st.just(2**64 - 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_build_matches_the_trial_builds(self, cards, data, entry_width, block_len):
        # An offset as wide as its entry (only at entry width 1) raises.
        offset_width = data.draw(st.integers(1, max(1, entry_width - 1)))
        schema = DimensionSchema.from_cardinalities(cards)
        total = schema.total_cells
        # Positions below 300 mixed with ones anywhere in up to 2^40 cells, so
        # the largest offset is anything from zero to five octets wide.
        positions = sorted(data.draw(st.sets(
            st.one_of(st.integers(0, min(300, total - 1)), st.integers(0, total - 1)),
            min_size=1, max_size=60,
        )))
        coords = np.column_stack(decode_positions(np.array(positions, dtype=np.uint64), schema))
        rel = Relation(schema, {tuple(c): 1.0 for c in coords.tolist()})
        params = StoreParams(entry_width=entry_width, offset_width=offset_width,
                             block_len=block_len)
        want = outcome(lambda: boc_by_trial(rel, params))
        assert outcome(lambda: build_store(rel, "boc", params).header) == want


class TestQueries:
    def test_stored_cells(self, relation, stores):
        for scheme, st in stores.items():
            for coords, value in relation.iter_cells():
                assert st.point_query(coords) == value, scheme

    def test_full_sweep_matches_relation(self, relation, stores):
        for coords in itertools.product(
            *[range(c) for c in relation.schema.cardinalities]
        ):
            want = relation.get(coords)
            for scheme, st in stores.items():
                assert st.point_query(coords) == want, (scheme, coords)

    def test_schemes_agree_on_random_probes(self, relation, stores):
        rng = random.Random(1)
        cards = relation.schema.cardinalities
        for _ in range(2000):
            coords = tuple(rng.randrange(c) for c in cards)
            answers = {s: st.point_query(coords) for s, st in stores.items()}
            assert len(set(answers.values())) == 1, answers

    def test_header_positions_match(self, relation, stores):
        from sparsecube.relation import logical_position_sequence

        want = logical_position_sequence(relation)
        for scheme, st in stores.items():
            assert st.header.positions().tolist() == want, scheme


class TestPersistence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_save_load_query(self, tmp_path, relation, stores, scheme):
        base = tmp_path / scheme
        save(stores[scheme], base)
        loaded = load(base)
        try:
            assert loaded.scheme == stores[scheme].scheme == scheme
            for coords, value in relation.iter_cells():
                assert loaded.point_query(coords) == value
        finally:
            loaded.close()

    @pytest.mark.parametrize("rep", REPS)
    def test_save_load_save_is_bit_identical(self, tmp_path, built, rep):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_rep(rep, built[rep], a)
        with load_rep(rep, a) as loaded:
            save_rep(rep, loaded, b)
        for pa, pb in zip(rep_paths(rep, a), rep_paths(rep, b)):
            assert pa.read_bytes() == pb.read_bytes(), pa.suffix

    @pytest.mark.parametrize("rep", REPS)
    def test_save_leaves_the_cache_untouched(self, tmp_path, relation, built, rep):
        save_rep(rep, built[rep], tmp_path / "a")
        cache = SimCache(capacity=1 << 30)
        with load_rep(rep, tmp_path / "a", cache=cache) as loaded:
            for coords in list(relation.cells)[:5]:
                loaded.point_query(coords)
            before = (cache.hits, cache.misses, list(cache._resident))
            save_rep(rep, loaded, tmp_path / "b")
            assert (cache.hits, cache.misses, list(cache._resident)) == before

    @pytest.mark.parametrize("rep", REPS)
    def test_cells_or_rows_cut_short_after_the_load_are_format_error(
        self, tmp_path, relation, built, rep
    ):
        """A query on the last block of a `.cells` or `.rows` file that lost
        3 octets since the load raises FormatError, and the cache holds
        nothing of that block."""
        save_rep(rep, built[rep], tmp_path / "a")
        data, name = (
            (rep_paths(rep, tmp_path / "a")[1], "tbl.rows") if rep == "table"
            else (rep_paths(rep, tmp_path / "a")[2], "md.cells")
        )
        last = max(relation.cells)  # row-major: the last position, in the last block
        cache = SimCache(capacity=1 << 30)
        with load_rep(rep, tmp_path / "a", cache=cache) as loaded:
            data.write_bytes(data.read_bytes()[:-3])
            with pytest.raises(FormatError, match=rf"^{name} block \d+ holds \d+ octets, not \d+$"):
                loaded.point_query(last)
            assert all(name == "tbl.idx" for name, _ in cache._resident)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cells_size_must_match_header(self, tmp_path, stores, scheme):
        base = tmp_path / "c"
        save(stores[scheme], base)
        cells = tmp_path / "c.cells"
        full = cells.read_bytes()
        for damaged in (full[: len(full) // 2], full + b"\0\0\0", b""):
            cells.write_bytes(damaged)
            with pytest.raises(FormatError):
                load(base)

    def test_wrong_magic_is_format_error(self, tmp_path, stores):
        base = tmp_path / "x"
        save(stores["lpc"], base)
        hdr = tmp_path / "x.hdr"
        hdr.write_bytes(b"NOPE" + hdr.read_bytes()[4:])
        with pytest.raises(FormatError):
            load(base)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_truncated_header_is_store_error(self, tmp_path, stores, scheme):
        base = tmp_path / "t"
        save(stores[scheme], base)
        hdr = tmp_path / "t.hdr"
        full = hdr.read_bytes()
        for n in range(len(full)):  # past the fixed fields, into the payload
            hdr.write_bytes(full[:n])
            with pytest.raises(StoreError):
                load(base)

    @pytest.mark.parametrize("spec, params, boc, dhc", [
        (SynthSpec((32, 32, 16), 0.05, 0.3, seed=3), StoreParams(),
         "3b0ec1d889dc150e0e6398c7fed1809bf7005b6c6e69a4b7490413f0939ac52f",
         "23c1d0aed8457a715689c8539d25bcfa91f070f311d87bafa3b1d16647625da1"),
        (SynthSpec((64, 64, 32), 0.2, 0.0, seed=7), StoreParams(diff_bits=4),
         "49de6e2ab7635831e35b2eae8abc986219ac36a9791544a01d792db9801abdb8",
         "e9a9e0ea2d6a249d01aa6245f2431f01402678cd792af5176499536dd9c68a75"),
        (SynthSpec((100, 100, 100), 0.001, 0.0, seed=5), StoreParams(entry_width=6, diff_bits=8),
         "22b3098c134c61e49a9752b3cac3bba65f187aa355bbe00fe4075b2ef7e28218",
         "5629178fd9b518a09edbf8b2ad276ffe9b57cd255489095b5f1e85f47144a4fb"),
        (SynthSpec((64, 64, 50), 0.02, 0.8, seed=11),
         StoreParams(entry_width=5, offset_width=1, diff_bits=12, stride=4),
         "1b39f7798621eda1944c657affbacc5f83e6e12bf7ce718a55770eb4365f3e65",
         "79b165c408e63cd4c4a600c2f17500a52dfd339ad388fd5cee93cca2af72e9a1"),
    ])
    def test_header_bytes_pinned(self, spec, params, boc, dhc):
        # Digests of the headers the byte-at-a-time coders wrote: a vectorised
        # coder must write the same octets.
        rel = generate(spec)
        for scheme, digest in (("boc", boc), ("dhc", dhc)):
            header = build_store(rel, scheme, params).header
            data = header.to_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert type(header).from_bytes(data).positions().tolist() == header.positions().tolist()

    def test_built_and_loaded_answer_identically(self, tmp_path, relation, built):
        rng = random.Random(2)
        cards = relation.schema.cardinalities
        probes = list(relation.cells) + [
            tuple(rng.randrange(c) for c in cards) for _ in range(500)
        ]
        for rep in REPS:
            save_rep(rep, built[rep], tmp_path / rep)
            with load_rep(rep, tmp_path / rep) as loaded:
                for coords in probes:
                    assert loaded.point_query(coords) == built[rep].point_query(coords), rep


class TestSizeReport:
    def test_dhc_memory_exceeds_disk(self, stores):
        rep = stores["dhc"].size_report()
        assert rep.memory_total > rep.disk_total

    def test_simple_headers_add_no_aux(self, stores):
        for scheme in ("schc", "lpc", "boc"):
            rep = stores[scheme].size_report()
            assert rep.memory_total == rep.disk_total

    def test_dsc_not_bigger_than_boc_at_equal_widths(self):
        # Difference entries and offsets both two octets wide; any block
        # length the offsets fit must leave the base array at least as long
        # as the jump array.
        from sparsecube.errors import OffsetOverflowError
        from sparsecube.headers import build_boc

        rng = random.Random(7)
        rel = small_relation(seed=5, cards=(40, 40, 30), density=0.01)
        from sparsecube.relation import logical_position_sequence

        positions = logical_position_sequence(rel)
        boc = None
        for block_len in range(64, 0, -1):
            try:
                boc = build_boc(positions, block_len=block_len, offset_width=2)
                break
            except OffsetOverflowError:
                continue
        from sparsecube.diffseq import build_dsc

        dsc = build_dsc(positions, diff_bits=16)
        assert dsc.size_bytes() <= boc.size_bytes()

    def test_dense_relation_schc_header_is_one_pair(self):
        rel = small_relation(seed=3, cards=(4, 4, 4), density=1.0)
        st = build_store(rel, "schc")
        assert st.header.num_runs == 1
        assert st.size_report().disk["header"] == len(st.header.to_bytes())

    def test_preload_is_everything_but_cells(self, stores):
        for st in stores.values():
            rep = st.size_report()
            assert rep.preload_bytes == rep.memory_total - rep.cell_bytes


class TestBlockCounting:
    def test_one_block_per_present_query(self, tmp_path, relation, stores):
        base = tmp_path / "bc"
        save(stores["dsc"], base)
        cache = SimCache(capacity=1 << 30)
        loaded = load(base, cache=cache)
        try:
            for coords, _ in relation.iter_cells():
                cache.clear()
                before = cache.misses
                loaded.point_query(coords)
                assert cache.misses - before == 1
        finally:
            loaded.close()

    def test_no_blocks_for_absent_query(self, tmp_path, relation, stores):
        base = tmp_path / "bc2"
        save(stores["lpc"], base)
        cache = SimCache(capacity=1 << 30)
        loaded = load(base, cache=cache)
        try:
            cards = relation.schema.cardinalities
            absent = [
                c
                for c in itertools.product(*[range(x) for x in cards])
                if relation.get(c) is None
            ][:50]
            for coords in absent:
                assert loaded.point_query(coords) is None
            assert cache.misses == 0
        finally:
            loaded.close()


class TestMeasureWidth:
    def test_width_four_round_trips_via_float32(self, tmp_path):
        import numpy as np

        rel = small_relation(seed=8)
        rel.measure_width = 4
        st = build_store(rel, "lpc")
        base = tmp_path / "w4"
        save(st, base)
        loaded = load(base)
        try:
            for coords, value in rel.iter_cells():
                assert loaded.point_query(coords) == np.float32(value)
        finally:
            loaded.close()


# The dense-uniform benchmark relation (W2) and acceptance criterion c09's.
HEAP_SPECS = {
    "w2": SynthSpec((128, 128, 64), density=0.20, seed=7),
    "c09": SynthSpec((64, 64, 64, 48), density=0.0159, seed=42),
}


@pytest.fixture(scope="module", params=sorted(HEAP_SPECS))
def heap_relation(request):
    rel = generate(HEAP_SPECS[request.param])
    return ordered_cells(rel)[0], rel.schema.total_cells


class TestResidentHeap:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_loaded_header_heap_is_memory_bytes(self, heap_relation, scheme):
        # The cache model's H is the sum of memory_bytes(): it must be what
        # a loaded header really holds.
        positions, total = heap_relation
        entry = mdstore.REGISTRY[scheme]
        data = entry.build(positions, total, StoreParams(diff_bits=4)).to_bytes()
        tracemalloc.start()
        try:
            header = entry.header.from_bytes(data)
            heap = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert heap <= 1.10 * header.memory_bytes(), (heap, header.memory_bytes())

    @pytest.mark.parametrize(
        "spec, bound",
        [
            # Scan-clustered, 158 distinct gaps at 16 bits.
            (SynthSpec((128, 128, 64), density=0.02, clustering=0.5, seed=1), 2.5),
            # Uniform 1000^3 at 1e-5, 4,648 distinct gaps at 16 bits.
            (SynthSpec((1000, 1000, 1000), density=1e-5, seed=3), 1.6),
        ],
        ids=["scan-clustered", "uniform"],
    )
    def test_dhc_heap_after_a_lookup(self, spec, bound):
        # A codebook with many distinct gaps is held as its canonical ranges,
        # and the first lookup adds one short-prefix table on top of them.
        rel = generate(spec)
        positions = ordered_cells(rel)[0]
        data = mdstore.REGISTRY["dhc"].build(
            positions, rel.schema.total_cells, StoreParams(diff_bits=16)
        ).to_bytes()
        tracemalloc.start()
        try:
            header = mdstore.REGISTRY["dhc"].header.from_bytes(data)
            assert header.lookup(int(positions[-1])) == len(positions) - 1
            assert "_lut" in vars(header.codebook)  # the lookup decoded
            heap = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert heap <= bound * header.memory_bytes(), (heap, header.memory_bytes())

    # Heap over `memory_bytes()` plus the schema JSON after a load and one
    # probe of the scan-clustered relation (measured 1.59, 1.02, 1.05, 1.10
    # and 1.94); DHC's excess is its lookup's short-prefix table.
    WHOLE_STORE_BOUNDS = {"schc": 1.7, "lpc": 1.15, "boc": 1.15, "dsc": 1.15, "dhc": 2.1}

    @pytest.fixture(scope="class")
    def scan_clustered_files(self, tmp_path_factory):
        rel = generate(SynthSpec((128, 128, 64), density=0.02, clustering=0.5, seed=1))
        tmp = tmp_path_factory.mktemp("heap")
        for rep, store in {
            **{s: build_store(rel, s, StoreParams()) for s in SCHEMES},
            "table": tablestore.build_table(rel),
        }.items():
            save_rep(rep, store, tmp / rep)
        # The last cell: DHC decodes up to it, so its lookup table is built.
        _, coords, measures = ordered_cells(rel)
        return tmp, tuple(coords[-1].tolist()), float(measures[-1])

    @pytest.mark.parametrize("rep", REPS)
    def test_loaded_store_heap_after_a_probe(self, scan_clustered_files, rep):
        # The whole store, schema included: each label is no `str` of its own.
        base, probe, value = scan_clustered_files
        tracemalloc.start()
        try:
            store = load_rep(rep, base / rep)
            try:
                assert store.point_query(probe) == value
                heap = tracemalloc.get_traced_memory()[0]
            finally:
                store.close()
        finally:
            tracemalloc.stop()
        schema = len(schema_to_json(store.schema, store.measure_width))
        if rep == "table":
            assert heap <= 3 * schema, (heap, schema)
        else:
            modelled = store.header.memory_bytes() + schema
            assert heap <= self.WHOLE_STORE_BOUNDS[rep] * modelled, (heap, modelled)
