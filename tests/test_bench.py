import hashlib

import pytest

from sparsecube import bench, mdstore, tablestore
from sparsecube.bench import (
    cold_miss_counts,
    default_budgets,
    estimate_constants,
    memory_sweep,
    sample_coords,
)
from sparsecube.blockio import SimCache
from sparsecube.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    # Scattered relation: wide gaps give the difference header dense jumps,
    # which keeps point queries cheap.
    tmp = tmp_path_factory.mktemp("bench")
    rel = generate(SynthSpec((40, 40, 24), density=0.13, seed=6))
    st = mdstore.build_store(rel, "dhc", mdstore.StoreParams(diff_bits=4, stride=16))
    mdstore.save(st, tmp / "md")
    tb = tablestore.build_table(rel)
    tablestore.save_table(tb, tmp / "tbl")
    return tmp


@pytest.fixture
def opened(saved_pair):
    md_cache = SimCache(bench.UNBOUNDED)
    tbl_cache = SimCache(bench.UNBOUNDED)
    md = mdstore.load(saved_pair / "md", cache=md_cache)
    tbl = tablestore.load_table(saved_pair / "tbl", cache=tbl_cache)
    yield md, md_cache, tbl, tbl_cache
    md.close()
    tbl.close()


class TestEstimate:
    def test_constants_and_miss_shape(self, opened):
        md, md_cache, tbl, tbl_cache = opened
        result = estimate_constants(md, md_cache, tbl, tbl_cache, sample_size=400, seed=1)
        p = result.params
        assert 0 < p.md.M < p.md.D
        assert 0 < p.tbl.M < p.tbl.D
        assert all(m == 0 for m in result.md_warm_misses)
        assert all(m == 0 for m in result.tbl_warm_misses)
        assert all(m <= 1 for m in result.md_cold_misses)
        assert all(m >= 2 for m in result.tbl_cold_misses)
        assert p.cell_bytes == md.size_report().cell_bytes
        assert p.table_bytes == tbl.total_size()

    def test_first_samples_run_once_untimed(self):
        # One-time costs of a fresh process fall before the timed pairs.
        calls = []
        coords = list(range(bench.WARMUP_QUERIES + 2))
        cold, warm, _, _ = bench._paired_times(calls.append, coords, SimCache(bench.UNBOUNDED))
        assert calls == coords[: bench.WARMUP_QUERIES] + [c for c in coords for _ in "cw"]
        assert len(cold) == len(warm) == len(coords)

    def test_sample_requires_positive_size(self, opened):
        md, md_cache, *_ = opened
        with pytest.raises(ValueError):
            sample_coords(md, 0, 1)

    def test_sample_past_the_draw_bound_rejected(self, opened):
        md, *_ = opened
        with pytest.raises(ValueError, match=f"sample size {bench.MAX_DRAWS + 1} is not in"):
            sample_coords(md, bench.MAX_DRAWS + 1, 1)

    def test_sample_deterministic(self, opened):
        md, *_ = opened
        assert sample_coords(md, 50, 9) == sample_coords(md, 50, 9)

    def test_sample_pinned(self, opened):
        # Drawn from the stored coordinates in physical order; any change to
        # that order or to the draw changes the probes of every experiment.
        md, *_ = opened
        coords = sample_coords(md, 50, 9)
        assert coords == [
            (18, 6, 4), (14, 17, 22), (5, 8, 16), (34, 21, 9), (0, 8, 23), (19, 30, 20),
            (35, 39, 6), (2, 36, 6), (21, 35, 22), (24, 20, 11), (1, 19, 0),
            (14, 26, 2), (27, 38, 22), (17, 25, 4), (28, 33, 18), (5, 39, 11),
            (9, 1, 19), (4, 4, 23), (19, 37, 6), (36, 38, 14), (23, 18, 0), (30, 31, 8),
            (14, 31, 12), (29, 30, 8), (3, 28, 10), (11, 3, 0), (26, 29, 17),
            (28, 34, 7), (16, 18, 8), (3, 5, 6), (10, 4, 8), (7, 38, 5), (10, 27, 11),
            (32, 9, 10), (7, 21, 9), (35, 17, 13), (35, 4, 20), (1, 37, 1), (14, 26, 1),
            (19, 9, 1), (0, 32, 11), (16, 23, 4), (36, 12, 12), (4, 6, 6), (23, 29, 7),
            (4, 23, 0), (22, 36, 20), (35, 32, 12), (7, 26, 22), (0, 10, 1),
        ]
        assert all(type(x) is int for c in coords for x in c)

    def test_cold_miss_counts_use_fresh_state(self, opened):
        md, md_cache, *_ = opened
        coords = sample_coords(md, 30, 2)
        first = cold_miss_counts(md.point_query, coords, md_cache)
        second = cold_miss_counts(md.point_query, coords, md_cache)
        assert first == second


def constants_for(md, tbl):
    from sparsecube.cachemodel import CacheModelParams, RepConstants

    rep = md.size_report()
    return CacheModelParams(
        md=RepConstants(0.01, 1.0),
        tbl=RepConstants(0.02, 2.0),
        preload_bytes=rep.preload_bytes,
        cell_bytes=rep.cell_bytes,
        table_bytes=tbl.total_size(),
    )


class TestSweep:
    def run(self, opened, **kw):
        md, md_cache, tbl, tbl_cache = opened
        params = constants_for(md, tbl)
        md_budgets, tbl_budgets = default_budgets(params, points=4)
        return memory_sweep(
            md, md_cache, tbl, tbl_cache, params, md_budgets, tbl_budgets,
            samples=40, passes=6, seed=3, **kw,
        )

    def test_csv_schema(self, opened):
        result = self.run(opened)
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "rep,budget_octets,pass,used_octets,misses,avg_sim_ms,model_ms"
        assert len(lines) == 1 + 2 * 4 * 6  # reps * budgets * passes

    def test_deterministic(self, saved_pair):
        def once():
            md_cache = SimCache(bench.UNBOUNDED)
            tbl_cache = SimCache(bench.UNBOUNDED)
            md = mdstore.load(saved_pair / "md", cache=md_cache)
            tbl = tablestore.load_table(saved_pair / "tbl", cache=tbl_cache)
            try:
                params = constants_for(md, tbl)
                md_b, tbl_b = default_budgets(params, points=3)
                out = memory_sweep(
                    md, md_cache, tbl, tbl_cache, params, md_b, tbl_b,
                    samples=30, passes=4, seed=5,
                )
                return out.to_csv()
            finally:
                md.close()
                tbl.close()

        assert once() == once()

    def test_used_memory_grows_until_capacity(self, opened):
        result = self.run(opened)
        by_key = {}
        for row in result.rows:
            by_key.setdefault((row.rep, row.budget), []).append(row.used)
        for used in by_key.values():
            top = max(used)
            i = used.index(top)
            filling = used[: i + 1]
            assert filling == sorted(filling)
            # At capacity the replacement of unequal-sized blocks may wiggle
            # the resident total by less than one block.
            assert all(u > top - 4096 for u in used[i:])

    def test_zero_budget_measures_pure_disk_path(self, opened):
        md, md_cache, tbl, tbl_cache = opened
        params = constants_for(md, tbl)
        result = memory_sweep(
            md, md_cache, tbl, tbl_cache, params,
            [params.preload_bytes], [0],
            samples=25, passes=3, seed=4,
        )
        for s in result.summaries:
            want = params.md.D if s.rep == "md" else params.tbl.D
            assert s.measured_ms == pytest.approx(want)
            assert s.model_ms == pytest.approx(want)

    def test_single_point_ladder_rejected(self, opened):
        md, md_cache, tbl, tbl_cache = opened
        with pytest.raises(ValueError):
            default_budgets(constants_for(md, tbl), points=1)

    def test_draws_past_the_bound_rejected(self, opened):
        md, md_cache, tbl, tbl_cache = opened
        params = constants_for(md, tbl)
        with pytest.raises(ValueError, match=f"needs 2..{bench.MAX_DRAWS} budget points"):
            default_budgets(params, points=bench.MAX_DRAWS + 1)
        # Each count is within the bound; their product, the draws per budget, is not.
        with pytest.raises(ValueError, match=f"times passes 1025 is not in 1..{bench.MAX_DRAWS}"):
            memory_sweep(md, md_cache, tbl, tbl_cache, params, [params.preload_bytes], [0],
                         samples=1024, passes=1025)
        assert [(c.hits, c.misses) for c in (md_cache, tbl_cache)] == [(0, 0), (0, 0)]

    def test_budget_below_preload_rejected(self, opened):
        md, md_cache, tbl, tbl_cache = opened
        params = constants_for(md, tbl)
        h = params.preload_bytes
        for md_budget, tbl_budget, message in (
            (h - 1, 0, f"budget {h - 1} below the preloaded size {h}$"),
            (h, -5, "budget -5 below 0$"),
        ):
            with pytest.raises(ValueError, match=message):
                memory_sweep(
                    md, md_cache, tbl, tbl_cache, params, [h, md_budget], [tbl_budget],
                    samples=5, passes=1, seed=1,
                )
            # Every budget is checked before either side is simulated.
            assert [(c.hits, c.misses) for c in (md_cache, tbl_cache)] == [(0, 0), (0, 0)]

    def test_reads_no_cell_or_row_block_and_leaves_the_caches(self, opened, monkeypatch):
        md, md_cache, tbl, tbl_cache = opened
        # Caches the sweep must leave as it finds them: bounded, part full.
        md_cache.set_capacity(3 * 4096)
        tbl_cache.set_capacity(5 * tbl.page_size)
        for coords in sample_coords(md, 20, 1):
            md.point_query(coords)
            tbl.point_query(coords)
        found = [
            (c.capacity, list(c._resident.items()), c.used_bytes, c.hits, c.misses)
            for c in (md_cache, tbl_cache)
        ]
        walking = []  # nonempty while the table's `block_touches` runs
        loads = {}  # reader name: for each block loaded, whether during the walk

        def spy(reader):
            load = reader._load_block
            loads[reader.name] = []

            def spied(block_no):
                loads[reader.name].append(bool(walking))
                return load(block_no)
            return spied

        for reader in (*md.readers(), *tbl.readers()):
            monkeypatch.setattr(reader, "_load_block", spy(reader))
        walk = tbl.block_touches

        def touches(positions):
            walking.append(True)
            try:
                return walk(positions)
            finally:
                walking.pop()

        monkeypatch.setattr(tbl, "block_touches", touches)
        params = constants_for(md, tbl)
        md_budgets, tbl_budgets = default_budgets(params, points=4)
        samples, passes = 40, 6
        result = memory_sweep(
            md, md_cache, tbl, tbl_cache, params, md_budgets, tbl_budgets,
            samples=samples, passes=passes, seed=3,
        )
        assert loads["md.cells"] == [] and loads["tbl.rows"] == []
        assert loads["tbl.idx"] and all(loads["tbl.idx"])
        # Every sampled position is a stored cell: one cells block each for
        # the md store, and the meta page, one page per level and one rows
        # block each for the table.
        touches_per_query = {"md": 1, "tbl": tbl.height + 2}
        for (capacity, resident, used, hits, misses), cache, rep, budgets in zip(
            found, (md_cache, tbl_cache), ("md", "tbl"), (md_budgets, tbl_budgets)
        ):
            assert cache.capacity == capacity
            assert list(cache._resident.items()) == resident
            assert cache.used_bytes == used
            swept = sum(row.misses for row in result.rows if row.rep == rep)
            assert cache.misses - misses == swept
            touched = touches_per_query[rep] * samples * passes * len(budgets)
            assert cache.hits - hits == touched - swept


@pytest.fixture(scope="module")
def small_page_pair(tmp_path_factory):
    # Clustered cells with a DHC header at 4-bit differences, and a table
    # whose 128-octet pages hold 7 entries, so its index is 3 levels high.
    tmp = tmp_path_factory.mktemp("small_page")
    rel = generate(SynthSpec((30, 20, 16), density=0.12, clustering=0.4, seed=11))
    st = mdstore.build_store(rel, "dhc", mdstore.StoreParams(diff_bits=4, stride=16))
    mdstore.save(st, tmp / "md")
    tb = tablestore.build_table(rel, tablestore.TableParams(page_size=128))
    assert tb.height >= 3
    tablestore.save_table(tb, tmp / "tbl")
    return tmp


def pinned_sweep(base, block_size=4096):
    """Digest of a fixed sweep over the pair saved at `base`, and the four
    cache counters it leaves (md hits, md misses, table hits, table misses)."""
    md_cache = SimCache(bench.UNBOUNDED)
    tbl_cache = SimCache(bench.UNBOUNDED)
    with mdstore.load(base / "md", cache=md_cache, block_size=block_size) as md, \
            tablestore.load_table(base / "tbl", cache=tbl_cache) as tbl:
        params = constants_for(md, tbl)
        md_b, tbl_b = default_budgets(params, points=5)
        text = memory_sweep(
            md, md_cache, tbl, tbl_cache, params, md_b, tbl_b, samples=40, passes=6, seed=3
        ).to_csv()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return digest, (md_cache.hits, md_cache.misses, tbl_cache.hits, tbl_cache.misses)


class TestSweepPinned:
    """Sweep CSVs and cache counters, byte for byte, as the query-by-query
    sweep produced them; the replayed sweep must not move either."""

    def test_saved_pair(self, saved_pair):
        assert pinned_sweep(saved_pair) == (
            "fedf531b60876bdcd0a535712868c7bfdc20557e72011ec969a91966918af6d4",
            (557, 643, 2441, 1159),
        )

    def test_three_level_index(self, small_page_pair):
        assert pinned_sweep(small_page_pair) == (
            "c3d82c6cf19442369f51462c648c99f6e1d8e35e78f0918bffffb284c422579c",
            (479, 721, 3994, 2006),
        )

    def test_cells_straddle_blocks(self, small_page_pair):
        # 100-octet blocks put some 8-octet cells across two blocks.
        assert pinned_sweep(small_page_pair, block_size=100) == (
            "486b96cea620e5a5ff67da9a913cea57aadb87cdaf55be39645f2ec6b0a5fe58",
            (471, 780, 3994, 2006),
        )
