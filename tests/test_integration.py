"""Randomized whole-store checks cutting across modules."""

import random
import sys
import threading

import pytest

from sparsecube import mdstore, tablestore
from sparsecube.blockio import SimCache
from sparsecube.diffseq import build_dhc, build_dsc
from sparsecube.errors import OffsetOverflowError
from sparsecube.headers import build_boc, build_lpc, build_schc
from sparsecube.mdstore import SCHEMES, StoreParams, build_boc_with_retry, build_store
from sparsecube.relation import DimensionSchema, Relation
from sparsecube.synth import SynthSpec, generate


def test_randomized_configs_agree_everywhere(tmp_path, monkeypatch):
    monkeypatch.setattr(tablestore, "PAGE_SIZE", 256)
    rng = random.Random(77)
    for trial in range(12):
        n_dims = rng.randint(1, 4)
        cards = tuple(rng.randint(2, 12) for _ in range(n_dims))
        spec = SynthSpec(
            cards,
            density=rng.choice([0.05, 0.2, 0.6]),
            clustering=rng.choice([0.0, 0.5, 1.0]),
            seed=trial,
        )
        rel = generate(spec)
        params = StoreParams(
            diff_bits=rng.choice([4, 8, 16]),
            stride=rng.choice([1, 4, 16]),
            block_len=rng.choice([1, 4, 16]),
            offset_width=rng.choice([2, 3]),
        )
        stores = {}
        for scheme in SCHEMES:
            store = build_store(rel, scheme, params)
            base = tmp_path / f"{trial}-{scheme}"
            mdstore.save(store, base)
            stores[scheme] = mdstore.load(base, cache=SimCache(1 << 30))
        table = tablestore.build_table(rel)
        try:
            probes = list(rel.cells) + [
                tuple(rng.randrange(c) for c in cards) for _ in range(300)
            ]
            for coords in probes:
                want = rel.get(coords)
                assert table.point_query(coords) == want
                for scheme, store in stores.items():
                    assert store.point_query(coords) == want, (trial, scheme, coords)
        finally:
            for store in stores.values():
                store.close()


def test_positions_near_the_64_bit_boundary():
    top = (1 << 64) - 1
    positions = [1 << 63, (1 << 63) + 5, top - 7, top - 1]
    total = 1 << 64  # would overflow a schema, but headers take raw positions

    schc = build_schc(positions, total - 1 + 1)
    lpc = build_lpc(positions)
    boc = build_boc(positions, block_len=2, offset_width=4)
    dsc = build_dsc(positions, diff_bits=8)
    dhc = build_dhc(positions, diff_bits=8)
    queries = positions + [0, (1 << 63) + 1, top - 6, top]
    want = [lpc.lookup(q) for q in queries]
    for header in (schc, boc, dsc, dhc):
        assert [header.lookup(q) for q in queries] == want
    for header, cls in (
        (lpc, type(lpc)), (schc, type(schc)), (boc, type(boc)),
        (dsc, type(dsc)), (dhc, type(dhc)),
    ):
        assert cls.from_bytes(header.to_bytes()).positions().tolist() == positions


def test_boc_width_retry_helper():
    # Gap of 100000 overflows two-octet offsets at block length 16.
    positions = list(range(50)) + [100050 + i for i in range(50)]
    rel = Relation(
        DimensionSchema.from_cardinalities((1 << 18,)),
        {(p,): 1.0 for p in positions},
    )
    params = StoreParams(offset_width=2, block_len=16)
    with pytest.raises(OffsetOverflowError):
        build_boc(positions, block_len=16, offset_width=2)
    assert build_boc_with_retry is build_store
    store = build_store(rel, "boc", params)
    assert store.header.offset_width == 3
    assert store.header.block_len == 16
    for p in positions:
        assert store.point_query((p,)) == 1.0


def test_concurrent_queries_through_shared_cache(tmp_path):
    rel = generate(SynthSpec((16, 16, 16), density=0.2, seed=5))
    store = build_store(rel, "dhc", StoreParams(diff_bits=8))
    mdstore.save(store, tmp_path / "c")
    cache = SimCache(capacity=64 * 1024)
    loaded = mdstore.load(tmp_path / "c", cache=cache)
    probes = list(rel.cells)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(400):
            coords = rng.choice(probes)
            try:
                if loaded.point_query(coords) != rel.get(coords):
                    errors.append(coords)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loaded.close()
    assert not errors


def test_counters_stay_exact_under_threads(tmp_path):
    """Eight threads probe stored cells of a loaded md store and a loaded
    table, each on a cache that evicts: every answer is right, and each
    cache counts one hit or one miss per block read, 1 per md query and
    `height + 1` per table query."""
    rel = generate(SynthSpec((32, 32, 32), density=0.2, seed=6))
    mdstore.save(build_store(rel, "lpc"), tmp_path / "m")
    tablestore.save_table(tablestore.build_table(rel), tmp_path / "t")
    md_cache, tbl_cache = SimCache(2 * 4096), SimCache(3 * 4096)
    md = mdstore.load(tmp_path / "m", cache=md_cache)
    table = tablestore.load_table(tmp_path / "t", cache=tbl_cache)
    probes = list(rel.cells)
    queries = 500
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(queries):
            coords = rng.choice(probes)
            try:
                for store in (md, table):
                    if store.point_query(coords) != rel.get(coords):
                        errors.append((store, coords))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-read too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    md.close()
    table.close()
    assert not errors
    blocks = (md.readers()[0].file_size // 4096 + 1, table.n_groups + table.root_page + 1)
    for cache, per_query, n_blocks in zip((md_cache, tbl_cache), (1, table.height + 1), blocks):
        assert cache.hits + cache.misses == 8 * queries * per_query
        assert cache.misses > n_blocks  # blocks were evicted and read again
        assert cache.used_bytes <= cache.capacity
