"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from functools import lru_cache
from pathlib import Path

import pytest

from sparsecube import bench, cachemodel, mdstore, relation, tablestore
from sparsecube.blockio import SimCache
from sparsecube.cachemodel import (
    CacheModelParams,
    RepConstants,
    expected_time,
    md_faster_iff,
    md_line,
    md_pm_sufficient_threshold,
    md_sufficient_threshold,
    table_sufficient_threshold,
)
from sparsecube.diffseq import build_dhc, build_dsc, difference_arrays
from sparsecube.errors import OffsetOverflowError
from sparsecube.headers import build_boc, build_lpc, build_schc
from sparsecube.huffman import build_codebook, decode_stream, encode_sequence
from sparsecube.mdstore import SCHEMES, StoreParams, build_boc_with_retry, build_store
from sparsecube.relation import logical_position_sequence
from sparsecube.synth import SynthSpec, generate


def ok(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:>2} PASS: {message}")


# -- criterion 1 -------------------------------------------------------------

PRODUCT_BUDGET = {0.001: 500_000, 0.01: 50_000, 0.1: 2_500, 0.5: 700, 0.9: 400}


def criterion1_configs():
    rng = random.Random(20260810)
    densities = sorted(PRODUCT_BUDGET)
    for i in range(50):
        density = densities[i % 5]
        n_dims = 2 + (i // 5) % 3
        cards = [rng.randint(2, 64) for _ in range(n_dims)]
        budget = PRODUCT_BUDGET[density]
        while True:
            product = 1
            for c in cards:
                product *= c
            if product <= budget:
                break
            j = max(range(n_dims), key=lambda k: cards[k])
            cards[j] = max(2, cards[j] // 2)
        clustering = 0.0 if i % 2 == 0 else 0.6
        yield SynthSpec(tuple(cards), density=density, clustering=clustering, seed=1000 + i)


def test_c01_oracle_equivalence():
    params = StoreParams(diff_bits=8, block_len=8, stride=16)
    rng = random.Random(99)
    relations = probes_checked = 0
    for spec in criterion1_configs():
        rel = generate(spec)
        stores = {s: build_boc_with_retry(rel, s, params) for s in SCHEMES}
        cards = rel.schema.cardinalities
        probes = list(rel.cells)
        probes += [
            tuple(rng.randrange(c) for c in cards) for _ in range(10_000)
        ]
        for coords in probes:
            want = rel.get(coords)
            for scheme, store in stores.items():
                got = store.point_query(coords)
                assert got == want, (spec, scheme, coords, got, want)
        relations += 1
        probes_checked += len(probes)
    assert relations == 50
    ok(1, f"5 schemes x {relations} relations, {probes_checked} probes each scheme, 0 mismatches")


# -- criterion 2 -------------------------------------------------------------

def reconstruct(diffs, jumps):
    """Rebuild rule applied literally (independent oracle)."""
    out = []
    for d in diffs:
        if d > 0:
            out.append(out[-1] + d)
        else:
            prev = out[-1] if out else -1
            out.append(min(x for x in jumps if x > prev))
    return out


def random_positions(rng, n, gap_scale):
    cur = rng.randint(0, 3)
    out = [cur]
    for _ in range(n - 1):
        cur += rng.randint(1, gap_scale)
        out.append(cur)
    return out


def test_c02_difference_reconstruction_exact():
    rng = random.Random(2)
    checked = 0
    for _ in range(1000):
        positions = random_positions(rng, rng.randint(1, 250), rng.choice([3, 40, 2000, 300_000]))
        for bits in (4, 8, 12, 16):
            arr, diffs, jump_idx = difference_arrays(positions, bits)
            assert reconstruct(diffs.tolist(), arr[jump_idx].tolist()) == positions
            checked += 1
    ok(2, f"{checked} (sequence, width) rebuilds, all exact")


# -- criterion 3 -------------------------------------------------------------

def widest_valid_boc(positions, offset_width, cap=64):
    for block_len in range(cap, 0, -1):
        try:
            return build_boc(positions, block_len=block_len, offset_width=offset_width)
        except OffsetOverflowError:
            continue
    raise AssertionError("block length 1 always fits")


def test_c03_jumps_never_exceed_bases():
    rng = random.Random(3)
    for trial in range(1000):
        offset_width, bits = ((1, 8) if trial % 2 == 0 else (2, 16))
        positions = random_positions(
            rng, rng.randint(1, 120), rng.choice([10, 300, 5_000, 200_000])
        )
        _, _, jump_idx = difference_arrays(positions, bits)
        boc = widest_valid_boc(positions, offset_width)
        assert len(jump_idx) <= len(boc.bases), (trial, len(jump_idx), len(boc.bases))
    ok(3, "1000 sequences at matched widths, jumps <= base entries throughout")


# -- criterion 4 -------------------------------------------------------------

def test_c04_position_list_vs_run_pairs_size_law():
    rng = random.Random(4)
    for _ in range(1000):
        total = rng.randint(4, 3000)
        n = rng.randint(1, total)
        positions = sorted(rng.sample(range(total), n))
        schc = build_schc(positions, total)
        lpc = build_lpc(positions)
        assert (lpc.size_bytes() < schc.size_bytes()) == (n / 2 < schc.num_runs)
    ok(4, "1000 relations, size rule exact")


# -- criterion 5 -------------------------------------------------------------

def optimal_tree_cost(weights):
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
        while True:
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


def test_c05_prefix_code_optimality_and_round_trip():
    rng = random.Random(5)
    for _ in range(1000):
        k = rng.randint(2, 6)
        freqs = {s: rng.randint(1, 50) for s in rng.sample(range(1000), k)}
        cb = build_codebook(freqs)
        bits = sum(cb.lengths[s] * n for s, n in freqs.items())
        assert bits == optimal_tree_cost(list(freqs.values()))
    for trial in range(10_000):
        k = rng.randint(1, 300)
        alphabet = rng.sample(range(100_000), k)
        freqs = {s: rng.randint(1, 100) for s in alphabet}
        cb = build_codebook(freqs)
        seq = rng.choices(alphabet, k=rng.randint(0, 80))
        stream, _ = encode_sequence(cb, seq)
        assert decode_stream(cb, stream, len(seq))[0].tolist() == seq, trial
    ok(5, "1000 small alphabets optimal; 10000 round-trips identical")


# -- criteria 6 and 7 --------------------------------------------------------

TPCD = CacheModelParams(
    md=RepConstants(M=0.031, D=6.169),
    tbl=RepConstants(M=0.021, D=16.724),
    preload_bytes=1, cell_bytes=1, table_bytes=1,
)
APB = CacheModelParams(
    md=RepConstants(M=0.012, D=6.778),
    tbl=RepConstants(M=0.128, D=19.841),
    preload_bytes=1, cell_bytes=1, table_bytes=1,
)


def test_c06_published_threshold_numbers():
    tol = 1e-3
    assert md_sufficient_threshold(TPCD) == pytest.approx(0.632, abs=tol)
    assert md_sufficient_threshold(APB) == pytest.approx(0.663, abs=tol)
    assert table_sufficient_threshold(TPCD) == pytest.approx(0.999, abs=tol)
    assert table_sufficient_threshold(APB) is None
    assert md_pm_sufficient_threshold(APB) == pytest.approx(0.983, abs=tol)
    assert md_pm_sufficient_threshold(TPCD) is None
    s1, i1 = md_line(TPCD)
    assert s1 == pytest.approx(0.368, abs=tol)
    assert i1 == pytest.approx(0.632, abs=tol)
    s2, i2 = md_line(APB)
    assert s2 == pytest.approx(0.343, abs=tol)
    assert i2 == pytest.approx(0.663, abs=tol)
    ok(6, "0.632/0.663, 0.999, 0.983 and both boundary lines within 0.001")


def test_c07_boundary_line_equals_direct_comparison():
    for name, params in (("first", TPCD), ("second", APB)):
        for i in range(101):
            p_m = i / 100
            e_m = expected_time(p_m, params.md)
            for j in range(101):
                p_t = j / 100
                assert md_faster_iff(p_m, p_t, params) == (
                    e_m < expected_time(p_t, params.tbl)
                ), (name, p_m, p_t)
    ok(7, "2 x 101 x 101 grid, line and direct comparison agree exactly")


# -- criterion 8 -------------------------------------------------------------

def test_c08_size_ordering_clustered_at_scale():
    rel = generate(SynthSpec((64, 64, 50, 49), density=0.01, clustering=0.8, seed=88))
    assert rel.n_cells >= 100_000
    positions = logical_position_sequence(rel)
    cell_bytes = rel.n_cells * rel.measure_width
    schema_bytes = len(relation.schema_to_json(rel.schema, rel.measure_width))

    dsc = build_dsc(positions, diff_bits=16)
    dhc = build_dhc(positions, diff_bits=16)
    boc = build_boc_with_retry(rel, "boc", StoreParams(block_len=16, offset_width=2)).header

    disk = {
        name: len(h.to_bytes()) + cell_bytes + schema_bytes
        for name, h in (("boc", boc), ("dsc", dsc), ("dhc", dhc))
    }
    dhc_memory = disk["dhc"] + dhc.memory_bytes() - dhc.size_bytes()
    assert disk["dhc"] < disk["dsc"] < disk["boc"], disk
    assert disk["dhc"] < dhc_memory < 1.05 * disk["dhc"], (disk["dhc"], dhc_memory)
    ok(
        8,
        f"N={rel.n_cells}: dhc {disk['dhc']} < dsc {disk['dsc']} < boc {disk['boc']}; "
        f"dhc memory overhead {dhc_memory / disk['dhc'] - 1:.3%}",
    )


# -- criteria 9 and 10 (share one store pair) --------------------------------

@pytest.fixture(scope="module")
def sweep_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    rel = generate(SynthSpec((64, 64, 64, 48), density=0.0159, seed=42))
    md_store = build_store(rel, "dhc", StoreParams(diff_bits=4, stride=16))
    tbl_store = tablestore.build_table(rel)
    mdstore.save(md_store, tmp / "md")
    tablestore.save_table(tbl_store, tmp / "tbl")
    md_cache = SimCache(bench.UNBOUNDED)
    tbl_cache = SimCache(bench.UNBOUNDED)
    md = mdstore.load(tmp / "md", cache=md_cache)
    tbl = tablestore.load_table(tmp / "tbl", cache=tbl_cache)
    est = bench.estimate_constants(md, md_cache, tbl, tbl_cache, sample_size=1000, seed=7)
    yield md, md_cache, tbl, tbl_cache, est
    md.close()
    tbl.close()


def test_c09_model_fit_sweep(sweep_setup):
    md, md_cache, tbl, tbl_cache, est = sweep_setup
    params = est.params
    md_budgets, tbl_budgets = bench.default_budgets(params, points=20)
    result = bench.memory_sweep(
        md, md_cache, tbl, tbl_cache, params, md_budgets, tbl_budgets,
        samples=300, passes=100, seed=11,
    )
    bounds = {"md": 0.10, "tbl": 0.20}
    worst = {"md": 0.0, "tbl": 0.0}
    for s in result.summaries:
        assert s.rel_deviation <= bounds[s.rep], (s.rep, s.budget, s.rel_deviation)
        worst[s.rep] = max(worst[s.rep], s.rel_deviation)
    ok(
        9,
        f"20-point sweep: worst deviation md {worst['md']:.2%} (<=10%), "
        f"table {worst['tbl']:.2%} (<=20%)",
    )


def test_c10_block_touch_asymmetry(sweep_setup):
    md, md_cache, tbl, tbl_cache, est = sweep_setup
    coords = bench.sample_coords(md, 1000, seed=13)
    md_cache.set_capacity(bench.UNBOUNDED)
    tbl_cache.set_capacity(bench.UNBOUNDED)
    md_misses = bench.cold_miss_counts(md.point_query, coords, md_cache)
    tbl_misses = bench.cold_miss_counts(tbl.point_query, coords, tbl_cache)
    assert max(md_misses) <= 1
    assert min(tbl_misses) >= 2
    ok(
        10,
        f"1000 cold probes: md misses <= {max(md_misses)}, "
        f"table misses >= {min(tbl_misses)}",
    )


# -- criterion 11 ------------------------------------------------------------

def test_c11_declared_not_reproducible():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "not reproduced at desk scale" in text
    for phrase in ("absolute", "speedup"):
        assert phrase in text
    ok(
        11,
        "declared: absolute byte counts, absolute millisecond constants and "
        "published speedup factors need the full benchmark databases and the "
        "original hardware; criteria 1-10 check properties and shapes instead",
    )
