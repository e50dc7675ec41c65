"""Constant estimation and memory-sweep experiments over loaded stores.

Estimation samples stored cells with replacement and times each sample
element twice, back to back: once cold, right after the cache was cleared
(so the per-query miss counts reflect untouched disk), and once warm, with
every block the cold query touched still resident.  D and M are the medians
of the per-query cold and warm times.  Pairing the two queries and taking
medians keeps a preemption from tipping one side only: for a
multidimensional store the cold query differs from the warm one by a single
block read, a small share of the query, and means over two separately timed
passes could come out inverted.  The cold query goes first so that, like a
disk-path query in the sweep, it finds no trace of the cell in the
processor caches; it also primes the warm query.

The sweep replays sampled queries at a ladder of memory budgets.  Per query
it charges a synthetic time of M when the cache absorbed every block touch
and D otherwise; miss counts are deterministic, so the emitted CSV is too.
It runs no queries.  Each sampled query is a stored cell drawn by its rank
(its place in position order), and each store's `block_touches` works out
from the ranks in numpy an integer code for every block each query reads:
the cell's block for the multidimensional store, and for the table one
index page per level and the row group, which follow from the rank since
a load has proved the index canonical.  One
`blockio.lru_misses` per budget runs those codes through the cache's LRU
rule from an empty cache, giving each query's misses and the memory used
at each pass boundary.  The sweep reads no file, and the stores' caches
stay as it found them, except that their counters gain the simulated hits
and misses.
The model curve is evaluated at the memory actually used mid-pass (for the
multidimensional representation the preloaded size counts toward the
budget), which is what the measured averages are compared against.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from .blockio import SimCache, lru_misses
from .cachemodel import CacheModelParams, RepConstants, t_m, t_t
from .mdstore import MultidimStore
from .relation import decode_positions
from .tablestore import TableStore

UNBOUNDED = 1 << 60
# The most draws of one kind: estimate samples, ladder points, sweep samples x passes.
MAX_DRAWS = 1 << 20

SWEEP_COLUMNS = ("rep", "budget_octets", "pass", "used_octets", "misses", "avg_sim_ms", "model_ms")


@dataclass
class EstimateResult:
    params: CacheModelParams
    md_cold_misses: list[int]
    tbl_cold_misses: list[int]
    md_warm_misses: list[int]
    tbl_warm_misses: list[int]


def sample_coords(
    store: MultidimStore | TableStore, size: int, seed: int
) -> list[tuple[int, ...]]:
    """Uniform sample, with replacement, of stored cell coordinates.

    Either store serves: both give their positions in rank order
    (`positions()`) and their `schema`, so a pair that holds one relation
    gives the same sample from either side.  The table's come from one read
    of its row file, with no header to decode.
    """
    if not 1 <= size <= MAX_DRAWS:
        raise ValueError(f"sample size {size} is not in 1..{MAX_DRAWS}")
    positions = store.positions()
    drawn = positions[random.Random(seed).choices(range(len(positions)), k=size)]
    return list(zip(*(column.tolist() for column in decode_positions(drawn, store.schema))))


WARMUP_QUERIES = 8


def _paired_times(query, coords: Sequence, cache: SimCache):
    """Per-query cold and warm times (ms) and miss counts, each pair back to back.

    The cold query runs on an emptied cache and leaves every block it touched
    resident, so it also primes the warm query that follows it.  The first
    WARMUP_QUERIES sample elements run once, untimed, before any pair: the
    first queries of a process pay one-time costs (a decode table, the
    interpreter specializing a lookup path), and in a sample of three those
    alone could put the warm median above the cold one.
    """
    for c in coords[:WARMUP_QUERIES]:
        query(c)
    clock = time.perf_counter
    cold_ms, warm_ms, cold_misses, warm_misses = [], [], [], []
    for c in coords:
        cache.clear()
        before = cache.misses
        t0 = clock()
        query(c)
        t1 = clock()
        middle = cache.misses
        t2 = clock()
        query(c)
        t3 = clock()
        cold_misses.append(middle - before)
        warm_misses.append(cache.misses - middle)
        cold_ms.append((t1 - t0) * 1000.0)
        warm_ms.append((t3 - t2) * 1000.0)
    return cold_ms, warm_ms, cold_misses, warm_misses


def cold_miss_counts(query, coords: Sequence, cache: SimCache) -> list[int]:
    """Per-query miss counts, each query issued against an emptied cache: the cold
    half of `_paired_times`."""
    return _paired_times(query, coords, cache)[2]


def estimate_constants(
    md_store: MultidimStore,
    md_cache: SimCache,
    tbl_store: TableStore,
    tbl_cache: SimCache,
    sample_size: int = 1000,
    seed: int = 0,
) -> EstimateResult:
    """Fit D and M per representation as medians of paired cold/warm queries."""
    coords = sample_coords(tbl_store, sample_size, seed)

    results = {}
    misses = {}
    for rep, query, cache in (
        ("md", md_store.point_query, md_cache),
        ("tbl", tbl_store.point_query, tbl_cache),
    ):
        cache.set_capacity(UNBOUNDED)
        cache.reset_counters()
        cold_ms, warm_ms, cold_misses, warm_misses = _paired_times(query, coords, cache)
        results[rep] = RepConstants(
            M=statistics.median(warm_ms), D=statistics.median(cold_ms)
        )
        misses[rep] = (cold_misses, warm_misses)

    md_report = md_store.size_report()
    params = CacheModelParams(
        md=results["md"],
        tbl=results["tbl"],
        preload_bytes=md_report.preload_bytes,
        cell_bytes=md_report.cell_bytes,
        table_bytes=tbl_store.total_size(),
    )
    return EstimateResult(
        params,
        md_cold_misses=misses["md"][0],
        tbl_cold_misses=misses["tbl"][0],
        md_warm_misses=misses["md"][1],
        tbl_warm_misses=misses["tbl"][1],
    )


@dataclass
class SweepRow:
    rep: str
    budget: int
    pass_no: int
    used: int
    misses: int
    avg_sim_ms: float
    model_ms: float


@dataclass
class SweepSummary:
    rep: str
    budget: int
    measured_ms: float
    model_ms: float

    @property
    def rel_deviation(self) -> float:
        return abs(self.measured_ms - self.model_ms) / self.model_ms


@dataclass
class SweepResult:
    rows: list[SweepRow]
    summaries: list[SweepSummary]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(SWEEP_COLUMNS)
        for r in self.rows:
            w.writerow(
                [r.rep, r.budget, r.pass_no, r.used, r.misses,
                 f"{r.avg_sim_ms:.6f}", f"{r.model_ms:.6f}"]
            )
        return buf.getvalue()


def default_budgets(params: CacheModelParams, points: int = 20) -> tuple[list[int], list[int]]:
    """Evenly spaced budgets covering each representation's full range."""
    if not 2 <= points <= MAX_DRAWS:
        raise ValueError(f"a sweep needs 2..{MAX_DRAWS} budget points, not {points}")
    h, c, s = params.preload_bytes, params.cell_bytes, params.table_bytes
    md = [h + round(i * c / (points - 1)) for i in range(points)]
    tbl = [round(i * s / (points - 1)) for i in range(points)]
    return md, tbl


def memory_sweep(
    md_store: MultidimStore,
    md_cache: SimCache,
    tbl_store: TableStore,
    tbl_cache: SimCache,
    params: CacheModelParams,
    md_budgets: Sequence[int],
    tbl_budgets: Sequence[int],
    samples: int = 300,
    passes: int = 100,
    seed: int = 0,
) -> SweepResult:
    if samples < 1 or passes < 1 or samples * passes > MAX_DRAWS:
        raise ValueError(f"samples {samples} times passes {passes} is not in 1..{MAX_DRAWS}")
    n = md_store.n_cells
    if n != tbl_store.n_rows:
        raise ValueError(f"the stores hold {n} cells against {tbl_store.n_rows} rows")
    rows: list[SweepRow] = []
    summaries: list[SweepSummary] = []
    h = params.preload_bytes

    # Every budget is checked before the first simulation, so a rejected
    # sweep adds nothing to either cache's counters.
    for budget in md_budgets:
        if budget < h:
            raise ValueError(f"budget {budget} below the preloaded size {h}")
    for budget in tbl_budgets:
        if budget < 0:
            raise ValueError(f"budget {budget} below 0")

    jobs = (
        ("md", md_store, md_cache, md_budgets, params.md, True),
        ("tbl", tbl_store, tbl_cache, tbl_budgets, params.tbl, False),
    )
    for rep, store, cache, budgets, consts, is_md in jobs:
        model_fn = t_m if is_md else t_t
        readers = store.readers()
        # A query with a miss costs M + (D - M), which in floating point is
        # not always D; the CSV keeps that sum.
        hit_ms, miss_ms = consts.M, consts.M + (consts.D - consts.M)
        for budget in budgets:
            capacity = budget - h if is_md else budget
            # String seeds hash stably across processes, unlike tuples.  One
            # draw of passes * samples takes the same stream as one per pass.
            rng = random.Random(f"{seed}:{rep}:{budget}")
            codes = store.block_touches(rng.choices(range(n), k=passes * samples))
            misses, used = lru_misses(
                codes, readers, capacity, range(0, passes * samples + 1, samples)
            )
            cache.add_counts(codes.size - sum(misses), sum(misses))
            total_time = 0.0
            total_model = 0.0
            for pass_no in range(1, passes + 1):
                first = (pass_no - 1) * samples
                pass_misses = misses[first : first + samples]
                pass_time = 0.0
                for miss in pass_misses:
                    pass_time += miss_ms if miss else hit_ms
                used_mid = (used[pass_no - 1] + used[pass_no]) // 2 + (h if is_md else 0)
                model_ms = model_fn(used_mid, params)
                avg_ms = pass_time / samples
                rows.append(
                    SweepRow(rep, budget, pass_no, used_mid, sum(pass_misses), avg_ms, model_ms)
                )
                total_time += pass_time
                total_model += model_ms
            summaries.append(
                SweepSummary(
                    rep,
                    budget,
                    measured_ms=total_time / (passes * samples),
                    model_ms=total_model / passes,
                )
            )
    return SweepResult(rows, summaries)
