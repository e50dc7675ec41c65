"""One benchmark run: set up a workload, probe it in a closed loop, run the experiment.

A run is a single process with one client and no threads.  It generates the
workload's relation from the seed, writes it as CSV and from then on drives
sparsecube only through its public API: ingest, build/save/load of every
representation, point queries, and `estimate_constants`/`memory_sweep`.
Every probe answer is checked against the generated relation.

With `--trace 0` the run prints the end-to-end metrics.  With `--trace 1` it
records spans around each layer's entry points (see spans.py) and prints the
per-layer metrics instead, plus the tracing overhead measured against
untraced rounds of the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsecube import (
    IngestConfig,
    Relation,
    SimCache,
    bench,
    ingest_delimited,
    mdstore,
    tablestore,
)
from spans import QUERIES, Patches, Tracer
from speed import BuildReference, QueryReference, Reference, scale, timed
from workloads import REPS, SCHEMES, WORKLOADS, Inputs, Workload, make_inputs

REPEATS = 3
# Set-ups repeat until there are REPEATS of them and they have taken
# SETUP_MIN_S, up to MAX_SETUPS, so a short set-up gets a steadier median.
SETUP_MIN_S = 4.0
MAX_SETUPS = 9
# Per round, each representation probes for at least MIN_PROBES probes and
# SLICE_NS of time, so fast representations gather many more samples than
# slow ones instead of waiting on them, and visit each probe several times.
# A slice ends after SLICE_NS and one probe at least; a reference reading
# follows each slice.
MIN_PROBES = 8
SLICE_NS = 5_000_000
WARM_S = 1.0
ESTIMATE_SAMPLES = 1000
ESTIMATE_ATTEMPTS = 5
SWEEP_POINTS = 10
SWEEP_PASSES = 10
SWEEP_SAMPLES = 300
READERS = ("md.cells", "tbl.idx", "tbl.rows")

_RAISED = object()  # stands for the answer of a probe that raised


class FidelityError(Exception):
    """The ingested relation differs from the generated one."""


@dataclass
class Setup:
    stores: dict
    caches: dict


def _per_rep():
    return {r: [] for r in REPS}


@dataclass
class Probing:
    """Latency samples in ns: untraced at reference speed and raw, traced raw.

    `plain_probe` holds the index of the probe each untraced sample timed.
    `reference_ns` holds, per representation, the reference times taken
    right after its slices, to show they do not depend on what ran before.
    """

    plain: dict[str, list[float]] = field(default_factory=_per_rep)
    plain_raw: dict[str, list[int]] = field(default_factory=_per_rep)
    plain_probe: dict[str, list[int]] = field(default_factory=_per_rep)
    traced: dict[str, list[int]] = field(default_factory=_per_rep)
    reference_ns: dict[str, list[int]] = field(default_factory=_per_rep)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    cursor: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REPS, 0))
    probe_id: int = 0
    last_ref_ns: int = 0


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _answer(query, coords):
    try:
        return query(coords)
    except Exception:
        return _RAISED


def _close_all(stores: dict) -> None:
    for store in stores.values():
        store.close()


def set_up(workload: Workload, inputs: Inputs, store_dir: Path, call=_untraced) -> tuple[Setup, Relation]:
    """Ingest the CSV, then build, save and load every representation.

    Each representation is loaded through its own unbounded SimCache and
    answers one warm-up probe, so lazy work such as the DHC decode tables
    counts as set-up.  Returns the set-up and the ingested relation.
    """
    rel = call(
        "relation.ingest", ingest_delimited, inputs.csv_path,
        IngestConfig(declared_values=inputs.declared),
    ).relation
    stores, caches = {}, {}
    try:
        for scheme in SCHEMES:
            built = call(f"mdstore.build.{scheme}", mdstore.build_store, rel, scheme, workload.params)
            base = store_dir / scheme
            call(f"mdstore.save.{scheme}", mdstore.save, built, base)
            caches[scheme] = SimCache(bench.UNBOUNDED)
            stores[scheme] = call(f"mdstore.load.{scheme}", mdstore.load, base, cache=caches[scheme])
        built = call("tablestore.build", tablestore.build_table, rel)
        call("tablestore.save", tablestore.save_table, built, store_dir / "table")
        caches["table"] = SimCache(bench.UNBOUNDED)
        stores["table"] = call(
            "tablestore.load", tablestore.load_table, store_dir / "table", cache=caches["table"]
        )
        for store in stores.values():
            store.point_query(inputs.probes[0])
    except BaseException:
        _close_all(stores)
        raise
    return Setup(stores, caches), rel


def check_fidelity(ingested, inputs: Inputs) -> None:
    if ingested.schema != inputs.relation.schema or ingested.cells != inputs.relation.cells:
        raise FidelityError("ingested relation differs from the generated one")


def warm(setup: Setup, inputs: Inputs, out: Probing) -> None:
    """Walk each representation once through the probe sequence, untimed.

    Afterwards every block the probes touch is in the unbounded cache, so the
    window measures a steady state.  Without this the cold first pass makes
    up a share of the samples that shrinks as the machine runs faster, and
    p99 follows the machine's speed.  A representation too slow to finish
    within WARM_S stops there; the window goes on from its cursor and never
    comes back to a probe, so all its samples are first visits alike.
    Answers are checked as in the window.
    """
    probes, expected = inputs.probes, inputs.expected
    n = len(probes)
    for rep in REPS:
        query = setup.stores[rep].point_query
        stop = time.perf_counter() + WARM_S
        i = out.cursor[rep]
        for _ in range(n):
            if time.perf_counter() > stop:
                break
            i = (i + 1) % n
            out.attempted += 1
            if _answer(query, probes[i]) != expected[i]:
                out.failed += 1
        out.cursor[rep] = i


def probe(setup: Setup, inputs: Inputs, deadline: float, out: Probing, ref: QueryReference,
          patches: Patches | None = None, tracer: Tracer | None = None) -> None:
    """Closed-loop probes until `deadline`, in rounds over every representation.

    Continues `out` where it stopped; each representation walks the probe
    sequence from its own cursor.  In a round each representation takes
    slices of at least one probe and SLICE_NS until it has MIN_PROBES
    probes.  The reference runs after every slice, and the runs on either
    side scale the slice to reference speed, so slow representations are
    scaled as closely as fast ones.  With `patches`, every second round runs
    traced, so traced and untraced samples share the same stretch of the
    run.  Runs at least two rounds, so both sides get samples.
    """
    first = out.rounds
    if not out.last_ref_ns:
        out.last_ref_ns = ref.time_ns()
    while out.rounds - first < 2 or time.perf_counter() < deadline:
        traced = patches is not None and out.rounds % 2 == 1
        with patches.active() if traced else contextlib.nullcontext():
            for rep in REPS:
                taken = 0
                while taken < MIN_PROBES:
                    taken += _slice(setup.stores[rep].point_query, rep, inputs, out, ref,
                                    tracer if traced else None)
        if tracer is not None:
            tracer.probe = None
        out.rounds += 1


def _slice(query, rep: str, inputs: Inputs, out: Probing, ref: QueryReference,
           tracer: Tracer | None) -> int:
    """One slice of `rep`'s probes, then a reference reading; returns the probes taken."""
    probes, expected = inputs.probes, inputs.expected
    n = len(probes)
    samples, visited = [], []
    i = out.cursor[rep]
    slice_end = time.perf_counter_ns() + SLICE_NS
    while not samples or time.perf_counter_ns() < slice_end:
        i = (i + 1) % n
        coords = probes[i]
        if tracer is not None:
            out.probe_id += 1
            tracer.probe = out.probe_id
        t0 = time.perf_counter_ns()
        got = _answer(query, coords)
        samples.append(time.perf_counter_ns() - t0)
        visited.append(i)
        out.attempted += 1
        if got != expected[i]:
            out.failed += 1
    out.cursor[rep] = i
    after = ref.time_ns()
    factor = scale(ref, out.last_ref_ns, after)
    out.last_ref_ns = after
    out.reference_ns[rep].append(after)
    if tracer is not None:
        out.traced[rep] += samples
    else:
        out.plain_raw[rep] += samples
        out.plain_probe[rep] += visited
        out.plain[rep] += [x * factor for x in samples]
    return len(samples)


def estimate(workload: Workload, setup: Setup, seed: int, ref: QueryReference,
             call=_untraced) -> tuple[bench.EstimateResult, float, float, int]:
    """estimate_constants, tried again when timing noise defeats it.

    It raises ValueError when timing noise makes a warm pass no faster than
    the cold one, which shared CPUs do to a few percent of calls.  Such an
    attempt is reported and the estimate is tried again, as a user would;
    only ESTIMATE_ATTEMPTS failures in a row fail the run.
    The estimate times its own passes, so the reference runs only before
    and after it, never inside.  Returns the estimate, its raw seconds and
    its seconds at reference speed, and the number of failed attempts.
    """
    scheme = workload.experiment_scheme
    for failed in range(ESTIMATE_ATTEMPTS):
        before = ref.time_ns()
        t0 = time.perf_counter()
        try:
            est = call(
                "bench.estimate", bench.estimate_constants,
                setup.stores[scheme], setup.caches[scheme],
                setup.stores["table"], setup.caches["table"],
                sample_size=ESTIMATE_SAMPLES, seed=seed,
            )
        except ValueError as exc:
            print(f"estimate_constants failed: {exc}", file=sys.stderr)
            continue
        raw = time.perf_counter() - t0
        return est, raw, raw * scale(ref, before, ref.time_ns()), failed
    raise RuntimeError(f"estimate_constants failed {ESTIMATE_ATTEMPTS} times in a row")


@dataclass
class Sweep:
    raw_s: float
    scaled_s: float
    result: bench.SweepResult
    hits: dict[str, int]
    misses: dict[str, int]
    queries: int


def sweep(workload: Workload, setup: Setup, params, seed: int, ref: Reference | None,
          call=_untraced, tracer: Tracer | None = None) -> Sweep:
    """memory_sweep over the default budget ladder of `params`, timed by `speed.timed`.

    The ladder runs from no cached cells (md) or no cached table to all of
    it, so it covers a cache that is too small and one that holds everything.
    The caches are left unbounded again afterwards, as set-up left them.
    """
    scheme = workload.experiment_scheme
    caches = {"md": setup.caches[scheme], "tbl": setup.caches["table"]}
    md_budgets, tbl_budgets = bench.default_budgets(params, points=SWEEP_POINTS)
    before = {r: (c.hits, c.misses) for r, c in caches.items()}
    queries = ("mdstore.query." + scheme, "tablestore.query")
    counted = sum(tracer.count(q) for q in queries) if tracer else 0
    result, raw_s, scaled_s = timed(
        ref, call, "bench.sweep", bench.memory_sweep, setup.stores[scheme], caches["md"],
        setup.stores["table"], caches["tbl"], params, md_budgets, tbl_budgets,
        samples=SWEEP_SAMPLES, passes=SWEEP_PASSES, seed=seed,
    )
    for cache in caches.values():
        cache.set_capacity(bench.UNBOUNDED)
    return Sweep(
        raw_s,
        scaled_s,
        result,
        hits={r: c.hits - before[r][0] for r, c in caches.items()},
        misses={r: c.misses - before[r][1] for r, c in caches.items()},
        queries=sum(tracer.count(q) for q in queries) - counted if tracer else 0,
    )


def _load(rep: str, store_dir: Path, cache: SimCache | None = None):
    if rep == "table":
        return tablestore.load_table(store_dir / "table", cache=cache)
    return mdstore.load(store_dir / rep, cache=cache)


def resident_bytes(inputs: Inputs, store_dir: Path) -> tuple[dict[str, int], dict[str, float]]:
    """Traced heap held by each loaded store, from an untimed load plus one probe.

    Also returns, per md scheme, that heap over the modelled size
    (`memory_bytes()` plus the schema), i.e. the model's error in H.
    """
    heap, over_model = {}, {}
    for rep in REPS:
        tracemalloc.start()
        try:
            store = _load(rep, store_dir)
            try:
                store.point_query(inputs.probes[0])
                heap[rep] = tracemalloc.get_traced_memory()[0]
                if rep != "table":
                    modelled = store.header.memory_bytes() + len(store.schema_bytes())
                    over_model[rep] = heap[rep] / modelled
            finally:
                store.close()
        finally:
            tracemalloc.stop()
    return heap, over_model


def store_files(store_dir: Path) -> dict[str, list[Path]]:
    files = {rep: list(mdstore.store_paths(store_dir / rep)) for rep in SCHEMES}
    files["table"] = list(tablestore.table_paths(store_dir / "table"))
    return files


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit(root: Path) -> str | None:
    """HEAD's commit, or None outside a git checkout or without git.

    The ceiling stops git from reporting a repository that merely contains
    the checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _pct_us(samples: list[int], q: float) -> float:
    return float(np.percentile(samples, q)) / 1000.0


def _probe_medians(samples, probe_ids) -> np.ndarray:
    """Each probe's median latency, one value per probe visited.

    Percentiles over these weigh every probe once and leave out the
    interrupts that hit single visits, so p99 follows the slowest probes of
    the data rather than how many interrupts a run happened to see.
    """
    ids = np.asarray(probe_ids)
    values = np.asarray(samples, dtype=float)
    order = np.lexsort((values, ids))
    ids, values = ids[order], values[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    counts = np.diff(np.r_[starts, len(ids)])
    return (values[starts + (counts - 1) // 2] + values[starts + counts // 2]) / 2


def _latency_us(probing: Probing, rep: str, q: float, raw=False) -> float:
    samples = probing.plain_raw[rep] if raw else probing.plain[rep]
    return _pct_us(_probe_medians(samples, probing.plain_probe[rep]), q)


def _median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Window:
    """Everything a run measures; times in seconds, raw and at reference speed."""

    setups_raw: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    probing: Probing = field(default_factory=Probing)
    estimate: bench.EstimateResult | None = None
    estimate_raw_s: float = 0.0
    estimate_s: float = 0.0
    estimate_failures: int = 0
    sweeps: list[Sweep] = field(default_factory=list)

    def setup_s(self, raw=False) -> float:
        return _median(self.setups_raw if raw else self.setups)

    def experiment_s(self, raw=False) -> float:
        if raw:
            return self.estimate_raw_s + _median(sw.raw_s for sw in self.sweeps)
        return self.estimate_s + _median(sw.scaled_s for sw in self.sweeps)


def end_to_end_metrics(w: Window, n_cells: int, disk: dict[str, int],
                       heap: dict[str, int]) -> dict:
    m = {"setup_s": (w.setup_s(), "s")}
    for rep in REPS:
        m[f"query_p50_us.{rep}"] = (_latency_us(w.probing, rep, 50), "us")
        m[f"query_p99_us.{rep}"] = (_latency_us(w.probing, rep, 99), "us")
    m["disk_bytes_per_cell"] = (sum(disk.values()) / n_cells, "B/cell")
    m["resident_bytes_per_cell"] = (sum(heap.values()) / n_cells, "B/cell")
    m["experiment_s"] = (w.experiment_s(), "s")
    return m


def per_layer_metrics(w: Window, setup_t: Tracer, query_t: Tracer, exp_t: Tracer,
                      disk: dict[str, int], heap: dict[str, int],
                      over_model: dict[str, float]) -> dict:
    def med_s(tracer, name):
        return _median(tracer.total[name]) / 1e9

    def p_us(name, q):
        return _pct_us(query_t.self_time[name], q)

    m = {
        "relation.ingest_s": (med_s(setup_t, "relation.ingest"), "s"),
        "relation.encode_us": (p_us("relation.encode", 50), "us"),
    }
    for s in SCHEMES:
        m[f"mdstore.build_s.{s}"] = (med_s(setup_t, f"mdstore.build.{s}"), "s")
        m[f"mdstore.load_s.{s}"] = (med_s(setup_t, f"mdstore.load.{s}"), "s")
    saves = zip(*(setup_t.total[f"mdstore.save.{s}"] for s in SCHEMES))
    m["mdstore.save_s"] = (_median(sum(per_setup) for per_setup in saves) / 1e9, "s")
    m["mdstore.cell_read_us"] = (p_us("mdstore.cell_read", 50), "us")
    for s in SCHEMES:
        m[f"mdstore.disk_bytes.{s}"] = (disk[s], "B")
        m[f"mdstore.resident_bytes.{s}"] = (heap[s], "B")
        m[f"mdstore.resident_over_model.{s}"] = (over_model[s], "ratio")
    for s in SCHEMES:
        lookup = f"header.lookup.{s}"
        m[f"header.lookup_p50_us.{s}"] = (p_us(lookup, 50), "us")
        m[f"header.lookup_p99_us.{s}"] = (p_us(lookup, 99), "us")
        share = sum(query_t.self_time[lookup]) / sum(query_t.total[f"mdstore.query.{s}"])
        m[f"header.lookup_share.{s}"] = (share, "ratio")
    m["tablestore.build_s"] = (med_s(setup_t, "tablestore.build"), "s")
    m["tablestore.load_s"] = (med_s(setup_t, "tablestore.load"), "s")
    m["tablestore.self_us"] = (p_us("tablestore.query", 50), "us")
    m["tablestore.disk_bytes"] = (disk["table"], "B")
    m["tablestore.resident_bytes"] = (heap["table"], "B")

    md_probes = sum(query_t.count(f"mdstore.query.{s}") for s in SCHEMES)
    tbl_probes = query_t.count("tablestore.query")
    for reader in READERS:
        per = md_probes if reader.startswith("md.") else tbl_probes
        m[f"blockio.reads_per_probe.{reader}"] = (
            query_t.count(f"blockio.read.{reader}") / per, "count")
        m[f"blockio.read_us.{reader}"] = (p_us(f"blockio.read.{reader}", 50), "us")
    # Miss and query counts repeat exactly from one sweep to the next.
    last = w.sweeps[-1]
    cold = {"md": w.estimate.md_cold_misses, "tbl": w.estimate.tbl_cold_misses}
    for rep in ("md", "tbl"):
        m[f"blockio.cold_misses_per_probe.{rep}"] = (statistics.fmean(cold[rep]), "count")
        m[f"blockio.sweep_misses.{rep}"] = (last.misses[rep], "count")
        m[f"blockio.sweep_hit_ratio.{rep}"] = (
            last.hits[rep] / (last.hits[rep] + last.misses[rep]), "ratio")

    m["bench.estimate_s"] = (exp_t.total["bench.estimate"][-1] / 1e9, "s")
    m["bench.sweep_s"] = (med_s(exp_t, "bench.sweep"), "s")
    m["bench.sweep_queries"] = (last.queries, "count")
    p = w.estimate.params
    m["cachemodel.M_m_ms"] = (p.md.M, "ms")
    m["cachemodel.D_m_ms"] = (p.md.D, "ms")
    m["cachemodel.M_t_ms"] = (p.tbl.M, "ms")
    m["cachemodel.D_t_ms"] = (p.tbl.D, "ms")
    for rep in ("md", "tbl"):
        devs = (s.rel_deviation for s in last.result.summaries if s.rep == rep)
        m[f"cachemodel.max_dev.{rep}"] = (max(devs), "ratio")

    ratios = [
        _pct_us(w.probing.traced[r], 50) / _pct_us(w.probing.plain_raw[r], 50) for r in REPS
    ]
    m["trace.overhead_ratio"] = (math.exp(statistics.fmean(map(math.log, ratios))), "ratio")
    return m


def measure(workload: Workload, inputs: Inputs, store_dir: Path, seed: int, seconds: float,
            tracers: tuple[Tracer, Tracer, Tracer] | None) -> Window:
    """Several set-ups, one estimate, then a window of `seconds` of sweeps and probes.

    The estimate and the sweeps run on their own loads of the two stores
    they compare.  A warm pass (see `warm`) comes before the window.  The window has REPEATS equal steps, each a sweep followed by probes until
    the step ends, so sweeps and probes average over the same stretch of
    time.  Times are scaled to reference speed (speed.py): probe slices by
    the query reference run between them, the estimate by the one run on
    either side of it, and the set-ups and sweeps by a reference run every
    few milliseconds inside them, the build reference for set-ups.  Traced
    runs sample no reference inside a call, so spans hold only the program.
    """
    setup_t, query_t, exp_t = tracers or (None, None, None)
    setup_call = setup_t.call if tracers else _untraced
    exp_call = exp_t.call if tracers else _untraced
    patches = Patches(query_t) if tracers else None
    # The sweeps trace only the query entry points, for the query count.
    sweep_patches = Patches(exp_t, QUERIES).active if tracers else contextlib.nullcontext
    query_ref, build_ref = QueryReference(), BuildReference()
    inside_build, inside_query = (None, None) if tracers else (build_ref, query_ref)
    w = Window()
    setup = experiment = None
    try:
        while len(w.setups) < REPEATS or (
                sum(w.setups_raw) < SETUP_MIN_S and len(w.setups) < MAX_SETUPS):
            if setup is not None:
                _close_all(setup.stores)
                setup = None
            (setup, ingested), raw_s, scaled_s = timed(
                inside_build, set_up, workload, inputs, store_dir, setup_call)
            w.setups_raw.append(raw_s)
            w.setups.append(scaled_s)
            if len(w.setups) == 1:
                check_fidelity(ingested, inputs)
            del ingested

        # The experiment runs on loads of its own, untimed, so its cache
        # budgets never evict the blocks the probe window keeps cached.
        caches = {r: SimCache(bench.UNBOUNDED) for r in (workload.experiment_scheme, "table")}
        experiment = Setup({}, caches)
        for r, cache in caches.items():
            experiment.stores[r] = _load(r, store_dir, cache)
        w.estimate, w.estimate_raw_s, w.estimate_s, w.estimate_failures = estimate(
            workload, experiment, seed, query_ref, exp_call)
        warm(setup, inputs, w.probing)

        start = time.perf_counter()
        for k in range(1, REPEATS + 1):
            with sweep_patches():
                w.sweeps.append(sweep(workload, experiment, w.estimate.params, seed,
                                      inside_query, exp_call, exp_t))
            probe(setup, inputs, start + seconds * k / REPEATS, w.probing, query_ref,
                  patches, query_t)
    finally:
        for opened in (setup, experiment):
            if opened is not None:
                _close_all(opened.stores)
    return w


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (metrics as name -> (value, unit), run record)."""
    (root / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".perfbench_work"))
    try:
        inputs = make_inputs(workload, seed, workdir)
        store_dir = workdir / "stores"
        store_dir.mkdir()
        tracers = (Tracer("setup"), Tracer("query"), Tracer("experiment")) if trace else None
        w = measure(workload, inputs, store_dir, seed, seconds, tracers)
        files = store_files(store_dir)
        disk = {rep: sum(p.stat().st_size for p in paths) for rep, paths in files.items()}
        heap, over_model = resident_bytes(inputs, store_dir)
        n_cells = inputs.relation.n_cells
        if trace:
            metrics = per_layer_metrics(w, *tracers, disk, heap, over_model)
            _write_spans(out_dir / f"spans-{workload.name}-s{seed}.jsonl", tracers)
        else:
            metrics = end_to_end_metrics(w, n_cells, disk, heap)
        record = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "git_commit": _git_commit(root),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cells": n_cells,
            "probe_set_sha256": inputs.digest,
            "probes_attempted": w.probing.attempted,
            "probes_failed": w.probing.failed,
            "estimate_failures": w.estimate_failures,
            "setups": len(w.setups),
            "sweeps": len(w.sweeps),
            "samples_per_rep": {r: len(w.probing.plain[r]) for r in REPS},
            "probes_visited_per_rep": {r: len(set(w.probing.plain_probe[r])) for r in REPS},
            "reference_ns_after": {r: _median(w.probing.reference_ns[r]) for r in REPS},
            "raw": {
                "setup_s": w.setup_s(raw=True),
                "experiment_s": w.experiment_s(raw=True),
                **{f"query_p50_us.{r}": _latency_us(w.probing, r, 50, raw=True) for r in REPS},
                **{f"query_p99_us.{r}": _latency_us(w.probing, r, 99, raw=True) for r in REPS},
            },
            "store_sha256": {p.name: _sha256(p) for paths in files.values() for p in paths},
        }
        return metrics, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_spans(path: Path, tracers) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tracer in tracers:
            for span in tracer.kept:
                f.write(json.dumps(span) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description="sparsecube point-query benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the window of sweeps and probes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        metrics, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), root, out_dir)
    except Exception:
        traceback.print_exc()
        print(f"workload {args.workload} failed: the run raised before it finished",
              file=sys.stderr)
        return 1
    # The operations are the probes; a wrong or raising answer fails one.
    attempted, failed = record["probes_attempted"], record["probes_failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"failed operations: {failed}/{attempted} ({failed / attempted:.4%}); "
          f"estimate attempts defeated by timing noise: {record['estimate_failures']}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1
