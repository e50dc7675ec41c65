"""Smoke test of the benchmark itself on a tiny relation.

    python -m pytest perfbench -q
"""

import json
import signal
import time
from pathlib import Path

import pytest

import harness
import spans
import speed
from sparsecube import StoreParams
from workloads import REPS, Workload, make_inputs

ROOT = Path(__file__).resolve().parent.parent
TINY = Workload("tiny", (8, 8, 4), 0.2, 0.0, StoreParams(diff_bits=4), "lpc")


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _run(tmp_path_factory, trace):
    out = tmp_path_factory.mktemp("out")
    metrics, record = harness.run(TINY, 3, 0.2, trace, out, out)
    return metrics, record, out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory, False)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory, True)


@pytest.mark.parametrize("mode,section", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(mode, section, request):
    metrics, record, _ = request.getfixturevalue(mode)
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared(section)
    for name, (value, _) in metrics.items():
        assert value > 0, name
    assert record["probes_attempted"] > 0
    assert record["probes_failed"] == 0
    assert len(record["store_sha256"]) == 3 * len(REPS)


def test_traced_run_writes_linked_spans_and_restores_the_program(traced):
    _, _, out = traced
    lines = (out / "spans-tiny-s3.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    by_id = {(r["phase"], r["id"]): r for r in records}
    children = [r for r in records if r["parent"] is not None and r["phase"] == "query"]
    assert children
    for child in children:
        parent = by_id[(child["phase"], child["parent"])]
        assert child["probe"] is not None and child["probe"] == parent["probe"]
        assert parent["start_ns"] <= child["start_ns"] <= child["end_ns"] <= parent["end_ns"]
    for owner, attr, _ in spans.PROBE_PATH:
        assert not hasattr(vars(owner)[attr], "__wrapped__"), (owner, attr)


def test_a_wrong_answer_or_an_exception_counts_as_a_failure(tmp_path):
    inputs = make_inputs(TINY, 3, tmp_path)
    (tmp_path / "stores").mkdir()
    setup, _ = harness.set_up(TINY, inputs, tmp_path / "stores")

    class Wrong:
        def point_query(self, coords):
            return -1.0

    class Raises:
        def point_query(self, coords):
            raise RuntimeError("broken store")

    stores = dict(setup.stores)
    setup.stores.update(lpc=Wrong(), dhc=Raises())
    probing = harness.Probing()
    try:
        harness.probe(setup, inputs, time.perf_counter() + 0.05, probing, speed.QueryReference())
    finally:
        harness._close_all(stores)
    assert probing.failed == len(probing.plain["lpc"]) + len(probing.plain["dhc"]) > 0


def test_timed_runs_the_reference_inside_a_call_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    readings = []

    class Counted(speed.QueryReference):
        def time_ns(self):
            readings.append(super().time_ns())
            return readings[-1]

    t0 = time.perf_counter()
    _, raw, scaled = speed.timed(Counted(), time.sleep, 0.2)
    wall = time.perf_counter() - t0
    assert len(readings) >= 4
    assert 0.15 < raw < wall and scaled > 0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_latency_percentiles_take_each_probe_s_median_once():
    samples = [5, 1, 3, 10, 20, 7, 7, 1000]
    probe_ids = [2, 2, 2, 0, 0, 1, 1, 1]
    assert list(harness._probe_medians(samples, probe_ids)) == [15.0, 7.0, 3.0]
