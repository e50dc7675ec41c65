"""The benchmark's workloads and the seeded inputs each run is driven with.

Every workload holds all six representations (the five header schemes plus
the table) and runs the estimate/sweep experiment with one multidimensional
scheme against the table, so every end-to-end metric exists on every
workload.  What differs is the data shape, the difference width and which
layer that shape makes expensive; see NOTES.md for why each one is here.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from sparsecube import Relation, StoreParams, SynthSpec, generate

SCHEMES = ("schc", "lpc", "boc", "dsc", "dhc")
REPS = SCHEMES + ("table",)
PROBES = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    cardinalities: tuple[int, ...]
    density: float
    clustering: float
    params: StoreParams
    # The md side of estimate/sweep.  It needs a lookup cheap enough that
    # the cold-cache pass is measurably slower than the warm one, or
    # estimate_constants rejects M >= D.
    experiment_scheme: str


WORKLOADS = {
    w.name: w
    for w in (
        # Gaps almost never overflow 16 bits: DSC/DHC probes decode
        # thousands of differences, so header translation dominates.
        Workload("scan-clustered", (128, 128, 64), 0.02, 0.5, StoreParams(), "lpc"),
        # 209,715 cells at 4-bit differences: ingest, build, load and
        # resident memory dominate, while every probe stays short.
        Workload("dense-uniform", (128, 128, 64), 0.20, 0.0, StoreParams(diff_bits=4), "lpc"),
        # The relation of acceptance criterion c09: DHC against the table
        # through the block cache, the paper's own experiment.
        Workload("cache-sweep", (64, 64, 64, 48), 0.0159, 0.0, StoreParams(diff_bits=4), "dhc"),
    )
}


@dataclass
class Inputs:
    relation: Relation
    csv_path: Path
    declared: tuple[tuple[str, ...], ...]
    probes: list[tuple[int, ...]]
    expected: list[float | None]
    digest: str


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the relation, write it as CSV and draw the probe sequence.

    Probes alternate between a stored cell (drawn with replacement) and a
    coordinate uniform over the whole array, so every prefix of the
    sequence is half hits and half mostly-empty probes.
    """
    rel = generate(
        SynthSpec(workload.cardinalities, workload.density, workload.clustering, seed=seed)
    )
    declared = tuple(d.values for d in rel.schema.dimensions)
    csv_path = workdir / "relation.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        for coords, value in rel.iter_cells():
            writer.writerow([declared[d][i] for d, i in enumerate(coords)] + [repr(value)])

    stored = sorted(rel.cells)
    rng = random.Random(f"{seed}:probes")
    cards = rel.schema.cardinalities
    probes = [
        rng.choice(stored) if i % 2 == 0 else tuple(rng.randrange(c) for c in cards)
        for i in range(PROBES)
    ]
    expected = [rel.get(p) for p in probes]
    digest = hashlib.sha256(repr(probes).encode()).hexdigest()
    return Inputs(rel, csv_path, declared, probes, expected, digest)
