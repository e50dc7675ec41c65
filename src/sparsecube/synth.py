"""Deterministic synthetic relation generator.

Stands in for benchmark-derived relations at desk scale.  Uniform mode
scatters the nonempty cells; clustered mode lays them out as contiguous runs
with geometrically distributed lengths, the mean run length scaling with the
clustering knob (knob 1.0 collapses to a single run).  Identical spec and
seed always produce the identical relation.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .relation import DimensionSchema, Relation, decode_positions


@dataclass(frozen=True)
class SynthSpec:
    cardinalities: tuple[int, ...]
    density: float
    clustering: float = 0.0
    seed: int = 0
    measure_width: int = 8

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if not 0.0 <= self.clustering <= 1.0:
            raise ValueError("clustering must be in [0, 1]")


def _run_lengths(rng: random.Random, n: int, clustering: float) -> list[int]:
    if clustering >= 1.0:
        return [n]
    mean_run = max(1.0, n**clustering)
    p = 1.0 / mean_run
    runs: list[int] = []
    remaining = n
    while remaining > 0:
        if p >= 1.0:
            length = 1
        else:
            # Geometric draw with mean 1/p via inversion.
            length = int(math.log(1.0 - rng.random()) / math.log(1.0 - p)) + 1
        length = min(length, remaining)
        runs.append(length)
        remaining -= length
    return runs


def _clustered_positions(rng: random.Random, total: int, n: int, clustering: float) -> list[int]:
    runs = _run_lengths(rng, n, clustering)
    empties = total - n
    # Interior gaps must be >= 1 to keep the runs distinct; merge runs if the
    # empty budget cannot separate them all.
    while len(runs) - 1 > empties:
        runs[-2] += runs[-1]
        runs.pop()
    n_gaps = len(runs) + 1
    spare = empties - (len(runs) - 1)
    weights = [rng.random() for _ in range(n_gaps)]
    wsum = sum(weights)
    shares = [int(spare * w / wsum) for w in weights]
    shares[0] += spare - sum(shares)
    gaps = [shares[0]] + [1 + s for s in shares[1:-1]] + [shares[-1]]
    positions: list[int] = []
    cursor = 0
    for i, run in enumerate(runs):
        cursor += gaps[i]
        positions.extend(range(cursor, cursor + run))
        cursor += run
    return positions


def _uniform_positions(rng: random.Random, total: int, n: int) -> list[int]:
    """`n` distinct positions below `total`.  `rng.sample` cannot take a
    range of 2^63 or more, so such schemas draw into a set instead."""
    if total <= sys.maxsize:
        return rng.sample(range(total), n)
    drawn: set[int] = set()
    while len(drawn) < n:
        drawn.add(rng.randrange(total))
    return list(drawn)


def generate(spec: SynthSpec) -> Relation:
    schema = DimensionSchema.from_cardinalities(spec.cardinalities)
    total = schema.total_cells
    n = min(total, max(1, round(spec.density * total)))
    rng = random.Random(spec.seed)
    if n == total:
        positions = np.arange(total, dtype=np.uint64)
    elif spec.clustering == 0.0:
        positions = np.sort(np.array(_uniform_positions(rng, total, n), dtype=np.uint64))
    else:
        positions = np.array(_clustered_positions(rng, total, n, spec.clustering), dtype=np.uint64)
    # One draw per cell in position order, after the positions.
    measures = np.fromiter(
        map(rng.uniform, itertools.repeat(0.0, n), itertools.repeat(1000.0, n)),
        dtype=np.float64, count=n,
    )
    coords = np.stack(decode_positions(positions, schema), axis=1).astype(np.int64)
    return Relation.from_ordered(schema, positions, coords, measures, spec.measure_width)
