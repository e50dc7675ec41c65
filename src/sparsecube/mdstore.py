"""Multidimensional physical representation.

A store is the compressed cell array (measures of the nonempty cells in
logical-position order), one of the five headers, and the dimension value
arrays.  On disk it is three files: `<name>.schema` (JSON), `<name>.hdr`
(binary header) and `<name>.cells` (raw measures).  On load the header,
schema and rebuilt auxiliary arrays live in memory; cell reads stay on disk
and go through the block-access layer so a simulated cache can watch them.
A freshly built store reads its cell array from memory through the same
layer, so built and loaded stores run one code path.

`REGISTRY` is the one table of schemes: name, header class (whose `MAGIC`
tags its files) and build call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import diffseq, headers
from .blockio import BlockReader, BytesReader, Closing, SimCache
from .errors import FormatError, InvalidPositionError
from .relation import (
    MEASURE_FORMATS,
    DimensionSchema,
    Relation,
    encode_logical_position,
    ordered_cells,
    schema_from_json,
    schema_to_json,
)

# Each build parameter's range; BOC's offsets-narrower-than-entries rule is `build_boc`'s.
PARAM_RANGES = dict(entry_width=(1, 8), offset_width=(1, 7), block_len=(1, (1 << 64) - 1),
                    diff_bits=(1, diffseq.MAX_DIFF_BITS), stride=(1, (1 << 64) - 1))


@dataclass(frozen=True)
class StoreParams:
    entry_width: int = 8
    offset_width: int = 2
    block_len: int = 16
    diff_bits: int = 16
    stride: int = 16

    def __post_init__(self):
        for name, (lo, hi) in PARAM_RANGES.items():
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} {getattr(self, name)} is not in {lo}..{hi}")


@dataclass
class SizeReport:
    scheme: str
    n_cells: int
    disk: dict[str, int]
    memory: dict[str, int]

    @property
    def disk_total(self) -> int:
        return sum(self.disk.values())

    @property
    def memory_total(self) -> int:
        return self.disk_total + sum(self.memory.values())

    @property
    def cell_bytes(self) -> int:
        return self.disk["cells"]

    @property
    def preload_bytes(self) -> int:
        """Bytes resident before any query: everything except the cell array."""
        return self.memory_total - self.cell_bytes


class MultidimStore(Closing):
    def __init__(
        self,
        schema: DimensionSchema,
        header,
        measure_width: int,
        cells: BlockReader,
    ):
        if measure_width not in MEASURE_FORMATS:
            raise ValueError(f"unsupported measure width {measure_width}")
        self.scheme = _scheme_of(header.MAGIC)
        self.schema = schema
        self.header = header
        self.measure_width = measure_width
        self.n_cells = header.count
        self._cells = cells
        self._measure = struct.Struct(MEASURE_FORMATS[measure_width])
        if cells.file_size != self.n_cells * measure_width:
            cells.close()
            raise FormatError(
                f"cell array of {cells.file_size} octets, but the header holds "
                f"{self.n_cells} cells of {measure_width}"
            )

    def close(self) -> None:
        self._cells.close()

    def cell_measure(self, physical: int) -> float:
        raw = self._cells.read_at(physical * self.measure_width, self.measure_width)
        return self._measure.unpack(raw)[0]

    def point_query(self, coords: Sequence[int]) -> float | None:
        position = encode_logical_position(coords, self.schema)
        physical = self.header.lookup(position)
        if physical is None:
            return None
        return self.cell_measure(physical)

    def positions(self) -> np.ndarray:
        """Logical positions of the stored cells in physical order, as uint64.

        The array may be a read-only view of the header's own (LPC's is).
        """
        stored = self.header.positions()
        if stored.size and stored.max() >= self.schema.total_cells:
            raise InvalidPositionError(
                f"stored position out of range [0, {self.schema.total_cells})"
            )
        return stored

    def block_touches(self, ranks: np.ndarray) -> np.ndarray:
        """The codes of the blocks `point_query` reads for the stored cells
        of these ranks, one row per query, over `readers()`: the one cells
        block that holds the cell's measure."""
        ranks = np.asarray(ranks, dtype=np.int64)
        return (ranks * self.measure_width // self._cells.block_size)[:, None]

    def readers(self) -> tuple[BlockReader, ...]:
        """The store's block readers, in the order `block_touches` codes them."""
        return (self._cells,)

    def schema_bytes(self) -> bytes:
        return schema_to_json(self.schema, self.measure_width)

    def size_report(self) -> SizeReport:
        disk = {
            "header": len(self.header.to_bytes()),
            "cells": self.n_cells * self.measure_width,
            "schema": len(self.schema_bytes()),
        }
        memory = {"rebuilt_aux": self.header.memory_bytes() - self.header.size_bytes()}
        return SizeReport(self.scheme, self.n_cells, disk, memory)


def _build_boc(positions: np.ndarray, p: StoreParams) -> headers.BocHeader:
    """BOC with offsets as wide as the data needs: the octets of the largest
    offset in its block, and at least `p.offset_width`.  If that is not
    below `entry_width`, the block length falls back to 1, where every
    offset is zero."""
    offsets = positions - positions[::p.block_len][headers._block_of(positions.size, p.block_len)]
    width = max(p.offset_width, (int(offsets.max(initial=0)).bit_length() + 7) // 8)
    if width < p.entry_width:
        return headers.build_boc(positions, p.block_len, p.entry_width, width)
    return headers.build_boc(positions, 1, p.entry_width, p.offset_width)


class Scheme(NamedTuple):
    header: type
    build: Callable  # (positions, total cells, StoreParams) -> header


# Every scheme's name, header class (which carries its magic) and build call.
REGISTRY = {
    "schc": Scheme(
        headers.SchcHeader,
        lambda pos, total, p: headers.build_schc(pos, total, p.entry_width),
    ),
    "lpc": Scheme(
        headers.LpcHeader, lambda pos, total, p: headers.build_lpc(pos, p.entry_width)
    ),
    "boc": Scheme(headers.BocHeader, lambda pos, total, p: _build_boc(pos, p)),
    "dsc": Scheme(
        diffseq.DscHeader,
        lambda pos, total, p: diffseq.build_dsc(pos, p.diff_bits, p.entry_width, p.stride),
    ),
    "dhc": Scheme(
        diffseq.DhcHeader,
        lambda pos, total, p: diffseq.build_dhc(pos, p.diff_bits, p.entry_width, p.stride),
    ),
}

SCHEMES = tuple(REGISTRY)


def _scheme_of(magic: bytes) -> str:
    """The scheme whose header class carries `magic`."""
    for name, entry in REGISTRY.items():
        if entry.header.MAGIC == magic:
            return name
    raise FormatError(f"unknown header magic {magic!r}")


def build_store(
    rel: Relation, scheme: str, params: StoreParams = StoreParams()
) -> MultidimStore:
    """Build with `params`, except that BOC offsets get the width the data
    needs (see `_build_boc`)."""
    if scheme not in REGISTRY:
        raise ValueError(f"unknown scheme {scheme!r}")
    positions, _, measures = ordered_cells(rel)
    header = REGISTRY[scheme].build(positions, rel.schema.total_cells, params)
    cells = BytesReader(
        measures.astype(MEASURE_FORMATS[rel.measure_width]).tobytes(), name="md.cells"
    )
    return MultidimStore(rel.schema, header, rel.measure_width, cells)


build_boc_with_retry = build_store  # the former name, which the acceptance tests import


def store_paths(base: str | Path) -> tuple[Path, Path, Path]:
    base = str(base)
    return Path(base + ".schema"), Path(base + ".hdr"), Path(base + ".cells")


def save(store: MultidimStore, base: str | Path) -> None:
    schema_p, hdr_p, cells_p = store_paths(base)
    header = store.header.to_bytes()  # an entry too wide raises before any file is written
    schema_p.write_bytes(store.schema_bytes())
    hdr_p.write_bytes(header)
    cells_p.write_bytes(store._cells.contents())


def load(base: str | Path, cache: SimCache | None = None) -> MultidimStore:
    """The store saved at `base`, whose cells are read in 4096-octet blocks, one per read."""
    schema_p, hdr_p, cells_p = store_paths(base)
    schema, measure_width = schema_from_json(schema_p.read_bytes())
    raw = hdr_p.read_bytes()
    header = REGISTRY[_scheme_of(raw[:4])].header.from_bytes(raw)
    reader = BlockReader(cells_p, cache=cache, name="md.cells")
    return MultidimStore(schema, header, measure_width, reader)
