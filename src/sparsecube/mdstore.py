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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import diffseq, headers
from .blockio import BlockReader, BytesReader, SimCache, touch_codes
from .errors import FormatError, InvalidPositionError, OffsetOverflowError
from .relation import (
    DimensionSchema,
    Relation,
    encode_logical_position,
    ordered_cells,
    schema_from_json,
    schema_to_json,
)

_MEASURE_FMT = {4: "<f", 8: "<d"}


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


class MultidimStore:
    def __init__(
        self,
        schema: DimensionSchema,
        header,
        measure_width: int,
        cells: BlockReader,
    ):
        if measure_width not in _MEASURE_FMT:
            raise ValueError(f"unsupported measure width {measure_width}")
        self.scheme = _scheme_of(header.MAGIC)
        self.schema = schema
        self.header = header
        self.measure_width = measure_width
        self.n_cells = header.count
        self._cells = cells
        self._measure = struct.Struct(_MEASURE_FMT[measure_width])
        if cells.file_size != self.n_cells * measure_width:
            cells.close()
            raise FormatError(
                f"cell array of {cells.file_size} octets, but the header holds "
                f"{self.n_cells} cells of {measure_width}"
            )

    def close(self) -> None:
        self._cells.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

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

    def block_touches(
        self, positions: np.ndarray, stored: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the blocks `point_query` reads for each logical
        position, in order: query q's are `codes[starts[q]:starts[q + 1]]`,
        over `readers()` (see `blockio.touch_codes`).

        A stored cell reads the cells blocks its measure spans; any other
        position reads nothing.  `stored` is `positions()`, for a caller
        that holds it already.
        """
        stored = self.positions() if stored is None else stored
        positions = np.asarray(positions, dtype=np.uint64)
        physical = np.searchsorted(stored, positions)
        found = physical < len(stored)
        found[found] = stored[physical[found]] == positions[found]
        offset = physical * self.measure_width
        first = offset // self._cells.block_size
        spans = np.where(
            found, (offset + self.measure_width - 1) // self._cells.block_size - first + 1, 0
        )
        width = int(spans.max(initial=0))
        return touch_codes(
            1,
            np.zeros(width, dtype=np.int64),
            first[:, None] + np.arange(width),
            np.arange(width) < spans[:, None],
        )

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
    "boc": Scheme(
        headers.BocHeader,
        lambda pos, total, p: headers.build_boc(
            pos, p.block_len, p.entry_width, p.offset_width
        ),
    ),
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


def _new_store(rel: Relation, header, measures: np.ndarray) -> MultidimStore:
    dtype = "<f4" if rel.measure_width == 4 else "<f8"
    cells = BytesReader(measures.astype(dtype).tobytes(), name="md.cells")
    return MultidimStore(rel.schema, header, rel.measure_width, cells)


def build_store(
    rel: Relation, scheme: str, params: StoreParams = StoreParams()
) -> MultidimStore:
    """Build with exactly `params`; a BOC offset that does not fit raises."""
    if scheme not in REGISTRY:
        raise ValueError(f"unknown scheme {scheme!r}")
    positions, _, measures = ordered_cells(rel)
    header = REGISTRY[scheme].build(positions, rel.schema.total_cells, params)
    return _new_store(rel, header, measures)


def build_boc_with_retry(
    rel: Relation, scheme: str, params: StoreParams = StoreParams()
) -> MultidimStore:
    """Like `build_store`, but widen BOC offsets until every block fits.

    Other schemes are built unchanged.  For BOC the offset width grows from
    `params.offset_width` up to `entry_width - 1` octets; if no width fits,
    the block length falls back to 1, where every offset is zero.
    """
    if scheme != "boc":
        return build_store(rel, scheme, params)
    positions, _, measures = ordered_cells(rel)
    build, total = REGISTRY["boc"].build, rel.schema.total_cells
    for width in range(params.offset_width, params.entry_width):
        try:
            header = build(positions, total, replace(params, offset_width=width))
            break
        except OffsetOverflowError:
            continue
    else:
        header = build(positions, total, replace(params, block_len=1))
    return _new_store(rel, header, measures)


def store_paths(base: str | Path) -> tuple[Path, Path, Path]:
    base = str(base)
    return Path(base + ".schema"), Path(base + ".hdr"), Path(base + ".cells")


def save(store: MultidimStore, base: str | Path) -> None:
    schema_p, hdr_p, cells_p = store_paths(base)
    header = store.header.to_bytes()  # an entry too wide raises before any file is written
    schema_p.write_bytes(store.schema_bytes())
    hdr_p.write_bytes(header)
    cells_p.write_bytes(store._cells.contents())


def load(
    base: str | Path, cache: SimCache | None = None, block_size: int = 4096
) -> MultidimStore:
    schema_p, hdr_p, cells_p = store_paths(base)
    schema, measure_width = schema_from_json(schema_p.read_bytes())
    raw = hdr_p.read_bytes()
    header = REGISTRY[_scheme_of(raw[:4])].header.from_bytes(raw)
    reader = BlockReader(cells_p, block_size=block_size, cache=cache, name="md.cells")
    return MultidimStore(schema, header, measure_width, reader)
