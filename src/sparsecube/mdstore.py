"""Multidimensional physical representation.

A store is the compressed cell array (measures of the nonempty cells in
logical-position order), one of the five headers, and the dimension value
arrays.  On disk it is three files: `<name>.schema` (JSON), `<name>.hdr`
(binary header) and `<name>.cells` (raw measures).  On load the header,
schema and rebuilt auxiliary arrays live in memory; cell reads stay on disk
and go through the block-access layer so a simulated cache can watch them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diffseq, headers
from .blockio import BlockReader, SimCache
from .errors import FormatError, InvalidPositionError, OffsetOverflowError
from .relation import (
    Dimension,
    DimensionSchema,
    Relation,
    encode_logical_position,
    ordered_cells,
)

SCHEMES = ("schc", "lpc", "boc", "dsc", "dhc")

_MEASURE_FMT = {4: "<f", 8: "<d"}


@dataclass(frozen=True)
class StoreParams:
    entry_width: int = 8
    offset_width: int = 2
    block_len: int = 16
    diff_bits: int = 16
    stride: int = 16


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
        scheme: str,
        header,
        measure_width: int,
        cells_mem: bytes | None = None,
        cells_reader: BlockReader | None = None,
    ):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if measure_width not in _MEASURE_FMT:
            raise ValueError(f"unsupported measure width {measure_width}")
        self.schema = schema
        self.scheme = scheme
        self.header = header
        self.measure_width = measure_width
        self._cells_mem = cells_mem
        self._cells_reader = cells_reader
        self._measure = struct.Struct(_MEASURE_FMT[measure_width])
        size = len(cells_mem) if cells_mem is not None else cells_reader.file_size
        self.n_cells = size // measure_width

    def close(self) -> None:
        if self._cells_reader is not None:
            self._cells_reader.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def cell_measure(self, physical: int) -> float:
        off = physical * self.measure_width
        if self._cells_mem is not None:
            raw = self._cells_mem[off : off + self.measure_width]
        else:
            raw = self._cells_reader.read_at(off, self.measure_width)
        return self._measure.unpack(raw)[0]

    def lookup_position(self, position: int) -> int | None:
        return self.header.lookup(position)

    def point_query(self, coords: Sequence[int]) -> float | None:
        position = encode_logical_position(coords, self.schema)
        physical = self.header.lookup(position)
        if physical is None:
            return None
        return self.cell_measure(physical)

    def stored_positions(self) -> list[int]:
        return self.header.positions()

    def stored_coords(self) -> list[tuple[int, ...]]:
        """Coordinates of the stored cells in physical order, decoded in numpy."""
        positions = self.stored_positions()
        try:
            rest = np.array(positions, dtype=np.uint64)
        except OverflowError:
            rest = None
        if rest is None or (rest.size and rest.max() >= self.schema.total_cells):
            raise InvalidPositionError(
                f"stored position out of range [0, {self.schema.total_cells})"
            )
        columns = []
        for stride in self.schema.strides:
            column, rest = np.divmod(rest, np.uint64(stride))
            columns.append(column.tolist())
        return list(zip(*columns))

    def schema_bytes(self) -> bytes:
        return _schema_to_json(self.schema, self.measure_width)

    def size_report(self) -> SizeReport:
        disk = {
            "header": len(self.header.to_bytes()),
            "cells": self.n_cells * self.measure_width,
            "schema": len(self.schema_bytes()),
        }
        memory = {"rebuilt_aux": self.header.memory_bytes() - self.header.size_bytes()}
        return SizeReport(self.scheme, self.n_cells, disk, memory)


def _schema_to_json(schema: DimensionSchema, measure_width: int) -> bytes:
    doc = {
        "dimensions": [
            {"name": d.name, "values": list(d.values)} for d in schema.dimensions
        ],
        "measure_width": measure_width,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _schema_from_json(raw: bytes) -> tuple[DimensionSchema, int]:
    try:
        doc = json.loads(raw.decode("utf-8"))
        dims = tuple(
            Dimension(d["name"], tuple(d["values"])) for d in doc["dimensions"]
        )
        return DimensionSchema(dims), int(doc["measure_width"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"bad schema file: {exc}") from exc


def _build_header(scheme: str, positions, total_cells: int, params: StoreParams):
    if scheme == "schc":
        return headers.build_schc(positions, total_cells, params.entry_width)
    if scheme == "lpc":
        return headers.build_lpc(positions, params.entry_width)
    if scheme == "boc":
        return headers.build_boc(
            positions, params.block_len, params.entry_width, params.offset_width
        )
    if scheme == "dsc":
        return diffseq.build_dsc(
            positions, params.diff_bits, params.entry_width, params.stride
        )
    if scheme == "dhc":
        return diffseq.build_dhc(
            positions, params.diff_bits, params.entry_width, params.stride
        )
    raise ValueError(f"unknown scheme {scheme!r}")


_HEADER_TYPES = {
    b"SCHC": headers.SchcHeader,
    b"LPCH": headers.LpcHeader,
    b"BOCH": headers.BocHeader,
    b"DSCH": diffseq.DscHeader,
    b"DHCH": diffseq.DhcHeader,
}

_SCHEME_BY_MAGIC = {
    b"SCHC": "schc",
    b"LPCH": "lpc",
    b"BOCH": "boc",
    b"DSCH": "dsc",
    b"DHCH": "dhc",
}


def _new_store(rel: Relation, scheme: str, header, measures: np.ndarray) -> MultidimStore:
    dtype = "<f4" if rel.measure_width == 4 else "<f8"
    return MultidimStore(
        rel.schema, scheme, header, rel.measure_width,
        cells_mem=measures.astype(dtype).tobytes(),
    )


def build_store(
    rel: Relation, scheme: str, params: StoreParams = StoreParams()
) -> MultidimStore:
    """Build with exactly `params`; a BOC offset that does not fit raises."""
    positions, _, measures = ordered_cells(rel)
    header = _build_header(scheme, positions, rel.schema.total_cells, params)
    return _new_store(rel, scheme, header, measures)


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
    total = rel.schema.total_cells
    for width in range(params.offset_width, params.entry_width):
        try:
            header = _build_header(scheme, positions, total, replace(params, offset_width=width))
            break
        except OffsetOverflowError:
            continue
    else:
        header = _build_header(scheme, positions, total, replace(params, block_len=1))
    return _new_store(rel, scheme, header, measures)


def point_query(store: MultidimStore, coords: Sequence[int]) -> float | None:
    return store.point_query(coords)


def store_paths(base: str | Path) -> tuple[Path, Path, Path]:
    base = str(base)
    return Path(base + ".schema"), Path(base + ".hdr"), Path(base + ".cells")


def save(store: MultidimStore, base: str | Path) -> None:
    schema_p, hdr_p, cells_p = store_paths(base)
    header = store.header.to_bytes()  # an entry too wide raises before any file is written
    schema_p.write_bytes(store.schema_bytes())
    hdr_p.write_bytes(header)
    if store._cells_mem is not None:
        cells_p.write_bytes(store._cells_mem)
    else:
        cells_p.write_bytes(
            store._cells_reader.read_at(0, store.n_cells * store.measure_width)
        )


def load(
    base: str | Path,
    preload: bool = False,
    cache: SimCache | None = None,
    block_size: int = 4096,
) -> MultidimStore:
    schema_p, hdr_p, cells_p = store_paths(base)
    schema, measure_width = _schema_from_json(schema_p.read_bytes())
    raw = hdr_p.read_bytes()
    if len(raw) < 5:
        raise FormatError("header file too short")
    magic = raw[:4]
    if magic not in _HEADER_TYPES:
        raise FormatError(f"unknown header magic {magic!r}")
    header = _HEADER_TYPES[magic].from_bytes(raw)
    scheme = _SCHEME_BY_MAGIC[magic]
    if preload:
        return MultidimStore(
            schema, scheme, header, measure_width, cells_mem=cells_p.read_bytes()
        )
    reader = BlockReader(cells_p, block_size=block_size, cache=cache, name="md.cells")
    return MultidimStore(schema, scheme, header, measure_width, cells_reader=reader)


def size_report(store: MultidimStore) -> SizeReport:
    return store.size_report()
