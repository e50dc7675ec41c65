"""Relation data model: dimension schema, coordinates, logical positions.

A relation is a set of (coordinate vector -> measure) entries over an ordered
list of dimensions.  Cells are addressed either by coordinates or by their
logical position, the rank of the cell in the row-major linearization of the
full (mostly empty) multidimensional array.  The last dimension varies
fastest; positions are unsigned and must fit in 64 bits.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .errors import (
    EmptyRelationError,
    FormatError,
    IngestError,
    InvalidCoordinateError,
    InvalidPositionError,
)

MAX_TOTAL_CELLS = 1 << 64


@dataclass(frozen=True)
class Dimension:
    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError(f"dimension {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"dimension {self.name!r} has duplicate values")

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DimensionSchema:
    dimensions: tuple[Dimension, ...]
    # Row-major strides, last dimension fastest, and each dimension's
    # cardinality; filled in __post_init__.
    strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    cardinalities: tuple[int, ...] = field(init=False, compare=False, repr=False)
    total_cells: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.dimensions:
            raise ValueError("schema needs at least one dimension")
        cards = tuple(dim.cardinality for dim in self.dimensions)
        total = 1
        for card in cards:
            total *= card
        if total >= MAX_TOTAL_CELLS:
            raise ValueError(
                f"total cell count {total} does not fit a 64-bit logical position"
            )
        strides = []
        acc = 1
        for card in reversed(cards):
            strides.append(acc)
            acc *= card
        object.__setattr__(self, "strides", tuple(reversed(strides)))
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "total_cells", total)

    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    @classmethod
    def from_cardinalities(cls, cards: Sequence[int], names: Sequence[str] | None = None) -> "DimensionSchema":
        """Schema with synthetic value labels v0..v{c-1} per dimension."""
        dims = []
        for i, c in enumerate(cards):
            name = names[i] if names else f"d{i}"
            dims.append(Dimension(name, tuple(f"v{j}" for j in range(c))))
        return cls(tuple(dims))


def schema_to_json(schema: DimensionSchema, measure_width: int) -> bytes:
    """The `.schema` file of both stores: dimension values and measure width."""
    doc = {
        "dimensions": [
            {"name": d.name, "values": list(d.values)} for d in schema.dimensions
        ],
        "measure_width": measure_width,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def schema_from_json(raw: bytes) -> tuple[DimensionSchema, int]:
    try:
        doc = json.loads(raw.decode("utf-8"))
        dims = tuple(
            Dimension(d["name"], tuple(d["values"])) for d in doc["dimensions"]
        )
        return DimensionSchema(dims), int(doc["measure_width"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"bad schema file: {exc}") from exc


def encode_logical_position(coords: Sequence[int], schema: DimensionSchema) -> int:
    """Row-major rank of a coordinate vector (last dimension fastest)."""
    strides = schema.strides
    if len(coords) != len(strides):
        raise InvalidCoordinateError(
            f"expected {len(strides)} coordinates, got {len(coords)}"
        )
    pos = 0
    for idx, stride, card in zip(coords, strides, schema.cardinalities):
        if not 0 <= idx < card:
            raise _out_of_range(coords, schema)
        pos += idx * stride
    return pos


def _out_of_range(coords: Sequence[int], schema: DimensionSchema) -> InvalidCoordinateError:
    """The error naming the first coordinate outside its dimension."""
    idx, dim = next(
        (i, d) for i, d in zip(coords, schema.dimensions) if not 0 <= i < d.cardinality
    )
    return InvalidCoordinateError(
        f"coordinate {idx} out of range for dimension {dim.name!r} "
        f"(cardinality {dim.cardinality})"
    )


def decode_logical_position(position: int, schema: DimensionSchema) -> tuple[int, ...]:
    """Inverse of encode_logical_position."""
    if not 0 <= position < schema.total_cells:
        raise InvalidPositionError(
            f"position {position} out of range [0, {schema.total_cells})"
        )
    coords = []
    rest = position
    for stride in schema.strides:
        idx, rest = divmod(rest, stride)
        coords.append(idx)
    return tuple(coords)


@dataclass
class Relation:
    """Ground-truth mapping from coordinate vectors to measures."""

    schema: DimensionSchema
    cells: dict[tuple[int, ...], float]
    measure_width: int = 8

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def get(self, coords: Sequence[int]) -> float | None:
        """Measure at coords, or None for an empty cell."""
        encode_logical_position(coords, self.schema)  # validates
        return self.cells.get(tuple(coords))

    def iter_cells(self) -> Iterator[tuple[tuple[int, ...], float]]:
        return iter(self.cells.items())


def ordered_cells(rel: Relation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty cells in logical-position order, as three arrays.

    Returns the strictly increasing positions (uint64), the coordinates in
    the same order as an (n, d) int64 array, and the measures (float64) in
    the same order.  Raises the error `encode_logical_position` raises for
    the first key, in insertion order, that does not fit the schema.
    """
    schema = rel.schema
    n, d = len(rel.cells), schema.n_dims
    if n == 0:
        raise EmptyRelationError("relation has no cells")
    if set(map(len, rel.cells)) != {d}:
        _raise_for_invalid_key(rel)
    try:
        coords = np.fromiter(
            itertools.chain.from_iterable(rel.cells), dtype=np.int64, count=n * d
        ).reshape(n, d)
    except OverflowError:
        _raise_for_invalid_key(rel)
    if ((coords < 0) | (coords >= np.array(schema.cardinalities))).any():
        _raise_for_invalid_key(rel)
    # Every product and partial sum is below total_cells < 2**64.
    positions = coords.astype(np.uint64) @ np.array(schema.strides, dtype=np.uint64)
    order = np.argsort(positions)
    measures = np.fromiter(rel.cells.values(), dtype=np.float64, count=n)
    return positions[order], coords[order], measures[order]


def _raise_for_invalid_key(rel: Relation) -> NoReturn:
    """Raise the scalar encoder's error for the first key that does not fit."""
    for key in rel.cells:
        encode_logical_position(key, rel.schema)
    raise InvalidCoordinateError("relation holds a key that is not a coordinate vector")


def logical_position_sequence(rel: Relation) -> list[int]:
    """Strictly increasing logical positions of the nonempty cells."""
    return ordered_cells(rel)[0].tolist()


@dataclass(frozen=True)
class IngestConfig:
    delimiter: str = ","
    has_header: bool = False
    sorted_values: bool = False
    dimension_names: tuple[str, ...] | None = None
    declared_values: tuple[tuple[str, ...], ...] | None = None
    measure_width: int = 8


@dataclass
class IngestResult:
    relation: Relation
    duplicates: int


def ingest_delimited(path: str | Path, config: IngestConfig = IngestConfig()) -> IngestResult:
    """Load a relation from delimited text, one `dim...,measure` row per cell.

    Dimension values are collected in first-seen order (or sorted when the
    config asks for it) unless pre-declared.  Duplicate keys are
    last-write-wins and counted.  The rows are parsed by column: each
    dimension column goes through its value index, and the key columns are
    zipped into the cell dict.
    """
    with open(path, newline="", encoding="utf-8") as f:
        records = list(csv.reader(f, delimiter=config.delimiter))
    skip = 1 if config.has_header else 0
    rows = list(filter(None, records[skip:]))
    if not rows:
        raise EmptyRelationError(f"no data rows in {path}")
    if config.declared_values is not None:
        n_dims = len(config.declared_values)
    else:
        n_dims = len(rows[0]) - 1
        if n_dims < 1:
            first = next(n for n, raw in enumerate(records[skip:], start=skip + 1) if raw)
            raise IngestError("need at least one dimension column", row=first)
    width = n_dims + 1
    if set(map(len, rows)) != {width}:
        _raise_for_bad_row(records, skip, width)
    columns = [list(map(itemgetter(i), rows)) for i in range(width)]
    try:
        measures = list(map(float, columns[-1]))
    except ValueError:
        _raise_for_bad_row(records, skip, width)

    if config.declared_values is not None:
        value_lists = [list(vs) for vs in config.declared_values]
    else:
        value_lists = [list(dict.fromkeys(col)) for col in columns[:-1]]
        if config.sorted_values:
            value_lists = [sorted(vs) for vs in value_lists]

    names = config.dimension_names or tuple(f"d{i}" for i in range(n_dims))
    schema = DimensionSchema(
        tuple(Dimension(n, tuple(vs)) for n, vs in zip(names, value_lists))
    )
    # zip pulls the key columns a row at a time, so an undeclared value is
    # reported in row order, as a row-by-row parse would report it.
    keys = zip(*(
        map({v: i for i, v in enumerate(vs)}.__getitem__, col)
        for vs, col in zip(value_lists, columns)
    ))
    try:
        cells = dict(zip(keys, measures))
    except KeyError as exc:
        raise IngestError(f"undeclared dimension value {exc.args[0]!r}") from None
    return IngestResult(
        Relation(schema, cells, measure_width=config.measure_width),
        len(rows) - len(cells),
    )


def _raise_for_bad_row(records: list[list[str]], skip: int, width: int) -> NoReturn:
    """Raise IngestError naming the first data row that is not `width`
    columns ending in a number."""
    for lineno, raw in enumerate(records[skip:], start=skip + 1):
        if not raw:
            continue
        if len(raw) != width:
            raise IngestError(f"expected {width} columns, got {len(raw)}", row=lineno)
        try:
            float(raw[-1])
        except ValueError:
            raise IngestError(f"measure {raw[-1]!r} is not numeric", row=lineno) from None
