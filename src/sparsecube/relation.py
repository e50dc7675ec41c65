"""Relation data model: dimension schema, coordinates, logical positions.

A relation is a set of (coordinate vector -> measure) entries over an ordered
list of dimensions.  Cells are addressed either by coordinates or by their
logical position, the rank of the cell in the row-major linearization of the
full (mostly empty) multidimensional array.  The last dimension varies
fastest; positions are unsigned and must fit in 64 bits.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyRelationError,
    FormatError,
    IngestError,
    InvalidCoordinateError,
    InvalidPositionError,
)
from .headers import narrow

MAX_TOTAL_CELLS = 1 << 64
# The measure widths in octets, each with the little-endian float format that
# `struct` and numpy both read; a relation and both stores take no other.
MEASURE_FORMATS = {4: "<f", 8: "<d"}
# The most value labels `DimensionSchema.from_cardinalities` makes.
MAX_LABELS = 1 << 20


def _cell_count(cards: Sequence[int]) -> int:
    total = math.prod(cards)
    if total >= MAX_TOTAL_CELLS:
        raise ValueError(f"total cell count {total} does not fit a 64-bit logical position")
    return total


class Dimension:
    """A named dimension and its value labels, in index order.

    The labels are held packed: one UTF-8 buffer, and each label's end
    offset in it in the narrowest array typecode that holds the buffer's
    length, so a schema holds no `str` per label.  `values` decodes them to
    a tuple on each call; `cardinality` reads only the offsets.  Raises
    ValueError for no labels, a repeated label or one UTF-8 cannot encode
    (a lone surrogate), and TypeError for a label that is not a `str`.
    """

    __slots__ = ("name", "_packed", "_ends")

    def __init__(self, name: str, values: Iterable[str]):
        try:
            encoded = [v.encode("utf-8") for v in values]
        except AttributeError:
            raise TypeError(f"dimension {name!r} has a value that is not a str") from None
        except UnicodeEncodeError:
            raise ValueError(f"dimension {name!r} has a value UTF-8 cannot encode") from None
        if not encoded:
            raise ValueError(f"dimension {name!r} has no values")
        if len(set(encoded)) != len(encoded):
            raise ValueError(f"dimension {name!r} has duplicate values")
        ends = np.fromiter(map(len, encoded), dtype=np.uint64, count=len(encoded)).cumsum()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_packed", b"".join(encoded))
        object.__setattr__(self, "_ends", narrow(ends))

    def __setattr__(self, attr, value):
        raise AttributeError(f"Dimension is read-only: cannot set {attr!r}")

    @property
    def values(self) -> tuple[str, ...]:
        packed, ends = self._packed, self._ends
        return tuple(packed[a:b].decode("utf-8") for a, b in zip(chain((0,), ends), ends))

    @property
    def cardinality(self) -> int:
        return len(self._ends)

    def _key(self) -> tuple:
        return self.name, self._packed, self._ends.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dimension):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Dimension(name={self.name!r}, values={self.values!r})"


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
        object.__setattr__(self, "total_cells", _cell_count(cards))
        strides = tuple([math.prod(cards[i + 1 :]) for i in range(len(cards))])
        object.__setattr__(self, "strides", strides)
        object.__setattr__(self, "cardinalities", cards)

    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    @classmethod
    def from_cardinalities(cls, cards: Sequence[int]) -> "DimensionSchema":
        """Schema of dimensions d0, d1, .. with labels v0..v{c-1} per dimension;
        the cell count and MAX_LABELS are checked before any label is made."""
        _cell_count(cards)
        if sum(cards) > MAX_LABELS:
            raise ValueError(f"{sum(cards)} value labels, more than {MAX_LABELS}")
        return cls(tuple(
            Dimension(f"d{i}", (f"v{j}" for j in range(c))) for i, c in enumerate(cards)
        ))


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
    """The schema and measure width a `.schema` file holds.

    Each dimension is packed as soon as its object is parsed, so no label
    `str` outlives its dimension.  Raises FormatError for a file that is
    not such a document: no dimensions, a name that is not a string, values
    that are not a non-empty list of distinct strings UTF-8 can encode, or
    a measure width that is not a key of MEASURE_FORMATS.
    """
    try:
        doc = json.loads(raw.decode("utf-8"), object_hook=_dimension_from_json)
        dims = doc["dimensions"]
        if type(dims) is not list or not all(isinstance(d, Dimension) for d in dims):
            raise TypeError("dimensions are not a list of dimension objects")
        width = doc["measure_width"]
        if type(width) is not int or width not in MEASURE_FORMATS:
            raise ValueError(f"measure width {width!r} is not one of {sorted(MEASURE_FORMATS)}")
        return DimensionSchema(tuple(dims)), width
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"bad schema file: {exc}") from exc


def _dimension_from_json(obj: dict):
    """`json.loads`'s hook: an object with values becomes a Dimension."""
    if "values" not in obj:
        return obj
    name, values = obj.get("name"), obj["values"]
    if type(name) is not str:
        raise TypeError(f"dimension name {name!r} is not a string")
    if type(values) is not list:
        raise TypeError(f"values of dimension {name!r} are not a list")
    return Dimension(name, values)


def encode_logical_position(coords: Sequence[int], schema: DimensionSchema) -> int:
    """Row-major rank of a coordinate vector (last dimension fastest).

    Coordinates are `int`s or numpy integers; the first that is anything
    else (a bool or a float too) or out of range raises InvalidCoordinateError.
    """
    strides = schema.strides
    if len(coords) != len(strides):
        raise InvalidCoordinateError(
            f"expected {len(strides)} coordinates, got {len(coords)}"
        )
    pos = 0
    for idx, stride, card in zip(coords, strides, schema.cardinalities):
        # Exactly `int` (not bool, float or numpy), so nothing below can raise.
        if idx.__class__ is not int or not 0 <= idx < card:
            return _checked_position(coords, schema)
        pos += idx * stride
    return pos


def _checked_position(coords: Sequence[int], schema: DimensionSchema) -> int:
    """The position of coordinates that are not all in-range `int`s: each
    one is checked in turn, numpy integers are encoded as `int`s, and the
    first bad one raises InvalidCoordinateError."""
    pos = 0
    for idx, stride, dim in zip(coords, schema.strides, schema.dimensions):
        if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
            raise InvalidCoordinateError(f"coordinate {idx!r} is not an integer")
        if not 0 <= idx < dim.cardinality:
            raise InvalidCoordinateError(
                f"coordinate {idx} out of range for dimension {dim.name!r} "
                f"(cardinality {dim.cardinality})"
            )
        pos += int(idx) * stride
    return pos


def decode_logical_position(position: int, schema: DimensionSchema) -> tuple[int, ...]:
    """Inverse of encode_logical_position, as `int`s, by `decode_positions`;
    a position that is not an `int` or numpy integer (a bool is not), or is
    outside the schema, raises InvalidPositionError."""
    if isinstance(position, bool) or not isinstance(position, (int, np.integer)):
        raise InvalidPositionError(f"position {position!r} is not an integer")
    if not 0 <= position < schema.total_cells:
        raise InvalidPositionError(
            f"position {position} out of range [0, {schema.total_cells})"
        )
    columns = decode_positions(np.array([position], dtype=np.uint64), schema)
    return tuple(np.concatenate(columns).tolist())


def decode_positions(positions: np.ndarray, schema: DimensionSchema) -> list[np.ndarray]:
    """Inverse of encoding for in-range uint64 positions, one uint64
    coordinate column per dimension."""
    rest, columns = positions, []
    for stride in schema.strides:
        column, rest = np.divmod(rest, np.uint64(stride))
        columns.append(column)
    return columns


OrderedCells = tuple[np.ndarray, np.ndarray, np.ndarray]


class Relation:
    """Ground-truth mapping from coordinate vectors to measures.

    A relation holds its nonempty cells in two forms.  `ordered_cells(rel)`
    gives them as three read-only arrays in logical-position order
    (positions, coordinates, measures); `cells` gives them as a dict from
    coordinate tuples to measures.  A relation made from a dict
    (`Relation(schema, cells)`) works the arrays out from it on the first
    `ordered_cells` call.  One made from arrays (`Relation.from_ordered`,
    as ingest and the generator do) builds the dict on the first
    `cells`, `get` or `iter_cells` call; `n_cells` never builds it.  Either
    form is worked out at most once, so a relation is read-only once made:
    mutating `cells` afterwards leaves the arrays stale.  A measure width
    that is not a key of MEASURE_FORMATS raises ValueError.
    """

    def __init__(self, schema: DimensionSchema, cells: dict[tuple[int, ...], float],
                 measure_width: int = 8):
        if type(measure_width) is not int or measure_width not in MEASURE_FORMATS:
            raise ValueError(f"unsupported measure width {measure_width!r}")
        self.schema = schema
        self.measure_width = measure_width
        self._cells: dict[tuple[int, ...], float] | None = cells
        self._ordered: OrderedCells | None = None
        # For a relation made from arrays: the input row each cell was first
        # seen at, which orders the dict's keys (None: position order).
        self._first_seen: np.ndarray | None = None

    @classmethod
    def from_ordered(cls, schema: DimensionSchema, positions: np.ndarray, coords: np.ndarray,
                     measures: np.ndarray, measure_width: int = 8,
                     first_seen: np.ndarray | None = None) -> "Relation":
        """A relation made from arrays in the form `ordered_cells` returns.

        The caller vouches for them: positions strictly increasing uint64
        within the schema, coordinates their (n, d) int64 decoding and one
        float64 measure per cell.  `first_seen` ranks the cells for the
        dict's iteration order; without it the dict is in position order.
        The arrays are made read-only and handed out as they are.
        """
        rel = cls(schema, None, measure_width)
        for a in (positions, coords, measures):
            a.flags.writeable = False
        rel._ordered = (positions, coords, measures)
        rel._first_seen = first_seen
        return rel

    @property
    def cells(self) -> dict[tuple[int, ...], float]:
        if self._cells is None:
            _, coords, measures = self._ordered
            if self._first_seen is not None:
                rank = np.argsort(self._first_seen)
                coords, measures = coords[rank], measures[rank]
            keys = zip(*(column.tolist() for column in coords.T))
            self._cells = dict(zip(keys, measures.tolist()))
        return self._cells

    @property
    def n_cells(self) -> int:
        if self._ordered is not None:
            return len(self._ordered[0])
        return len(self._cells)

    def get(self, coords: Sequence[int]) -> float | None:
        """Measure at coords, or None for an empty cell."""
        encode_logical_position(coords, self.schema)  # validates
        return self.cells.get(tuple(coords))

    def iter_cells(self) -> Iterator[tuple[tuple[int, ...], float]]:
        return iter(self.cells.items())

    def __repr__(self) -> str:
        return (f"Relation(schema={self.schema!r}, cells={self.cells!r}, "
                f"measure_width={self.measure_width!r})")


def ordered_cells(rel: Relation) -> OrderedCells:
    """The nonempty cells in logical-position order, as three read-only arrays.

    Returns the strictly increasing positions (uint64), the coordinates in
    the same order as an (n, d) int64 array, and the measures (float64) in
    the same order.  They are worked out once per relation and the same
    arrays are returned to every caller.  A relation made from a dict has
    each key encoded once by `encode_logical_position`, in insertion order,
    so the first key that does not fit the schema raises that encoder's error.
    """
    if rel._ordered is None:
        rel._ordered = _order_dict(rel)
    return rel._ordered


def _order_dict(rel: Relation) -> OrderedCells:
    schema, cells = rel.schema, rel.cells
    if not cells:
        raise EmptyRelationError("relation has no cells")
    positions = np.fromiter(
        (encode_logical_position(key, schema) for key in cells), dtype=np.uint64, count=len(cells)
    )
    order = np.argsort(positions)
    coords = np.array(list(cells), dtype=np.int64)
    measures = np.fromiter(cells.values(), dtype=np.float64, count=len(cells))
    ordered = positions[order], coords[order], measures[order]
    for a in ordered:
        a.flags.writeable = False
    return ordered


def logical_position_sequence(rel: Relation) -> list[int]:
    """Strictly increasing logical positions of the nonempty cells."""
    return ordered_cells(rel)[0].tolist()


@dataclass(frozen=True)
class IngestConfig:
    has_header: bool = False
    sorted_values: bool = False
    declared_values: tuple[tuple[str, ...], ...] | None = None


@dataclass
class IngestResult:
    relation: Relation
    duplicates: int


# Records read per chunk of a delimited file.  A chunk's row lists stay
# below the cyclic collector's first threshold (700 new container objects)
# and are freed before the next chunk is read, so reading a file of any
# length triggers no collection; holding every record at once would make
# the collector walk a growing heap of row lists again and again.
CHUNK_RECORDS = 512


def ingest_delimited(path: str | Path, config: IngestConfig = IngestConfig()) -> IngestResult:
    """Load a relation from comma-separated text, one `dim...,measure` row per cell.

    Dimension values are indexed in first-seen order (or sorted when the
    config asks for it) unless pre-declared.  Duplicate keys are
    last-write-wins and counted.  The file is read once, CHUNK_RECORDS
    records at a time.  While a chunk is in hand, its row widths are
    checked, its measures go into one float array and each dimension
    column goes through its value index into int64 codes; no text is kept
    past its chunk.  The row width is the declared dimensions plus one, or
    else the width of the first data row.  Positions are `coords @
    strides`, and one stable sort orders the rows, so the last of equal
    neighbours is the last write of its key.  The relation's dict is built
    from the arrays only when asked for, keyed in first-seen order.

    An error names its record, counting the header line and blank records,
    as a row-by-row parse would.  A bad width or measure is raised from its
    chunk; the first undeclared value is raised only after every width and
    measure in the file has been checked.
    """
    declared = config.declared_values
    if declared is None:
        width = indexes = None
    else:
        width = len(declared) + 1
        indexes = [{v: i for i, v in enumerate(vs)} for vs in declared]
    measures = array("d")
    pieces: list[np.ndarray] = []  # each chunk's (rows, dims) codes
    undeclared: IngestError | None = None
    seen = 1 if config.has_header else 0  # records read before the chunk
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if config.has_header:
            _next_chunk(reader, 0, 1)
        while chunk := _next_chunk(reader, seen, CHUNK_RECORDS):
            rows = list(filter(None, chunk))
            if rows:
                if width is None:
                    width = len(rows[0])
                    if width < 2:
                        first = seen + 1 + chunk.index(rows[0])
                        raise IngestError("need at least one dimension column", row=first)
                    indexes = [_FirstSeen() for _ in range(width - 1)]
                if set(map(len, rows)) != {width}:
                    _raise_for_bad_row(chunk, seen, width)
                try:
                    measures.extend(map(float, map(itemgetter(-1), rows)))
                except ValueError:
                    _raise_for_bad_row(chunk, seen, width)
                if undeclared is None:
                    try:
                        pieces.append(_codes(rows, indexes))
                    except KeyError:
                        undeclared = _undeclared(chunk, seen, indexes)
            seen += len(chunk)
            # Free this chunk's row lists before the next chunk makes its own.
            del chunk, rows
    if not measures:
        raise EmptyRelationError(f"no data rows in {path}")

    sort = declared is None and config.sorted_values
    if declared is not None:
        value_lists = declared
    else:
        value_lists = [sorted(index) if sort else tuple(index) for index in indexes]
    schema = DimensionSchema(
        tuple(Dimension(f"d{i}", vs) for i, vs in enumerate(value_lists))
    )
    if undeclared is not None:
        raise undeclared
    coords = np.concatenate(pieces)
    if sort:  # from first-seen codes to sorted ones
        for j, (index, vs) in enumerate(zip(indexes, value_lists)):
            first_seen = np.fromiter(map(index.__getitem__, vs), dtype=np.int64, count=len(vs))
            coords[:, j] = np.argsort(first_seen)[coords[:, j]]

    # Every product and partial sum is below total_cells < 2**64.
    positions = coords.astype(np.uint64) @ np.array(schema.strides, dtype=np.uint64)
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    # Equal positions sit together in row order: each key keeps its last
    # row, and its first row places it in the dict.
    starts = np.concatenate(([True], positions[1:] != positions[:-1]))
    ends = np.append(starts[1:], True)
    kept = order[ends]
    rel = Relation.from_ordered(
        schema, positions[ends], coords[kept], np.frombuffer(measures, dtype=np.float64)[kept],
        first_seen=order[starts],
    )
    return IngestResult(rel, len(measures) - len(kept))


def _next_chunk(reader: Iterator[list[str]], seen: int, size: int) -> list[list[str]]:
    """The next `size` records of `reader`, which has read `seen`; a record
    the csv module refuses raises IngestError naming it."""
    chunk: list[list[str]] = []
    try:
        chunk.extend(islice(reader, size))
    except csv.Error as exc:  # list.extend keeps the records read before it
        raise IngestError(str(exc), row=seen + len(chunk) + 1) from None
    return chunk


class _FirstSeen(dict):
    """A value index that codes each new value by the order it is first seen."""

    def __missing__(self, value: str) -> int:
        self[value] = code = len(self)
        return code


def _codes(rows: list[list[str]], indexes: list[dict[str, int]]) -> np.ndarray:
    """The (rows, dims) int64 codes of the rows' dimension values; raises
    KeyError for a value a declared index does not hold."""
    codes = np.empty((len(rows), len(indexes)), dtype=np.int64)
    # By column getter, not zip(*rows): zip makes an iterator per row, which
    # would double the chunk's containers.
    for j, index in enumerate(indexes):
        codes[:, j] = np.fromiter(
            map(index.__getitem__, map(itemgetter(j), rows)), dtype=np.int64, count=len(rows)
        )
    return codes


def _raise_for_bad_row(chunk: list[list[str]], seen: int, width: int) -> None:
    """Raise IngestError naming the first record of `chunk`, which follows
    `seen` records, that is neither blank nor `width` columns ending in a
    number."""
    for lineno, raw in enumerate(chunk, start=seen + 1):
        if not raw:
            continue
        if len(raw) != width:
            raise IngestError(f"expected {width} columns, got {len(raw)}", row=lineno)
        try:
            float(raw[-1])
        except ValueError:
            raise IngestError(f"measure {raw[-1]!r} is not numeric", row=lineno) from None


def _undeclared(chunk: list[list[str]], seen: int, indexes: list[dict[str, int]]) -> IngestError:
    """The error naming the first undeclared value of `chunk`, which follows
    `seen` records, in row order."""
    return next(
        IngestError(f"undeclared dimension value {value!r}", row=lineno)
        for lineno, raw in enumerate(chunk, start=seen + 1)
        for value, index in zip(raw, indexes)
        if value not in index
    )
