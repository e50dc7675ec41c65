"""Baseline table representation: a sorted row file plus a paged key index.

Rows are fixed width (one 4-octet index per dimension, then the measure),
sorted by logical position.  The index is a static bulk-loaded tree whose
leaf level is sparse: one (first key, group number) entry per group of rows
that fills about one page.  A lookup walks root to leaf, bisecting each
page's keys, then fetches the group's rows and bisects them one coordinate
column at a time, so every query costs O(height) page reads plus one
row-group read.  The searches run in C over `memoryview` casts of the
blocks, which read native byte order: the files are little-endian, so the
module refuses to import on a big-endian host.  All of it goes through the
same block-access layer as the multidimensional store: from the files for a
loaded table, from memory for a freshly built one.

Page 0 of the index is the meta page: the seven `META_FIELDS` in the
envelope every header file has (`headers.write_envelope`), padded with
zeros to the page size.  Only the page size is a free choice; every other
field follows from the schema and the two file sizes, and a load rejects a
meta page that disagrees with them, or rows that `TableStore.positions()`
rejects: a coordinate past its dimension, or keys out of order.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul
from pathlib import Path
from typing import Sequence

import numpy as np

from .blockio import MAX_BLOCK_SIZE, BlockReader, BytesReader, Closing, SimCache, touch_codes
from .errors import FormatError
from .headers import read_envelope, write_envelope
from .relation import (
    MEASURE_FORMATS,
    DimensionSchema,
    Relation,
    encode_logical_position,
    ordered_cells,
    schema_from_json,
    schema_to_json,
)

COORD_WIDTH = 4
_IDX_MAGIC = b"TIDX"
_ENTRY = struct.Struct("<QQ")  # key, child page or row group
_COUNT = struct.Struct("<H")
META_FIELDS = (
    "page_size", "row_width", "n_rows", "rows_per_group", "n_groups", "root_page", "height",
)
_META_END = len(write_envelope(_IDX_MAGIC, *[0] * len(META_FIELDS)))  # the meta page's prefix
if sys.byteorder != "little":  # lookups cast the little-endian pages in native order
    raise ImportError("sparsecube's table lookups need a little-endian host")


@dataclass(frozen=True)
class TableParams:
    page_size: int = 4096


def _rows_per_group(page_size: int, row_width: int) -> int:
    return max(1, page_size // row_width)


class TableStore(Closing):
    def __init__(
        self,
        schema: DimensionSchema,
        measure_width: int,
        page_size: int,
        rows: BlockReader,
        idx: BlockReader,
    ):
        """Every meta field but the page size follows from the schema and
        the sizes of the row file and the index."""
        self.schema = schema
        self.measure_width = measure_width
        self.page_size = page_size
        self.row_width = schema.n_dims * COORD_WIDTH + measure_width
        self.n_rows = rows.file_size // self.row_width
        self.rows_per_group = _rows_per_group(page_size, self.row_width)
        self.n_groups = -(-self.n_rows // self.rows_per_group)
        self.n_pages = idx.file_size // page_size
        self.root_page = self.n_pages - 1  # levels are written bottom-up, root last
        self.entries_per_page = (page_size - 2) // _ENTRY.size
        self.height, level = 1, self.n_groups
        while level > self.entries_per_page:
            self.height, level = self.height + 1, -(-level // self.entries_per_page)
        self._rows = rows
        self._idx = idx
        self._measure = struct.Struct(MEASURE_FORMATS[measure_width])

    def meta(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in META_FIELDS)

    def close(self) -> None:
        self._rows.close()
        self._idx.close()

    def positions(self) -> np.ndarray:
        """Logical positions of the rows in file order, as uint64, from one
        read of the row file around the cache.  A coordinate past its
        dimension, or keys that do not strictly increase, raise FormatError."""
        words = np.frombuffer(self._rows.contents(), dtype="<u4")
        columns = words.reshape(-1, self.row_width // COORD_WIDTH).T  # coordinates, then measure
        keys = np.zeros(columns.shape[1], dtype=np.uint64)
        for column, n, stride in zip(columns, self.schema.cardinalities, self.schema.strides):
            if column.max(initial=0) >= n:
                raise FormatError("a row holds a coordinate past its dimension")
            keys += column * np.uint64(stride)
        if not (keys[1:] > keys[:-1]).all():
            raise FormatError("row keys do not strictly increase")
        return keys

    # -- sizes ------------------------------------------------------------

    def rows_file_size(self) -> int:
        return self.n_rows * self.row_width

    def idx_file_size(self) -> int:
        return self.n_pages * self.page_size

    def total_size(self) -> int:
        return self.rows_file_size() + self.idx_file_size()

    # -- lookup -----------------------------------------------------------

    def _entries(self, page: bytes, lead: int | None) -> memoryview:
        """The page's entries as key, child, key, child, ...

        `lead` is the key of the entry that led to this page (None at the
        root), which must be the page's first key.
        """
        (count,) = _COUNT.unpack_from(page, 0)
        if not 0 < count <= self.entries_per_page:
            raise FormatError(f"index page holds {count} entries, not 1..{self.entries_per_page}")
        entries = memoryview(page)[2 : 2 + 16 * count].cast("Q")
        if lead is not None and entries[0] != lead:
            raise FormatError(f"index page starts at key {entries[0]}, not at its parent's key {lead}")
        return entries

    def point_query(self, coords: Sequence[int]) -> float | None:
        """The cell's measure, or None.  An index entry that points outside
        the index or past the last row group, or at a page or a group that
        does not start at the entry's key, raises FormatError (a group only
        when it misses the key)."""
        key = encode_logical_position(coords, self.schema)
        # The walk enters through the meta page (root pointer lives there);
        # it stays cached, but its block belongs to the representation and
        # must be accounted like any other.
        idx, page_size = self._idx, self.page_size
        idx.read_at(0, page_size)
        page_no, entry_key = self.root_page, None
        for level in range(self.height - 1, -1, -1):
            entries = self._entries(idx.read_at(page_no * page_size, page_size), entry_key)
            # The rightmost entry with entry.key <= key; none when the
            # page's first key is already past it.
            slot = 2 * (bisect_right(entries[::2], key) - 1)
            if slot < 0:
                return None
            entry_key, page_no = entries[slot], entries[slot + 1]
            if level and not 0 < page_no < self.root_page:
                raise FormatError(f"index page {page_no} is not between meta and root")
        group = page_no  # leaf entries point at row groups
        if group >= self.n_groups:
            raise FormatError(f"row group {group} is past the last of {self.n_groups}")
        first = group * self.rows_per_group
        count = min(self.rows_per_group, self.n_rows - first)
        rows = self._rows.read_at(first * self.row_width, count * self.row_width)
        # Rows are sorted by key, which for in-range coordinates is their
        # lexicographic order, so narrowing [lo, hi) to the rows that match
        # the key's first j + 1 coordinates ends, on a miss, at the key's
        # insertion point.
        cols = memoryview(rows).cast("I")
        width = self.row_width // COORD_WIDTH  # a row is 4·d + 4 or 4·d + 8 octets
        lo, hi = 0, count
        for j, c in enumerate(coords):
            column = cols[j::width]
            lo = bisect_left(column, c, lo, hi)
            hi = bisect_right(column, c, lo, hi)
        if lo < hi:
            off = lo * self.row_width + self.schema.n_dims * COORD_WIDTH
            return self._measure.unpack_from(rows, off)[0]
        # A miss between two of the group's rows is in the right group
        # whatever the index says.  A miss past either end is an answer only
        # if the index led to the group that starts at its key (row 0's key:
        # `map` stops at the last stride).
        if lo in (0, count) and sum(map(mul, cols, self.schema.strides)) != entry_key:
            raise FormatError(f"row group {group} does not start at its index key {entry_key}")
        return None

    def block_touches(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the blocks `point_query` reads for each logical
        position, in order: query q's are `codes[starts[q]:starts[q + 1]]`,
        over `readers()` (see `blockio.touch_codes`).

        The walk goes level by level, one search per index page the batch
        reaches, with the pages read around the cache.  A query reads the
        meta page, the pages on its path and its row group, each one block,
        and stops where `point_query` returns None.  The page checks of
        `point_query` raise FormatError here too; the row group's own check
        on a miss is not made, since it needs the rows.
        """
        positions = np.asarray(positions, dtype=np.uint64)
        n = len(positions)
        # The blocks each query reads: the meta page, a page per level, its row group.
        path = np.zeros((n, self.height + 2), dtype=np.int64)
        path[:, 1] = self.root_page
        page = path[:, 1]
        reached = np.full(n, 2, dtype=np.int64)  # how many of them it reads
        alive = np.arange(n)  # the queries still walking
        lead = None  # the keys of the entries that led to `page`
        for depth, level in enumerate(range(self.height - 1, -1, -1), 2):
            entry_key = np.zeros(len(alive), dtype=np.uint64)
            child = np.zeros(len(alive), dtype=np.uint64)
            found = np.zeros(len(alive), dtype=bool)
            # One search per distinct page, over the queries that reached it.
            order = np.argsort(page, kind="stable")
            pages, firsts = np.unique(page[order], return_index=True)
            bounds = np.append(firsts, len(order))
            for i, page_no in enumerate(pages.tolist()):
                members = order[bounds[i] : bounds[i + 1]]
                block = self._idx._load_block(page_no)
                # Every distinct lead is checked; at most one can match.
                for page_lead in [None] if lead is None else np.unique(lead[members]).tolist():
                    entries = np.asarray(self._entries(block, page_lead))
                slot = np.searchsorted(entries[::2], positions[alive[members]], side="right") - 1
                hit = slot >= 0
                members, slot = members[hit], 2 * slot[hit]
                found[members] = True
                entry_key[members] = entries[slot]
                child[members] = entries[slot + 1]
            alive, lead, child = alive[found], entry_key[found], child[found]
            if level:
                bad = child[(child == 0) | (child >= self.root_page)]
                problem = "index page {} is not between meta and root"
            else:
                bad = child[child >= self.n_groups]
                problem = f"row group {{}} is past the last of {self.n_groups}"
            if bad.size:
                raise FormatError(problem.format(bad[0]))
            page = path[alive, depth] = child.astype(np.int64)
            reached[alive] += 1
        return touch_codes(
            2, np.repeat([0, 1], [self.height + 1, 1]), path,
            np.arange(self.height + 2) < reached[:, None],
        )

    def readers(self) -> tuple[BlockReader, ...]:
        """The store's block readers, in the order `block_touches` codes them."""
        return (self._idx, self._rows)


def _pack_page(entries: list[tuple[int, int]], page_size: int) -> bytes:
    page = bytearray(page_size)
    _COUNT.pack_into(page, 0, len(entries))
    off = 2
    for key, val in entries:
        _ENTRY.pack_into(page, off, key, val)
        off += 16
    return bytes(page)


def build_table(rel: Relation, params: TableParams = TableParams()) -> TableStore:
    page_size = params.page_size
    positions, coords, measures = ordered_cells(rel)
    n_rows = len(positions)
    n_dims = rel.schema.n_dims
    row_width = n_dims * COORD_WIDTH + rel.measure_width
    if row_width > page_size or not _META_END <= page_size <= MAX_BLOCK_SIZE:
        raise ValueError(f"a page must hold a row and the {_META_END}-octet meta prefix, "
                         f"in at most {MAX_BLOCK_SIZE} octets")

    dtype = np.dtype([("c", "<u4", (n_dims,)), ("m", MEASURE_FORMATS[rel.measure_width])])
    rows_arr = np.empty(n_rows, dtype=dtype)
    rows_arr["c"] = coords
    rows_arr["m"] = measures

    rows_per_group = _rows_per_group(page_size, row_width)
    n_groups = (n_rows + rows_per_group - 1) // rows_per_group

    entries_per_page = (page_size - 2) // 16
    level = list(zip(positions[::rows_per_group].tolist(), range(n_groups)))
    pages: list[bytes] = []
    first_page_of_level = 1  # page 0 is the meta page
    height = 0
    while True:
        height += 1
        level_pages = [
            level[i : i + entries_per_page]
            for i in range(0, len(level), entries_per_page)
        ]
        pages.extend(_pack_page(chunk, page_size) for chunk in level_pages)
        if len(level_pages) == 1:
            break
        level = [
            (chunk[0][0], first_page_of_level + i)
            for i, chunk in enumerate(level_pages)
        ]
        first_page_of_level += len(level_pages)
    root_page = len(pages)  # levels are written bottom-up, root last; meta is page 0

    meta = write_envelope(
        _IDX_MAGIC, page_size, row_width, n_rows, rows_per_group, n_groups, root_page, height
    )
    rows = BytesReader(
        rows_arr.tobytes(), block_size=rows_per_group * row_width, name="tbl.rows"
    )
    idx = BytesReader(
        meta.ljust(page_size, b"\0") + b"".join(pages), block_size=page_size, name="tbl.idx"
    )
    return TableStore(rel.schema, rel.measure_width, page_size, rows, idx)


def table_paths(base: str | Path) -> tuple[Path, Path, Path]:
    base = str(base)
    return Path(base + ".schema"), Path(base + ".rows"), Path(base + ".idx")


def save_table(store: TableStore, base: str | Path) -> None:
    schema_p, rows_p, idx_p = table_paths(base)
    schema_p.write_bytes(schema_to_json(store.schema, store.measure_width))
    rows_p.write_bytes(store._rows.contents())
    idx_p.write_bytes(store._idx.contents())


def load_table(base: str | Path, cache: SimCache | None = None) -> TableStore:
    schema_p, rows_p, idx_p = table_paths(base)
    schema, measure_width = schema_from_json(schema_p.read_bytes())
    with open(idx_p, "rb") as f:
        meta, _ = read_envelope(f.read(_META_END), _IDX_MAGIC, len(META_FIELDS))
    page_size = meta[0]
    if not _META_END <= page_size <= MAX_BLOCK_SIZE:
        raise FormatError(f"page size {page_size} is not in {_META_END}..{MAX_BLOCK_SIZE}")
    row_width = schema.n_dims * COORD_WIDTH + measure_width
    # Row groups are the natural I/O unit of the packed row file; reading in
    # group-sized blocks keeps every query on exactly one rows-file block.
    rows = BlockReader(
        rows_p,
        block_size=_rows_per_group(page_size, row_width) * row_width,
        cache=cache,
        name="tbl.rows",
    )
    idx = BlockReader(idx_p, block_size=page_size, cache=cache, name="tbl.idx")
    store = TableStore(schema, measure_width, page_size, rows, idx)
    bad = [
        f"{name} {stored}, but the files and schema give {derived}"
        for name, stored, derived in zip(META_FIELDS, meta, store.meta())
        if stored != derived
    ]
    if store.total_size() != rows.file_size + idx.file_size:
        bad.append("the files are not whole rows and pages")
    try:
        if bad:
            raise FormatError("index meta page does not match: " + "; ".join(bad))
        store.positions()  # checks every row's coordinates and order
    except FormatError:
        store.close()
        raise
    return store
