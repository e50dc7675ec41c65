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

Index pages are `PAGE_SIZE` octets, the size of the multidimensional
store's cell blocks, and the index file holds only its level pages, leaf
level from page 0 and the root last.  The whole index follows from the
sorted row keys (`_index_bytes`): a build writes it, and a load checks the
rows (`_row_keys`: whole rows, each coordinate within its dimension, keys
in order) and then the saved index against it octet for octet, so an index
written at another page size is refused.  So a loaded index is canonical,
and `block_touches` works out from a row's rank alone which blocks its
query reads.  `point_query` still checks every page it reads, since a file
can change after it is loaded.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
from operator import mul
from pathlib import Path
from typing import Sequence

import numpy as np

from .blockio import BlockReader, BytesReader, Closing, SimCache
from .errors import FormatError
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
PAGE_SIZE = 4096  # octets per index page, and about per row group
_ENTRY = struct.Struct("<QQ")  # key, child page or row group
_COUNT = struct.Struct("<H")
if sys.byteorder != "little":  # lookups cast the little-endian pages in native order
    raise ImportError("sparsecube's table lookups need a little-endian host")


def _rows_per_group(page_size: int, row_width: int) -> int:
    return max(1, page_size // row_width)


class TableStore(Closing):
    def __init__(
        self,
        schema: DimensionSchema,
        measure_width: int,
        rows: BlockReader,
        idx: BlockReader,
        level_first: Sequence[int],
    ):
        """`idx` reads in pages and `rows` in row groups; `level_first` is
        the first page of each index level, leaf level first (see
        `_index_bytes`)."""
        self.schema = schema
        self.measure_width = measure_width
        self.page_size = idx.block_size
        self.row_width = schema.n_dims * COORD_WIDTH + measure_width
        self.n_rows = rows.file_size // self.row_width
        self.rows_per_group = _rows_per_group(self.page_size, self.row_width)
        self.n_groups = -(-self.n_rows // self.rows_per_group)
        self.entries_per_page = _entries_per_page(self.page_size)
        self.level_first = tuple(level_first)
        self.height = len(self.level_first)
        self.root_page = self.level_first[-1]  # levels are written bottom-up, root last
        self._rows = rows
        self._idx = idx
        self._measure = struct.Struct(MEASURE_FORMATS[measure_width])

    def close(self) -> None:
        self._rows.close()
        self._idx.close()

    def positions(self) -> np.ndarray:
        """Logical positions of the rows in file order, as uint64, from one
        read of the row file around the cache (see `_row_keys`)."""
        return _row_keys(self._rows.contents(), self.schema, self.row_width)

    # -- sizes ------------------------------------------------------------

    def rows_file_size(self) -> int:
        return self.n_rows * self.row_width

    def idx_file_size(self) -> int:
        return (self.root_page + 1) * self.page_size

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
        the next level's pages or past the last row group, or at a page or a
        group that does not start at the entry's key, raises FormatError (a
        group only when it misses the key)."""
        key = encode_logical_position(coords, self.schema)
        idx, page_size, level_first = self._idx, self.page_size, self.level_first
        page_no, entry_key = self.root_page, None
        for level in range(self.height - 1, -1, -1):
            entries = self._entries(idx.read_at(page_no * page_size, page_size), entry_key)
            # The rightmost entry with entry.key <= key; none when the
            # page's first key is already past it.
            slot = 2 * (bisect_right(entries[::2], key) - 1)
            if slot < 0:
                return None
            entry_key, page_no = entries[slot], entries[slot + 1]
            if level and not level_first[level - 1] <= page_no < level_first[level]:
                raise FormatError(f"index page {page_no} is not on index level {level - 1}")
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

    def block_touches(self, ranks: np.ndarray) -> np.ndarray:
        """The codes of the blocks `point_query` reads for the stored rows of
        these ranks, one row per query, over `readers()`: code k names block
        `k // 2` of reader `k % 2`.

        A stored row's query reads one index page per level, from the root
        down to the leaf, and then its row group.  A load has proved
        the index is `_index_bytes` of the rows, so those blocks follow from
        the rank alone and no file is read.
        """
        group = np.asarray(ranks, dtype=np.int64) // self.rows_per_group
        path = [
            self.level_first[level] + group // self.entries_per_page ** (level + 1)
            for level in range(self.height - 1, -1, -1)
        ]
        codes = np.stack([*path, group], axis=1) * 2
        codes[:, -1] += 1  # the row group, in the row file
        return codes

    def readers(self) -> tuple[BlockReader, ...]:
        """The store's block readers, in the order `block_touches` codes them."""
        return (self._idx, self._rows)


def _entries_per_page(page_size: int) -> int:
    return (page_size - _COUNT.size) // _ENTRY.size


def _row_keys(data: bytes, schema: DimensionSchema, row_width: int) -> np.ndarray:
    """The logical position of each row in `data`, as uint64.  Anything but
    a nonzero whole number of rows, a coordinate past its dimension, or keys
    that do not strictly increase raise FormatError."""
    if not data or len(data) % row_width:
        raise FormatError(f"the row file is not a nonzero whole number of {row_width}-octet rows")
    words = np.frombuffer(data, dtype="<u4")
    columns = words.reshape(-1, row_width // COORD_WIDTH).T  # coordinates, then measure
    keys = np.zeros(columns.shape[1], dtype=np.uint64)
    for column, n, stride in zip(columns, schema.cardinalities, schema.strides):
        if column.max(initial=0) >= n:
            raise FormatError("a row holds a coordinate past its dimension")
        keys += column * np.uint64(stride)
    if not (keys[1:] > keys[:-1]).all():
        raise FormatError("row keys do not strictly increase")
    return keys


def _index_bytes(positions: np.ndarray, page_size: int, row_width: int) -> tuple[bytes, list[int]]:
    """The index file over rows with these keys, in order, and the first page
    of each level, leaf level first.

    The levels are written bottom-up, leaf level from page 0, root last.  A
    leaf entry is a row group's first key and its number, an entry above it
    its child page's first key and page number, and a page holds its entry
    count, then as many entries as fit, then zeros.
    """
    fanout = _entries_per_page(page_size)
    page = np.dtype({"names": ["count", "entries"], "formats": ["<u2", ("<u8", (fanout, 2))],
                     "offsets": [0, _COUNT.size], "itemsize": page_size})  # zeros in the gaps
    keys = np.asarray(positions, dtype=np.uint64)[:: _rows_per_group(page_size, row_width)]
    children = np.arange(len(keys), dtype=np.uint64)
    level_first, pages = [0], []
    while True:
        n_pages = -(-len(keys) // fanout)
        entries = np.zeros((n_pages * fanout, 2), dtype=np.uint64)
        entries[: len(keys)] = np.column_stack((keys, children))
        level = np.zeros(n_pages, dtype=page)
        level["entries"] = entries.reshape(n_pages, fanout, 2)
        level["count"] = fanout
        level["count"][-1] = len(keys) - (n_pages - 1) * fanout
        pages.append(level.tobytes())
        if n_pages == 1:
            break
        keys = keys[::fanout]
        children = np.arange(level_first[-1], level_first[-1] + n_pages, dtype=np.uint64)
        level_first.append(level_first[-1] + n_pages)
    return b"".join(pages), level_first


def build_table(rel: Relation) -> TableStore:
    """The table of `rel`, in `PAGE_SIZE`-octet pages.  A row wider than a
    page raises ValueError."""
    page_size = PAGE_SIZE
    positions, coords, measures = ordered_cells(rel)
    n_dims = rel.schema.n_dims
    row_width = n_dims * COORD_WIDTH + rel.measure_width
    if row_width > page_size:
        raise ValueError(f"a row of {row_width} octets does not fit a {page_size}-octet page")

    dtype = np.dtype([("c", "<u4", (n_dims,)), ("m", MEASURE_FORMATS[rel.measure_width])])
    rows_arr = np.empty(len(positions), dtype=dtype)
    rows_arr["c"] = coords
    rows_arr["m"] = measures
    index, level_first = _index_bytes(positions, page_size, row_width)
    rows = BytesReader(
        rows_arr.tobytes(), block_size=_rows_per_group(page_size, row_width) * row_width,
        name="tbl.rows",
    )
    idx = BytesReader(index, block_size=page_size, name="tbl.idx")
    return TableStore(rel.schema, rel.measure_width, rows, idx, level_first)


def table_paths(base: str | Path) -> tuple[Path, Path, Path]:
    base = str(base)
    return Path(base + ".schema"), Path(base + ".rows"), Path(base + ".idx")


def save_table(store: TableStore, base: str | Path) -> None:
    schema_p, rows_p, idx_p = table_paths(base)
    schema_p.write_bytes(schema_to_json(store.schema, store.measure_width))
    rows_p.write_bytes(store._rows.contents())
    idx_p.write_bytes(store._idx.contents())


def load_table(base: str | Path, cache: SimCache | None = None) -> TableStore:
    """The table saved at `base`.  Its rows must pass `_row_keys`, and its
    index must be, octet for octet, the one `_index_bytes` makes of them at
    `PAGE_SIZE`."""
    page_size = PAGE_SIZE
    schema_p, rows_p, idx_p = table_paths(base)
    schema, measure_width = schema_from_json(schema_p.read_bytes())
    row_width = schema.n_dims * COORD_WIDTH + measure_width
    # Row groups are the natural I/O unit of the packed row file; reading in
    # group-sized blocks keeps every query on exactly one rows-file block.
    with ExitStack() as opened:  # closes what is open if the checks raise
        rows = opened.enter_context(BlockReader(
            rows_p,
            block_size=_rows_per_group(page_size, row_width) * row_width,
            cache=cache,
            name="tbl.rows",
        ))
        idx = opened.enter_context(
            BlockReader(idx_p, block_size=page_size, cache=cache, name="tbl.idx")
        )
        index, level_first = _index_bytes(
            _row_keys(rows.contents(), schema, row_width), page_size, row_width
        )
        if idx.file_size != len(index) or idx.contents() != index:
            raise FormatError("the index is not the one its rows and page size give")
        opened.pop_all()
    return TableStore(schema, measure_width, rows, idx, level_first)
