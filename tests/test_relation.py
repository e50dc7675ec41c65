import csv
import gc
import io
import itertools
import json
import random
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparsecube import mdstore, relation, tablestore

from sparsecube.errors import (
    EmptyRelationError,
    IngestError,
    InvalidCoordinateError,
    InvalidPositionError,
)
from sparsecube.relation import (
    Dimension,
    DimensionSchema,
    IngestConfig,
    Relation,
    decode_logical_position,
    decode_positions,
    encode_logical_position,
    ingest_delimited,
    logical_position_sequence,
    ordered_cells,
    schema_from_json,
    schema_to_json,
)
from sparsecube.synth import SynthSpec, generate


def enumeration_rank(cards, coords):
    """Independent oracle: rank of coords in row-major enumeration order."""
    space = list(itertools.product(*[range(c) for c in cards]))
    return space.index(tuple(coords))


def schema(*cards):
    return DimensionSchema.from_cardinalities(cards)


schemas = st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
    lambda cards: DimensionSchema.from_cardinalities(cards)
)


@st.composite
def schema_and_coords(draw):
    s = draw(schemas)
    coords = tuple(draw(st.integers(0, c - 1)) for c in s.cardinalities)
    return s, coords


class TestEncodeDecode:
    def test_origin_is_zero(self):
        assert encode_logical_position((0, 0, 0), schema(3, 4, 5)) == 0

    def test_rank_matches_enumeration(self):
        # Expected value computed by the enumeration oracle: 59.
        assert enumeration_rank((3, 4, 5), (2, 3, 4)) == 59
        assert encode_logical_position((2, 3, 4), schema(3, 4, 5)) == 59

    def test_single_dimension_is_identity(self):
        assert encode_logical_position((6,), schema(7)) == 6
        assert decode_logical_position(6, schema(7)) == (6,)

    def test_decode_examples(self):
        assert decode_logical_position(0, schema(3, 4, 5)) == (0, 0, 0)
        assert decode_logical_position(59, schema(3, 4, 5)) == (2, 3, 4)

    def test_exhaustive_against_oracle(self):
        s = schema(3, 4, 5)
        for rank, coords in enumerate(itertools.product(range(3), range(4), range(5))):
            assert encode_logical_position(coords, s) == rank
            assert decode_logical_position(rank, s) == coords

    @given(schema_and_coords())
    def test_round_trip(self, sc):
        s, coords = sc
        assert decode_logical_position(encode_logical_position(coords, s), s) == coords

    @given(schema_and_coords(), schema_and_coords())
    def test_monotone_in_lex_order(self, a, b):
        s, c1 = a
        _, c2 = b
        c2 = tuple(min(x, card - 1) for x, card in zip(c2, s.cardinalities))
        if len(c2) != s.n_dims:
            c2 = c1
        if c1 < c2:
            assert encode_logical_position(c1, s) < encode_logical_position(c2, s)

    def test_coordinate_out_of_range(self):
        with pytest.raises(InvalidCoordinateError):
            encode_logical_position((3, 0, 0), schema(3, 4, 5))
        with pytest.raises(InvalidCoordinateError):
            encode_logical_position((0, 0), schema(3, 4, 5))

    @pytest.mark.parametrize(
        "coords", [(0.5, 0, 4), (0, 0, 4.0), (0, "0", 4), (None, 0, 0), (0, True, 4)]
    )
    def test_non_integer_coordinate_rejected(self, coords):
        # A float made (0.5, 0, 4) position 32.0, a stored cell's, in LPC.
        rel = generate(SynthSpec((6, 7, 8), 0.3, seed=1))
        assert rel.get(decode_logical_position(32, rel.schema)) is not None
        reps = [mdstore.build_store(rel, s) for s in mdstore.SCHEMES]
        reps.append(tablestore.build_table(rel))
        for query in [rel.get, *(r.point_query for r in reps)]:
            with pytest.raises(InvalidCoordinateError, match="not an integer"):
                query(coords)

    @pytest.mark.parametrize("coords", [(np.uint8(0), 400), (np.uint8(0), -5)])
    def test_narrow_numpy_coordinate_keeps_range_checks(self, coords):
        # np.uint8(0) * 300 overflows; every later coordinate is still checked,
        # so (0, 400) does not reach position 400, cell (1, 100).
        rel = generate(SynthSpec((2, 300), 0.5, seed=2))
        assert rel.get((1, 100)) is not None
        reps = [mdstore.build_store(rel, s) for s in mdstore.SCHEMES]
        reps.append(tablestore.build_table(rel))
        for query in [rel.get, *(r.point_query for r in reps)]:
            with pytest.raises(InvalidCoordinateError):
                query(coords)

    def test_numpy_integer_coordinates_accepted(self):
        top = tuple(np.int64(c - 1) for c in NEAR_2_64.cardinalities)
        with np.errstate(over="ignore"):  # the numpy sum wraps; the position is recomputed
            assert encode_logical_position(top, NEAR_2_64) == NEAR_2_64.total_cells - 1
        assert encode_logical_position((np.uint8(2), 3, np.int32(4)), schema(3, 4, 5)) == 59
        big = DimensionSchema.from_cardinalities((300, 300))
        assert encode_logical_position((np.uint8(255), np.uint8(255)), big) == 255 * 300 + 255
        rel = generate(SynthSpec((6, 7, 8), 0.3, seed=1))
        reps = [mdstore.build_store(rel, s) for s in mdstore.SCHEMES]
        reps.append(tablestore.build_table(rel))
        for coords, value in list(rel.iter_cells())[:10]:
            key = tuple(np.int64(c) for c in coords)
            assert rel.get(key) == value
            assert [r.point_query(key) for r in reps] == [value] * len(reps)

    def test_position_out_of_range(self):
        with pytest.raises(InvalidPositionError):
            decode_logical_position(60, schema(3, 4, 5))
        with pytest.raises(InvalidPositionError):
            decode_logical_position(-1, schema(3, 4, 5))

    @pytest.mark.parametrize("position", [5.5, 5.0, True, False, np.float64(5.0), np.bool_(True),
                                          "5", None])
    def test_non_integer_position_rejected(self, position):
        with pytest.raises(InvalidPositionError, match="is not an integer"):
            decode_logical_position(position, schema(3, 4, 5))

    def test_numpy_integer_positions_accepted(self):
        for position in (np.uint64(59), np.int64(59), np.uint8(59)):
            assert decode_logical_position(position, schema(3, 4, 5)) == (2, 3, 4)


# Labels from all of Unicode but lone surrogates, which UTF-8 cannot encode,
# plus the text of integers.
any_label = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",)), max_size=5),
    st.integers(-99, 999).map(str),
)


class TestSchema:
    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            Dimension("d", ())

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            Dimension("d", ("a", "a"))

    def test_rejects_position_overflow(self):
        # 2000^6 > 2^64: the build must refuse the schema.
        with pytest.raises(ValueError, match="64-bit"):
            DimensionSchema.from_cardinalities([2000] * 6)

    def test_labels_past_their_bound_refused(self):
        bound = relation.MAX_LABELS
        with pytest.raises(ValueError, match=f"^{bound + 1} value labels, more than {bound}$"):
            DimensionSchema.from_cardinalities([bound, 1])

    def test_cells_then_labels_checked_before_any_label_is_made(self, monkeypatch):
        monkeypatch.setattr(relation, "MAX_LABELS", 10)
        assert DimensionSchema.from_cardinalities([5, 5]).total_cells == 25
        with pytest.raises(ValueError, match="^11 value labels, more than 10$"):
            DimensionSchema.from_cardinalities([5, 6])
        # Past both bounds, the cell count is named.
        with pytest.raises(ValueError, match="64-bit"):
            DimensionSchema.from_cardinalities([2**32, 2**32, 4])

    def test_large_but_valid_schema(self):
        s = DimensionSchema.from_cardinalities([1000] * 6)  # 10^18 < 2^64
        assert s.total_cells == 10**18

    @given(st.lists(st.lists(any_label, min_size=1, max_size=12, unique=True),
                    min_size=1, max_size=3))
    @example([["", ",", '"', "\n", "7", "-1", "\U0001d518", "\x00"]])
    def test_labels_round_trip(self, value_lists):
        dims = tuple(Dimension(f"d{i}", vs) for i, vs in enumerate(value_lists))
        assert [d.values for d in dims] == [tuple(vs) for vs in value_lists]
        s = DimensionSchema(dims)
        raw = schema_to_json(s, 4)
        back, width = schema_from_json(raw)
        assert (back, hash(back), width) == (s, hash(s), 4)
        # Byte for byte what the plain lists give, so `.schema` files do not move.
        plain = {
            "dimensions": [{"name": f"d{i}", "values": vs} for i, vs in enumerate(value_lists)],
            "measure_width": 4,
        }
        assert raw == json.dumps(plain, sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(ValueError, match="duplicate"):
            Dimension("d", value_lists[0] + value_lists[0][:1])

    def test_equal_only_with_equal_labels(self):
        # One packed buffer, split two ways, is two different dimensions.
        assert Dimension("d", ["ab", "c"]) == Dimension("d", ("ab", "c"))
        assert Dimension("d", ["ab", "c"]) != Dimension("d", ["a", "bc"])
        assert Dimension("d", ["ab"]) != Dimension("e", ["ab"])

    def test_loaded_schema_holds_no_str_per_label(self):
        raw = schema_to_json(schema(128, 128, 64), 8)
        tracemalloc.start()
        try:
            loaded, _ = schema_from_json(raw)
            heap = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loaded == schema(128, 128, 64)
        assert heap <= 2 * len(raw), (heap, len(raw))


class TestPositionSequence:
    def test_single_cell_at_origin(self):
        rel = Relation(schema(2, 2), {(0, 0): 1.0})
        assert logical_position_sequence(rel) == [0]

    def test_two_cells(self):
        # Oracle: brute-force encode+sort of {(0,1),(1,0)} in a 2x2 grid.
        rel = Relation(schema(2, 2), {(0, 1): 1.0, (1, 0): 2.0})
        assert logical_position_sequence(rel) == [1, 2]

    def test_fully_dense(self):
        cells = {c: 1.0 for c in itertools.product(range(2), range(2))}
        rel = Relation(schema(2, 2), cells)
        assert logical_position_sequence(rel) == [0, 1, 2, 3]

    def test_empty_relation_errors(self):
        with pytest.raises(EmptyRelationError):
            logical_position_sequence(Relation(schema(2, 2), {}))

    @given(st.data())
    def test_strictly_increasing_with_length_n(self, data):
        s = data.draw(schemas)
        n = data.draw(st.integers(1, min(20, s.total_cells)))
        space = list(itertools.product(*[range(c) for c in s.cardinalities]))
        chosen = data.draw(st.permutations(space)) [:n]
        rel = Relation(s, {c: 1.0 for c in chosen})
        seq = logical_position_sequence(rel)
        assert len(seq) == n
        assert all(a < b for a, b in zip(seq, seq[1:]))


# (2**16)**3 * (2**16 - 1) = 2**64 - 2**48: positions above 2**63 exercise
# the unsigned 64-bit arithmetic.
NEAR_2_64 = DimensionSchema.from_cardinalities((1 << 16, 1 << 16, 1 << 16, (1 << 16) - 1))


class TestDecodeNear2To64:
    @given(st.integers(0, NEAR_2_64.total_cells - 1))
    @example(NEAR_2_64.total_cells - 1)
    @example(1 << 63)
    def test_scalar_decoder_is_the_array_decoder(self, position):
        coords = decode_logical_position(position, NEAR_2_64)
        assert all(type(c) is int for c in coords)
        columns = decode_positions(np.array([position], dtype=np.uint64), NEAR_2_64)
        assert coords == tuple(int(column[0]) for column in columns)
        # Oracle: Python's unbounded integers, one stride at a time.
        rest, want = position, []
        for stride in NEAR_2_64.strides:
            want.append(rest // stride)
            rest %= stride
        assert coords == tuple(want)
        assert encode_logical_position(coords, NEAR_2_64) == position

    @pytest.mark.parametrize("position", [-1, NEAR_2_64.total_cells, 1 << 64])
    def test_position_outside_the_schema_raises(self, position):
        with pytest.raises(InvalidPositionError, match="out of range"):
            decode_logical_position(position, NEAR_2_64)


@st.composite
def relations(draw):
    s = draw(st.one_of(schemas, st.just(NEAR_2_64)))
    key = st.tuples(*(st.integers(0, c - 1) for c in s.cardinalities))
    keys = draw(st.lists(key, min_size=1, max_size=30, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    measures = draw(st.lists(values, min_size=len(keys), max_size=len(keys)))
    return Relation(s, dict(zip(keys, measures)))


# Each bad key of test_builders_reject_invalid_keys and the error it raises.
BAD_KEYS = [
    ((-1, 0, 0), "coordinate -1 out of range for dimension 'd0' (cardinality 3)"),
    ((3, 0, 0), "coordinate 3 out of range for dimension 'd0' (cardinality 3)"),
    ((0, 0, 5), "coordinate 5 out of range for dimension 'd2' (cardinality 5)"),
    ((0, 0), "expected 3 coordinates, got 2"),
    ((0, 0, 0, 0), "expected 3 coordinates, got 4"),
    ((0, 1.0, 0), "coordinate 1.0 is not an integer"),
    ((True, 0, 0), "coordinate True is not an integer"),
]


class TestOrderedCells:
    @given(relations())
    @example(Relation(NEAR_2_64, {
        tuple(c - 1 for c in NEAR_2_64.cardinalities): 1.0,
        (1 << 15, 0, 0, 0): 2.0,
        (0, 0, 0, 0): 3.0,
    }))
    def test_matches_sorted_scalar_encoding(self, rel):
        positions, coords, measures = ordered_cells(rel)
        # Oracle: the scalar encoder, one cell at a time, then a Python sort.
        want = sorted(encode_logical_position(c, rel.schema) for c in rel.cells)
        assert positions.dtype == np.uint64
        assert positions.tolist() == want
        by_position = {
            encode_logical_position(c, rel.schema): (c, v) for c, v in rel.cells.items()
        }
        assert coords.shape == (rel.n_cells, rel.schema.n_dims)
        assert [tuple(c) for c in coords.tolist()] == [by_position[p][0] for p in want]
        assert measures.tolist() == [by_position[p][1] for p in want]

    def test_top_corner_is_the_last_position(self):
        top = tuple(c - 1 for c in NEAR_2_64.cardinalities)
        rel = Relation(NEAR_2_64, {top: 1.0, (0, 0, 0, 0): 2.0})
        assert logical_position_sequence(rel) == [0, NEAR_2_64.total_cells - 1]
        assert NEAR_2_64.total_cells - 1 > 1 << 63

    @pytest.mark.parametrize("bad_key", [key for key, _ in BAD_KEYS])
    @pytest.mark.parametrize("build", [
        *(lambda rel, s=s: mdstore.build_store(rel, s) for s in mdstore.SCHEMES),
        tablestore.build_table,
        logical_position_sequence,
    ])
    def test_builders_reject_invalid_keys(self, build, bad_key):
        message = next(m for key, m in BAD_KEYS if key is bad_key)
        rel = Relation(schema(3, 4, 5), {(0, 0, 0): 1.0, bad_key: 2.0, (2, 3, 4): 3.0})
        with pytest.raises(InvalidCoordinateError) as raised:
            build(rel)
        assert type(raised.value) is InvalidCoordinateError
        assert str(raised.value) == message

    def test_numpy_integer_keys_accepted(self):
        cells = {(2, 1, 4): 1.5, (0, 3, 0): 2.5, (1, 0, 2): 3.5}
        want = ordered_cells(Relation(schema(3, 4, 5), cells))
        as_numpy = {
            (np.uint8(a), np.int64(b), np.int32(c)): v for (a, b, c), v in cells.items()
        }
        rel = Relation(schema(3, 4, 5), as_numpy)
        got = ordered_cells(rel)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
        assert got[0].tolist() == sorted(encode_logical_position(k, rel.schema) for k in cells)
        table = tablestore.build_table(rel)
        dhc = mdstore.build_store(rel, "dhc")
        for key, value in cells.items():
            assert table.point_query(key) == dhc.point_query(key) == value

    @pytest.mark.parametrize("make", [
        lambda tmp: generate(SynthSpec((6, 7, 8), 0.3, seed=1)),
        lambda tmp: Relation(schema(3, 4), {(2, 1): 1.5, (0, 3): 2.5, (1, 0): 3.5}),
        lambda tmp: ingest_text(tmp, "b,y,1\na,x,2\nb,x,3\n").relation,
    ])
    def test_arrays_are_read_only_and_shared(self, tmp_path, make):
        rel = make(tmp_path)
        positions, coords, measures = arrays = ordered_cells(rel)
        want = [a.copy() for a in arrays]
        for write in (
            lambda: positions.__setitem__(0, 7),
            lambda: coords.__setitem__((0, 0), 1),
            lambda: measures.__setitem__(slice(None), 0.0),
            lambda: measures.sort(),
        ):
            with pytest.raises(ValueError, match="read-only"):
                write()
        again = ordered_cells(rel)
        assert all(a is b for a, b in zip(again, arrays))
        assert all(np.array_equal(a, b) for a, b in zip(again, want))
        table = tablestore.build_table(rel)
        lpc = mdstore.build_store(rel, "lpc")
        for key, value in rel.iter_cells():
            assert lpc.point_query(key) == table.point_query(key) == value

    def test_key_beyond_64_bits_rejected(self):
        rel = Relation(schema(3, 4, 5), {(0, 0, 0): 1.0, (1 << 70, 0, 0): 2.0})
        with pytest.raises(InvalidCoordinateError, match="out of range"):
            ordered_cells(rel)


def ingest_text(tmp_path, text, config=IngestConfig()):
    p = tmp_path / "in.csv"
    p.write_text(text, encoding="utf-8", newline="")
    return ingest_delimited(p, config)


def oracle_ingest(rows, config):
    """Row-by-row reference: the schema's value lists, the cell dict, and the
    duplicate count that `ingest_delimited` must produce for `rows`."""
    if config.declared_values is not None:
        value_lists = [list(vs) for vs in config.declared_values]
    else:
        value_lists = [list(dict.fromkeys(row[j] for row in rows)) for j in range(len(rows[0]) - 1)]
        if config.sorted_values:
            value_lists = [sorted(vs) for vs in value_lists]
    cells = {}
    for row in rows:
        key = tuple(vs.index(v) for vs, v in zip(value_lists, row))
        cells[key] = float(row[-1])
    return value_lists, cells, len(rows) - len(cells)


# Dimension values that need quoting (commas, quotes, newlines), other
# separators, spaces and non-ASCII text.  No lone carriage return: csv.writer leaves it
# unquoted under a "\n" line terminator, and it would then end the row.
labels = st.text(alphabet=st.sampled_from(list('ab,;"\' \t\né☃')), max_size=4)
measure_texts = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", " 2.5 ", "-0.0", "inf"]),
)


@st.composite
def delimited_files(draw):
    n_dims = draw(st.integers(1, 3))
    pools = [draw(st.lists(labels, min_size=1, max_size=5, unique=True)) for _ in range(n_dims)]
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in pools), measure_texts).map(list),
        min_size=1, max_size=40,
    ))
    mode = draw(st.sampled_from(["first-seen", "sorted", "declared"]))
    declared = None
    if mode == "declared":
        declared = tuple(
            tuple(draw(st.permutations(pool + [f"unused{j}"]))) for j, pool in enumerate(pools)
        )
    config = IngestConfig(
        has_header=draw(st.booleans()),
        sorted_values=mode == "sorted",
        declared_values=declared,
    )
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    if config.has_header:
        writer.writerow([f"dim{j}" for j in range(n_dims)] + ["measure"])
    writer.writerows(rows)
    return out.getvalue(), rows, config


def check_against_oracle(case):
    text, rows, config = case
    value_lists, cells, duplicates = oracle_ingest(rows, config)
    with tempfile.TemporaryDirectory() as tmp:
        result = ingest_text(Path(tmp), text, config)
    rel = result.relation
    assert [list(d.values) for d in rel.schema.dimensions] == value_lists
    assert result.duplicates == duplicates
    assert list(rel.cells.items()) == list(cells.items())
    positions, coords, measures = ordered_cells(rel)
    by_position = sorted((encode_logical_position(k, rel.schema), k, v) for k, v in cells.items())
    assert positions.tolist() == [p for p, _, _ in by_position]
    assert [tuple(c) for c in coords.tolist()] == [k for _, k, _ in by_position]
    assert measures.tolist() == [v for _, _, v in by_position]
    assert rel.n_cells == len(cells)


class TestIngest:
    @given(delimited_files())
    def test_matches_row_by_row_oracle(self, case):
        check_against_oracle(case)

    @given(delimited_files())
    def test_matches_oracle_across_chunk_boundaries(self, case):
        # Two records per chunk: every file of three or more records
        # crosses a chunk boundary.
        with mock.patch.object(relation, "CHUNK_RECORDS", 2):
            check_against_oracle(case)

    def write(self, tmp_path, text, name="in.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_three_rows(self, tmp_path):
        p = self.write(tmp_path, "a,x,1.5\nb,y,2.5\na,y,3.5\n")
        result = ingest_delimited(p)
        rel = result.relation
        assert rel.n_cells == 3
        assert result.duplicates == 0
        assert rel.schema.cardinalities == (2, 2)
        # First-seen order: a->0, b->1; x->0, y->1.
        assert rel.get((0, 0)) == 1.5
        assert rel.get((0, 1)) == 3.5

    def test_first_seen_value_order(self, tmp_path):
        p = self.write(tmp_path, "b,y,1\na,y,2\nb,x,3\n")
        rel = ingest_delimited(p).relation
        assert [d.values for d in rel.schema.dimensions] == [("b", "a"), ("y", "x")]
        assert list(rel.cells.items()) == [((0, 0), 1.0), ((1, 0), 2.0), ((0, 1), 3.0)]

    def test_duplicate_keys_last_write_wins(self, tmp_path):
        p = self.write(tmp_path, "a,x,1\na,x,2\nb,x,3\na,x,4\n")
        result = ingest_delimited(p)
        assert result.relation.n_cells == 2
        assert result.duplicates == 2
        assert result.relation.get((0, 0)) == 4.0

    def test_wrong_column_count_names_row(self, tmp_path):
        p = self.write(tmp_path, "a,x,1\nb,y\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_delimited(p)

    def test_bad_measure_names_row(self, tmp_path):
        p = self.write(tmp_path, "a,x,1\nb,y,zap\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_delimited(p)

    def test_header_skip(self, tmp_path):
        p = self.write(tmp_path, "dim1,dim2,value\na,x,1\n")
        result = ingest_delimited(p, IngestConfig(has_header=True))
        assert result.relation.n_cells == 1

    def test_sorted_values(self, tmp_path):
        p = self.write(tmp_path, "b,9\na,8\n")
        rel = ingest_delimited(p, IngestConfig(sorted_values=True)).relation
        assert rel.schema.dimensions[0].values == ("a", "b")
        assert rel.get((0,)) == 8.0

    def test_declared_values(self, tmp_path):
        p = self.write(tmp_path, "b,1\n")
        cfg = IngestConfig(declared_values=(("a", "b", "c"),))
        rel = ingest_delimited(p, cfg).relation
        assert rel.schema.cardinalities == (3,)
        assert rel.get((1,)) == 1.0

    def test_undeclared_value_errors(self, tmp_path):
        p = self.write(tmp_path, "z,1\n")
        with pytest.raises(IngestError, match="undeclared"):
            ingest_delimited(p, IngestConfig(declared_values=(("a",),)))

    def test_undeclared_value_named_in_row_order(self, tmp_path):
        # Row 1 has one in its second column, row 2 one in its first: a
        # column-at-a-time parse must still name row 1's.
        # The error names the record, counting a header line and blank lines.
        cfg = IngestConfig(declared_values=(("a", "b"), ("x", "y")))
        with pytest.raises(IngestError, match="undeclared dimension value 'z'") as exc:
            ingest_text(tmp_path, "a,z,1\nq,x,2\n", cfg)
        assert exc.value.row == 1
        with pytest.raises(IngestError, match="^row 4: undeclared dimension value 'q'") as exc:
            ingest_text(tmp_path, "d0,d1,m\nb,y,1\n\nq,x,2\na,z,3\n",
                        replace(cfg, has_header=True))
        assert exc.value.row == 4

    def test_many_rows_with_blank_lines(self, tmp_path):
        # Blank records and duplicates spread over a long file; errors deep
        # in it are named by record number, blank records counted.
        rng = random.Random(5)
        lines, rows = [], []
        for i in range(3000):
            if rng.random() < 0.05:
                lines.append("")
                continue
            row = [f"k{rng.randrange(40)}", f"m{rng.randrange(30)}", str(i)]
            rows.append(row)
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
        result = ingest_text(tmp_path, text)
        value_lists, cells, duplicates = oracle_ingest(rows, IngestConfig())
        assert [list(d.values) for d in result.relation.schema.dimensions] == value_lists
        assert list(result.relation.cells.items()) == list(cells.items())
        assert result.duplicates == duplicates > 0
        for record, bad in ((2100, "k1,m1,zap"), (1700, "k1,m1")):
            broken = lines[: record - 1] + [bad] + lines[record - 1:]
            with pytest.raises(IngestError, match=f"^row {record}:"):
                ingest_text(tmp_path, "\n".join(broken) + "\n")

    def test_empty_file_errors(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(EmptyRelationError):
            ingest_delimited(p)


ROWS = ["a,x,1", "b,y,2", "a,y,3", "b,x,4", "c,x,5", "c,y,6", "a,x,7"]


def raises_at(tmp_path, lines, row, message, config=IngestConfig()):
    """Ingest `lines` and check the IngestError and the row it names."""
    with pytest.raises(IngestError, match=f"^row {row}: {re.escape(message)}$") as exc:
        ingest_text(tmp_path, "\n".join(lines) + "\n", config)
    assert exc.value.row == row


class TestIngestChunks:
    """Files read three records at a time: errors on either side of a chunk
    boundary are named as a row-by-row parse names them."""

    @pytest.fixture(autouse=True)
    def three_record_chunks(self, monkeypatch):
        monkeypatch.setattr(relation, "CHUNK_RECORDS", 3)

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("edge", ["last of a chunk", "first of the next"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("b,y", "expected 3 columns, got 2"),
            ("b,y,zap", "measure 'zap' is not numeric"),
            pytest.param(
                "b," + "y" * 140_000 + ",1", "field larger than field limit (131072)",
                id="csv-field-limit",
            ),
        ],
    )
    def test_bad_row_at_a_chunk_boundary(self, tmp_path, has_header, edge, bad, message):
        # The header is read before the first chunk, so with one the first
        # chunk holds records 2-4.
        record = (3 if edge == "last of a chunk" else 4) + has_header
        lines = ["d0,d1,m"] * has_header + ROWS
        lines.insert(record - 1, bad)
        raises_at(tmp_path, lines, record, message, IngestConfig(has_header=has_header))

    def test_header_past_the_csv_field_limit(self, tmp_path):
        raises_at(tmp_path, ["d" * 140_000 + ",d1,m"] + ROWS, 1,
                  "field larger than field limit (131072)", IngestConfig(has_header=True))

    def test_undeclared_value_in_a_later_chunk(self, tmp_path):
        cfg = IngestConfig(declared_values=(("a", "b", "c"), ("x", "y")))
        raises_at(tmp_path, ROWS[:5] + ["a,z,8"] + ROWS[5:], 6,
                  "undeclared dimension value 'z'", cfg)

    def test_bad_row_in_a_later_chunk_named_before_an_undeclared_value(self, tmp_path):
        # Every row's width and measure are checked before any value.
        cfg = IngestConfig(declared_values=(("a", "b", "c"), ("x", "y")))
        raises_at(tmp_path, ["a,z,8"] + ROWS + ["c,zap"], 9, "expected 3 columns, got 2", cfg)

    def test_dimension_count_from_a_later_chunk(self, tmp_path):
        # The first chunk holds blank records only.
        lines = ["", "", "", ""] + ROWS[:2]
        rel = ingest_text(tmp_path, "\n".join(lines) + "\n").relation
        assert rel.schema.cardinalities == (2, 2)
        assert list(rel.cells.items()) == [((0, 0), 1.0), ((1, 1), 2.0)]
        raises_at(tmp_path, lines + ["c,3"], 7, "expected 3 columns, got 2")
        raises_at(tmp_path, ["", "", "", "", "5"] + ROWS, 5, "need at least one dimension column")

    def test_header_and_blank_records_only(self, tmp_path):
        with pytest.raises(EmptyRelationError):
            ingest_text(tmp_path, "d0,d1,m\n\n\n\n\n", IngestConfig(has_header=True))


class TestIngestReadsOnce:
    """The file is opened once, whether it loads or raises."""

    DECLARED = IngestConfig(declared_values=(("a", "b", "c"), ("x", "y")))

    @pytest.fixture(autouse=True)
    def opens(self, monkeypatch):
        paths = []

        def counting_open(path, *args, **kwargs):
            paths.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(relation, "open", counting_open, raising=False)
        monkeypatch.setattr(relation, "CHUNK_RECORDS", 3)
        return paths

    def test_good_file(self, tmp_path, opens):
        assert ingest_text(tmp_path, "\n".join(ROWS) + "\n").relation.n_cells == 6
        assert len(opens) == 1

    @pytest.mark.parametrize("lines, row, message, config", [
        (ROWS[:4] + ["c,y"] + ROWS[4:], 5, "expected 3 columns, got 2", IngestConfig()),
        (ROWS[:4] + ["c,y,zap"] + ROWS[4:], 5, "measure 'zap' is not numeric", IngestConfig()),
        (ROWS[:4] + ["c,z,1"] + ROWS[4:], 5, "undeclared dimension value 'z'", DECLARED),
        (["", "5"] + ROWS, 2, "need at least one dimension column", IngestConfig()),
    ])
    def test_each_error(self, tmp_path, opens, lines, row, message, config):
        raises_at(tmp_path, lines, row, message, config)
        assert len(opens) == 1

    def test_duplicate_declared_values_rejected(self, tmp_path):
        config = IngestConfig(declared_values=(("a", "b", "a"), ("x", "y")))
        with pytest.raises(ValueError, match="duplicate values"):
            ingest_text(tmp_path, "\n".join(ROWS[:2]) + "\n", config)


def test_ingest_triggers_no_collection(tmp_path):
    # Ingest keeps fewer rows alive at once than the collector's first
    # threshold.  Counted the same way at the commit that read every record
    # into one list: 66 generation-0 and 5 generation-1 collections.
    rng = random.Random(3)
    p = tmp_path / "rows.csv"
    p.write_text("".join(
        f"a{rng.randrange(64)},b{rng.randrange(64)},c{rng.randrange(64)},{i}.5\n"
        for i in range(50_000)
    ))
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        assert ingest_delimited(p).relation.n_cells > 0
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert collections[2] == 0
    assert collections[0] <= 5


@pytest.mark.parametrize("width", [0, 5, 16, 8.0, True])
@pytest.mark.parametrize("make", [
    lambda w: Relation(schema(4, 5), {(0, 0): 1.0, (3, 4): 2.0}, measure_width=w),
    lambda w: Relation.from_ordered(
        schema(4, 5), np.array([0, 19], dtype=np.uint64), np.array([[0, 0], [3, 4]]),
        np.array([1.0, 2.0]), measure_width=w,
    ),
    lambda w: generate(SynthSpec((4, 5), 0.5, seed=1, measure_width=w)),
], ids=["dict", "from_ordered", "generate"])
def test_relation_rejects_a_measure_width_without_a_format(make, width):
    # Width 5 once reached build_table, which packed 8-octet floats into
    # 13-octet rows and then answered 9 of this relation's 10 cells as empty;
    # a width of 8.0 or True made the builders fail with TypeError.
    with pytest.raises(ValueError, match=f"unsupported measure width {width!r}"):
        make(width)
