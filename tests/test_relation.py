import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparsecube import mdstore, tablestore

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
    encode_logical_position,
    ingest_delimited,
    logical_position_sequence,
    ordered_cells,
)


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

    def test_position_out_of_range(self):
        with pytest.raises(InvalidPositionError):
            decode_logical_position(60, schema(3, 4, 5))
        with pytest.raises(InvalidPositionError):
            decode_logical_position(-1, schema(3, 4, 5))


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

    def test_large_but_valid_schema(self):
        s = DimensionSchema.from_cardinalities([1000] * 6)  # 10^18 < 2^64
        assert s.total_cells == 10**18


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


@st.composite
def relations(draw):
    s = draw(st.one_of(schemas, st.just(NEAR_2_64)))
    key = st.tuples(*(st.integers(0, c - 1) for c in s.cardinalities))
    keys = draw(st.lists(key, min_size=1, max_size=30, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    measures = draw(st.lists(values, min_size=len(keys), max_size=len(keys)))
    return Relation(s, dict(zip(keys, measures)))


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

    @pytest.mark.parametrize("bad_key", [(-1, 0, 0), (3, 0, 0), (0, 0, 5), (0, 0), (0, 0, 0, 0)])
    @pytest.mark.parametrize("build", [
        *(lambda rel, s=s: mdstore.build_store(rel, s) for s in mdstore.SCHEMES),
        lambda rel: mdstore.build_boc_with_retry(rel, "boc"),
        tablestore.build_table,
        logical_position_sequence,
    ])
    def test_builders_reject_invalid_keys(self, build, bad_key):
        rel = Relation(schema(3, 4, 5), {(0, 0, 0): 1.0, bad_key: 2.0, (2, 3, 4): 3.0})
        with pytest.raises(InvalidCoordinateError):
            build(rel)

    def test_key_beyond_64_bits_rejected(self):
        rel = Relation(schema(3, 4, 5), {(0, 0, 0): 1.0, (1 << 70, 0, 0): 2.0})
        with pytest.raises(InvalidCoordinateError, match="out of range"):
            ordered_cells(rel)


class TestIngest:
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

    def test_empty_file_errors(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(EmptyRelationError):
            ingest_delimited(p)
