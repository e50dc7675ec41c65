import hashlib

import pytest

from sparsecube.headers import build_schc
from sparsecube.relation import logical_position_sequence
from sparsecube.synth import SynthSpec, generate


class TestGenerate:
    def test_density_sets_cell_count(self):
        for density in (0.01, 0.1, 0.5):
            spec = SynthSpec((10, 10, 10), density=density, seed=1)
            rel = generate(spec)
            assert rel.n_cells == round(density * 1000)

    def test_full_density_is_dense(self):
        rel = generate(SynthSpec((4, 5), density=1.0, seed=2))
        assert rel.n_cells == 20
        positions = logical_position_sequence(rel)
        assert positions == list(range(20))
        header = build_schc(positions, 20)
        assert header.num_runs == 1

    def test_tiny_density_clamps_to_one_cell(self):
        rel = generate(SynthSpec((3, 3), density=0.001, seed=3))
        assert rel.n_cells == 1

    def test_same_seed_same_relation(self):
        spec = SynthSpec((8, 9, 4), density=0.2, clustering=0.5, seed=77)
        a, b = generate(spec), generate(spec)
        assert logical_position_sequence(a) == logical_position_sequence(b)
        assert a.cells == b.cells

    def test_different_seeds_differ(self):
        base = dict(cardinalities=(8, 9, 4), density=0.2, clustering=0.5)
        a = generate(SynthSpec(seed=1, **base))
        b = generate(SynthSpec(seed=2, **base))
        assert logical_position_sequence(a) != logical_position_sequence(b)

    def test_clustering_one_is_single_run(self):
        rel = generate(SynthSpec((40, 40), density=0.1, clustering=1.0, seed=5))
        positions = logical_position_sequence(rel)
        first = positions[0]
        assert positions == list(range(first, first + len(positions)))

    def test_clustering_reduces_runs(self):
        def runs(clustering):
            spec = SynthSpec((60, 60), density=0.3, clustering=clustering, seed=11)
            rel = generate(spec)
            positions = logical_position_sequence(rel)
            return build_schc(positions, rel.schema.total_cells).num_runs

        assert runs(0.9) < runs(0.4) < runs(0.0)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SynthSpec((4,), density=0.0)
        with pytest.raises(ValueError):
            SynthSpec((4,), density=0.5, clustering=1.5)


NEAR_2_64 = (1 << 16, 1 << 16, 1 << 16, (1 << 16) - 1)


# sha256 of repr(list(rel.cells.items())), recorded from the generator that
# built every cell dict one decode_logical_position call at a time.  A seeded
# relation must not change: benchmark inputs and stored files follow from it.
@pytest.mark.parametrize("spec, n_cells, digest", [
    (SynthSpec((6, 7, 8), 0.3, seed=1), 101,
     "7304fdecd5964ccd1bee3d1709a866691a5c69ef1c27fb63aabe2760fdbac6fb"),
    (SynthSpec((60, 60), 0.3, clustering=0.5, seed=11), 1080,
     "96006f882d7d98e8115de55b5ea1d2070713d81d15c956b5578e2b208f925226"),
    (SynthSpec((8, 9, 4), 0.2, clustering=1.0, seed=77), 58,
     "08270b7bd8a28f9a387bcfed8a98129d6e52a0fec83705b412c5bd5e73a3a3f4"),
    (SynthSpec((4, 5), 1.0, seed=2), 20,
     "dba3276481d79d16886e935ecd1e00c772e72c0515bbb46d111d14e6e590c270"),
    (SynthSpec((1 << 16, 1 << 16, 1 << 16, (1 << 15) - 1), 2e-18, seed=5), 18,
     "12e4a4b684644761d729894839ca462a29ef1181c7c1af62083cbb55fed5c940"),
    (SynthSpec(NEAR_2_64, 1e-18, clustering=0.5, seed=6), 18,
     "399cf9e79075b633b22e5c3b67ed75beebfc740bd7cb33a70d3d90e5d3f5094d"),
    (SynthSpec((16, 16, 8), 0.2, seed=4, measure_width=4), 410,
     "cf7d9a0b8e87b8216faf692b27ce076d6649251be8eeed9ea46ed352812f3a0d"),
    (SynthSpec((128, 128, 64), 0.2, seed=7), 209715,
     "5b21bab213be6ae2af1d3c4c7a058fb714dfecd930f17ad1f54863a9ee1d8df8"),
], ids=["uniform", "clustered", "one-run", "full", "near-2^63", "near-2^64-clustered",
        "four-octet", "dense-uniform"])
def test_seeded_relations_are_pinned(spec, n_cells, digest):
    rel = generate(spec)
    assert rel.n_cells == n_cells
    assert rel.measure_width == spec.measure_width
    assert hashlib.sha256(repr(list(rel.cells.items())).encode()).hexdigest() == digest


def test_uniform_draw_past_2_63():
    # rng.sample cannot take a range of 2^63 or more; such schemas still draw.
    spec = SynthSpec(NEAR_2_64, 1e-18, seed=5)
    rel = generate(spec)
    positions = logical_position_sequence(rel)
    assert rel.n_cells == len(set(positions)) == round(1e-18 * rel.schema.total_cells)
    assert positions == sorted(positions)
    assert all(0 <= p < rel.schema.total_cells for p in positions)
    assert all(0 <= c < card for coords in rel.cells for c, card in zip(coords, NEAR_2_64))
    assert positions == logical_position_sequence(generate(spec))
    assert rel.cells == generate(spec).cells
