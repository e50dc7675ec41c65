import pytest
from hypothesis import given, strategies as st

from sparsecube.cachemodel import (
    CacheModelParams,
    RepConstants,
    expected_time,
    load_params,
    md_faster_iff,
    md_line,
    md_pm_sufficient_threshold,
    md_sufficient_threshold,
    save_params,
    t_m,
    t_t,
    table_sufficient_threshold,
)

# Constants measured on the two benchmark databases (ms).
TPCD = CacheModelParams(
    md=RepConstants(M=0.031, D=6.169),
    tbl=RepConstants(M=0.021, D=16.724),
    preload_bytes=1_000_000,
    cell_bytes=10_000_000,
    table_bytes=50_000_000,
)
APB = CacheModelParams(
    md=RepConstants(M=0.012, D=6.778),
    tbl=RepConstants(M=0.128, D=19.841),
    preload_bytes=1_000_000,
    cell_bytes=10_000_000,
    table_bytes=50_000_000,
)

TOL = 1e-3


class TestExpectedTime:
    def test_extremes(self):
        c = TPCD.tbl
        assert expected_time(1.0, c) == c.M
        assert expected_time(0.0, c) == c.D

    def test_halfway_value(self):
        # 0.5*0.021 + 0.5*16.724 = 8.3725
        assert expected_time(0.5, TPCD.tbl) == pytest.approx(8.3725, abs=1e-12)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            expected_time(1.5, TPCD.md)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_non_increasing(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert expected_time(hi, TPCD.md) <= expected_time(lo, TPCD.md)


class TestThresholds:
    def test_md_sufficient(self):
        assert md_sufficient_threshold(TPCD) == pytest.approx(0.632, abs=TOL)
        assert md_sufficient_threshold(APB) == pytest.approx(0.663, abs=TOL)

    def test_md_sufficient_vanishes_when_disk_paths_match(self):
        p = CacheModelParams(
            md=RepConstants(M=0.1, D=5.0),
            tbl=RepConstants(M=0.2, D=5.0),
            preload_bytes=1, cell_bytes=1, table_bytes=1,
        )
        assert md_sufficient_threshold(p) == 0.0

    def test_table_sufficient(self):
        assert table_sufficient_threshold(TPCD) == pytest.approx(0.999, abs=TOL)
        assert table_sufficient_threshold(APB) is None  # M_m < M_t case

    def test_table_sufficient_boundary(self):
        p = CacheModelParams(
            md=RepConstants(M=0.021, D=6.0),
            tbl=RepConstants(M=0.021 - 1e-12, D=16.724),
            preload_bytes=1, cell_bytes=1, table_bytes=1,
        )
        assert table_sufficient_threshold(p) == pytest.approx(1.0, abs=1e-9)

    def test_md_pm_sufficient(self):
        assert md_pm_sufficient_threshold(APB) == pytest.approx(0.983, abs=TOL)
        assert md_pm_sufficient_threshold(TPCD) is None  # M_t < M_m case

    def test_md_pm_sufficient_boundary(self):
        p = CacheModelParams(
            md=RepConstants(M=0.1, D=6.0),
            tbl=RepConstants(M=0.1 + 1e-12, D=16.0),
            preload_bytes=1, cell_bytes=1, table_bytes=1,
        )
        assert md_pm_sufficient_threshold(p) == pytest.approx(1.0, abs=1e-9)

    def test_below_md_threshold_wins_for_every_pm(self):
        for params in (TPCD, APB):
            cut = md_sufficient_threshold(params)
            for i in range(101):
                p_m = i / 100
                for p_t in (0.0, cut / 2, cut * 0.99):
                    assert md_faster_iff(p_m, p_t, params)


class TestBoundaryLine:
    def test_line_coefficients(self):
        slope, intercept = md_line(TPCD)
        assert slope == pytest.approx(0.368, abs=TOL)
        assert intercept == pytest.approx(0.632, abs=TOL)
        slope, intercept = md_line(APB)
        assert slope == pytest.approx(0.343, abs=TOL)
        assert intercept == pytest.approx(0.663, abs=TOL)

    def test_origin_case(self):
        # p_m = p_t = 0 compares the pure disk paths.
        assert md_faster_iff(0.0, 0.0, TPCD) == (TPCD.md.D < TPCD.tbl.D)

    @pytest.mark.parametrize("params", [TPCD, APB], ids=["tpcd", "apb"])
    def test_grid_equivalence_exact(self, params):
        for i in range(101):
            p_m = i / 100
            e_m = expected_time(p_m, params.md)
            for j in range(101):
                p_t = j / 100
                direct = e_m < expected_time(p_t, params.tbl)
                assert md_faster_iff(p_m, p_t, params) == direct

    def test_boundary_is_strict(self):
        p = CacheModelParams(
            md=RepConstants(M=1.0, D=2.0),
            tbl=RepConstants(M=1.0, D=2.0),
            preload_bytes=1, cell_bytes=1, table_bytes=1,
        )
        # slope 1, intercept 0: equal fractions sit exactly on the line.
        assert md_faster_iff(0.5, 0.5, p) is False
        assert expected_time(0.5, p.md) == expected_time(0.5, p.tbl)


class TestMemoryCurves:
    def test_t_m_extremes(self):
        h, c = TPCD.preload_bytes, TPCD.cell_bytes
        assert t_m(h, TPCD) == TPCD.md.D
        assert t_m(h + c, TPCD) == TPCD.md.M
        assert t_m(h + 10 * c, TPCD) == TPCD.md.M

    def test_t_m_halfway(self):
        # (0.031 + 6.169) / 2 = 3.1
        h, c = TPCD.preload_bytes, TPCD.cell_bytes
        assert t_m(h + c / 2, TPCD) == pytest.approx(3.1, abs=1e-12)

    def test_t_m_domain_error(self):
        with pytest.raises(ValueError):
            t_m(TPCD.preload_bytes - 1, TPCD)

    def test_t_t_extremes(self):
        assert t_t(0, APB) == APB.tbl.D
        assert t_t(APB.table_bytes, APB) == APB.tbl.M

    def test_t_t_halfway(self):
        # (0.128 + 19.841) / 2 = 9.9845
        assert t_t(APB.table_bytes / 2, APB) == pytest.approx(9.9845, abs=1e-12)

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_curves_monotone(self, a, b):
        lo, hi = sorted((a, b))
        h, c, s = TPCD.preload_bytes, TPCD.cell_bytes, TPCD.table_bytes
        assert t_m(h + hi * c // 100, TPCD) <= t_m(h + lo * c // 100, TPCD)
        assert t_t(hi * s // 100, TPCD) <= t_t(lo * s // 100, TPCD)


class TestValidation:
    def test_rep_constants_require_m_below_d(self):
        with pytest.raises(ValueError):
            RepConstants(M=2.0, D=1.0)
        with pytest.raises(ValueError):
            RepConstants(M=0.0, D=1.0)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            CacheModelParams(
                md=RepConstants(1, 2), tbl=RepConstants(1, 2),
                preload_bytes=0, cell_bytes=1, table_bytes=1,
            )


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "constants.json"
        save_params(TPCD, p)
        again = load_params(p)
        assert again == TPCD
