import numpy as np
import pytest

from factorfill import PanelMatrix, build_locators, destandardize, standardize
from factorfill.errors import (
    DataValidationError,
    DimensionMismatch,
    TooFewObservations,
    ZeroVarianceSeries,
)


def _hand_panel():
    # 4x3 with series 2 missing its last two rows and series 1 one cell
    values = np.array([
        [1.0, 2.0, 3.0],
        [4.0, np.nan, 6.0],
        [7.0, 8.0, np.nan],
        [10.0, 11.0, np.nan],
    ])
    return PanelMatrix.from_values(values)


class TestPanelMatrix:
    def test_from_values_mask(self):
        p = _hand_panel()
        assert p.T == 4 and p.N == 3
        assert p.n_missing == 3
        expected = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 0]],
                            dtype=bool)
        assert np.array_equal(p.mask, expected)

    def test_values_nan_exactly_at_missing(self):
        p = _hand_panel()
        assert np.isnan(p.values[1, 1]) and np.isnan(p.values[2, 2])
        assert not np.isnan(p.values[p.mask]).any()

    def test_complete_classmethod(self):
        X = np.arange(12.0).reshape(4, 3)
        p = PanelMatrix.complete(X)
        assert p.is_complete and p.n_missing == 0
        assert np.array_equal(p.values, X)

    def test_immutable(self):
        p = _hand_panel()
        with pytest.raises(ValueError):
            p.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            p.mask[0, 0] = False

    def test_filled(self):
        p = _hand_panel()
        f = p.filled(-1.0)
        assert f[1, 1] == -1.0 and f[0, 0] == 1.0
        assert not np.isnan(f).any()

    def test_rejects_nonfinite_observed(self):
        values = np.ones((3, 2))
        values[0, 0] = np.inf
        with pytest.raises(DataValidationError):
            PanelMatrix(values, np.ones((3, 2), dtype=bool))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PanelMatrix(np.ones((3, 2)), np.ones((2, 3), dtype=bool))

    def test_rejects_empty_series(self):
        values = np.ones((3, 2))
        values[:, 1] = np.nan
        with pytest.raises(TooFewObservations):
            PanelMatrix.from_values(values)

    def test_rejects_1d(self):
        with pytest.raises(DimensionMismatch):
            PanelMatrix(np.ones(3), np.ones(3, dtype=bool))


class TestLocators:
    def test_hand_case(self):
        p = _hand_panel()
        loc = build_locators(p)
        assert np.array_equal(loc.T_oi, [4, 3, 2])
        assert np.array_equal(loc.N_ot, [3, 2, 2, 2])
        assert np.array_equal(loc.tall_series, [0])
        assert loc.N_o == 1
        # rows where every series is observed
        assert np.array_equal(loc.complete_rows, [0])
        assert loc.T_o == 1
        assert np.array_equal(loc.per_series[2], [0, 1])
        assert np.array_equal(loc.per_time[1], [0, 2])

    def test_complete_panel(self):
        p = PanelMatrix.complete(np.arange(20.0).reshape(5, 4))
        loc = build_locators(p)
        assert loc.N_o == 4 and loc.T_o == 5
        assert np.array_equal(loc.T_oi, [5] * 4)


class TestStandardize:
    def test_observed_only_moments(self):
        p = _hand_panel()
        std, rec = standardize(p)
        for i in range(3):
            obs = p.values[p.mask[:, i], i]
            assert rec.means[i] == pytest.approx(obs.mean())
            assert rec.stds[i] == pytest.approx(obs.std(ddof=1))
            got = std.values[std.mask[:, i], i]
            assert got == pytest.approx((obs - obs.mean()) / obs.std(ddof=1))

    def test_raw_identity(self):
        p = _hand_panel()
        std, rec = standardize(p, mode="raw")
        assert np.array_equal(std.values[std.mask], p.values[p.mask])
        assert np.all(rec.means == 0.0) and np.all(rec.stds == 1.0)

    def test_demean_keeps_scale(self):
        p = _hand_panel()
        std, rec = standardize(p, mode="demean")
        assert np.all(rec.stds == 1.0)
        obs = p.values[p.mask[:, 0], 0]
        assert std.values[0, 0] == pytest.approx(p.values[0, 0] - obs.mean())

    def test_round_trip(self):
        p = _hand_panel()
        std, rec = standardize(p)
        back = destandardize(std, rec)
        assert np.allclose(back.values[back.mask], p.values[p.mask],
                           rtol=0, atol=1e-12)

    def test_zero_variance_rejected(self):
        values = np.ones((4, 2))
        values[:, 1] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ZeroVarianceSeries):
            standardize(PanelMatrix.complete(values))

    def test_single_obs_rejected_for_standardize(self):
        values = np.random.default_rng(0).standard_normal((4, 2))
        values[1:, 1] = np.nan
        p = PanelMatrix.from_values(values)
        with pytest.raises(TooFewObservations):
            standardize(p)
        std, _ = standardize(p, mode="raw")  # raw has no moment requirement
        assert std.n_missing == p.n_missing

    def test_invert_values_matches_scale_shift(self):
        p = _hand_panel()
        _, rec = standardize(p)
        M = np.ones((4, 3))
        back = rec.invert_values(M)
        for i in range(3):
            assert back[0, i] == pytest.approx(rec.scale_for(i) + rec.shift_for(i))
