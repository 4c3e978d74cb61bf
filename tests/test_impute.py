import warnings

import numpy as np
import pytest

from factorfill import (
    PanelMatrix,
    apc,
    common_component,
    completed_in_original_units,
    em_impute,
    impute_panel,
    reestimate,
    tp_impute,
    tw_impute,
)
from factorfill.errors import (
    DataValidationError,
    NoTallBlock,
    NotConverged,
    NoWideBlock,
    RotationSingular,
    SeriesUnderdetermined,
)
from factorfill.impute import masked_loadings
from tests.conftest import corner_missing, make_panel


def _noiseless(T=30, N=12, r=2, seed=1, missing=None):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, r))
    Lam = rng.standard_normal((N, r))
    X = F @ Lam.T
    mask = np.ones((T, N), dtype=bool)
    for t, i in missing or []:
        mask[t, i] = False
    return PanelMatrix(np.where(mask, X, np.nan), mask), X


def _masked_case(seed=0, T=25, N=10, r=3, frac=0.3):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, r))
    X = rng.standard_normal((T, N))
    mask = rng.random((T, N)) > frac
    mask[:, 0] = True          # keep one tall series
    mask[0] = True             # keep every series observed at least once
    return F, X, mask


class TestMaskedLoadings:
    def test_matches_per_series_ols(self):
        F, X, mask = _masked_case()
        L, bad = masked_loadings(F, np.where(mask, X, 0.0), mask)
        assert not bad.any()
        for i in range(X.shape[1]):
            rows = mask[:, i]
            ref, *_ = np.linalg.lstsq(F[rows], X[rows, i], rcond=None)
            assert np.allclose(L[i], ref, atol=1e-10)

    def test_flags_underdetermined_series(self):
        F, X, mask = _masked_case()
        mask[:, 3] = False
        mask[0, 3] = True      # one observation, r = 3 regressors
        L, bad = masked_loadings(F, np.where(mask, X, 0.0), mask)
        assert bad[3] and not bad[0]
        assert np.all(L[3] == 0.0)

    def test_flags_collinear_rows(self):
        rng = np.random.default_rng(5)
        T, r = 12, 2
        F = np.ones((T, r))    # identical columns: G is singular
        X = rng.standard_normal((T, 4))
        mask = np.ones((T, 4), dtype=bool)
        L, bad = masked_loadings(F, np.where(mask, X, 0.0), mask)
        assert bad.all()


class TestTallProjection:
    def test_loadings_match_per_series_ols(self, small_panel):
        res = tp_impute(small_panel, 2)
        F = res.fit.F
        for i in range(small_panel.N):
            rows = small_panel.mask[:, i]
            ref, *_ = np.linalg.lstsq(F[rows], small_panel.values[rows, i],
                                      rcond=None)
            assert np.allclose(res.fit.Lambda[i], ref, atol=1e-10)

    def test_factors_come_from_tall_block(self, small_panel):
        res = tp_impute(small_panel, 2)
        tall = res.locators.tall_series
        ref = apc(small_panel.values[:, tall], 2)
        assert np.array_equal(res.fit.F, ref.F)

    def test_observed_cells_kept_exactly(self, small_panel):
        res = tp_impute(small_panel, 2)
        m = small_panel.mask
        assert np.array_equal(res.X_completed[m], small_panel.values[m])

    def test_residual_zero_at_missing(self, small_panel):
        res = tp_impute(small_panel, 2)
        assert np.all(res.e[~small_panel.mask] == 0.0)
        m = small_panel.mask
        assert np.allclose(res.e[m],
                           (small_panel.values - res.C)[m], atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_noiseless_exact_recovery(self, r):
        panel, X = _noiseless(T=40, N=20, r=r, seed=r,
                              missing=corner_missing(40, 20, 8, 6))
        res = tp_impute(panel, r)
        assert np.max(np.abs(res.C - X)) < 1e-8

    def test_no_tall_block(self):
        values = np.random.default_rng(0).standard_normal((8, 4))
        mask = np.ones((8, 4), dtype=bool)
        for i in range(4):
            mask[i, i] = False  # every series has a hole
        panel = PanelMatrix(np.where(mask, values, np.nan), mask)
        with pytest.raises(NoTallBlock):
            tp_impute(panel, 2)

    def test_underdetermined_series(self):
        values = np.random.default_rng(1).standard_normal((8, 4))
        mask = np.ones((8, 4), dtype=bool)
        mask[1:, 3] = False
        panel = PanelMatrix(np.where(mask, values, np.nan), mask)
        with pytest.raises(SeriesUnderdetermined):
            tp_impute(panel, 2)


class TestTallWide:
    def test_equals_tall_only_when_noiseless(self):
        missing = corner_missing(30, 12, 6, 3)
        panel, X = _noiseless(missing=missing)
        r1 = tp_impute(panel, 2)
        r2 = tw_impute(panel, 2)
        assert np.allclose(r1.C, r2.C, atol=1e-8)
        assert np.max(np.abs(r2.C - X)) < 1e-8

    def test_loadings_lie_in_wide_span(self, small_panel):
        res = tw_impute(small_panel, 2)
        loc = res.locators
        wide = apc(small_panel.values[loc.complete_rows, :], 2)
        # every imputed loading is a linear map of the wide-block loadings
        coef, *_ = np.linalg.lstsq(wide.Lambda, res.fit.Lambda, rcond=None)
        assert np.allclose(wide.Lambda @ coef, res.fit.Lambda, atol=1e-8)

    def test_rotation_fits_tall_loadings(self, small_panel):
        res = tw_impute(small_panel, 2)
        ref = tp_impute(small_panel, 2)
        loc = res.locators
        # on tall series the rotated loadings are the least squares fit of
        # the tall-block loadings, so residuals are orthogonal to the design
        wide = apc(small_panel.values[loc.complete_rows, :], 2)
        sub = wide.Lambda[loc.tall_series]
        resid = ref.fit.Lambda[loc.tall_series] - res.fit.Lambda[loc.tall_series]
        assert np.allclose(sub.T @ resid, 0.0, atol=1e-8)

    def test_no_wide_block(self):
        values = np.random.default_rng(3).standard_normal((8, 4))
        mask = np.ones((8, 4), dtype=bool)
        mask[np.arange(8), np.repeat([2, 3], 4)] = False  # no complete row
        panel = PanelMatrix(np.where(mask, values, np.nan), mask)
        with pytest.raises(NoWideBlock):
            tw_impute(panel, 2)

    def test_rotation_singular_on_deficient_rank(self):
        panel, _ = _noiseless(T=30, N=12, r=1, seed=5,
                              missing=corner_missing(30, 12, 5, 3))
        with pytest.raises(RotationSingular):
            tw_impute(panel, 2)


class TestReestimate:
    def test_is_one_apc_pass_on_completed(self, small_panel):
        first = tp_impute(small_panel, 2)
        res = reestimate(small_panel, first)
        ref = apc(first.X_completed, 2)
        assert np.allclose(res.C, common_component(ref), atol=1e-12)
        assert res.method == "TP_PLUS"

    def test_tw_label(self, small_panel):
        res = reestimate(small_panel, tw_impute(small_panel, 2))
        assert res.method == "TW_PLUS"

    def test_rejects_non_first_pass(self, small_panel):
        first = tp_impute(small_panel, 2)
        plus = reestimate(small_panel, first)
        with pytest.raises(DataValidationError):
            reestimate(small_panel, plus)

    def test_noiseless_exact(self):
        panel, X = _noiseless(missing=corner_missing(30, 12, 6, 3))
        res = reestimate(panel, tp_impute(panel, 2))
        assert np.max(np.abs(res.C - X)) < 1e-8


class TestEm:
    def test_complete_panel_converges_first_sweep(self):
        panel = make_panel(T=25, N=10, seed=8)
        res = em_impute(panel, 2)
        assert res.iterations == 1 and res.converged
        assert np.allclose(res.C, common_component(apc(panel.values, 2)),
                           atol=1e-12)

    def test_noiseless_exact(self):
        panel, X = _noiseless(missing=corner_missing(30, 12, 6, 3))
        res = em_impute(panel, 2)
        assert res.converged
        assert np.max(np.abs(res.C - X)) < 1e-8

    def test_not_converged_warning(self, small_panel):
        with pytest.warns(NotConverged):
            res = em_impute(small_panel, 2, tol=1e-14, max_iter=2)
        assert not res.converged and res.iterations == 2

    def test_fixed_point_refills_missing(self, small_panel):
        res = em_impute(small_panel, 2)
        m = small_panel.mask
        assert np.array_equal(res.X_completed[m], small_panel.values[m])
        assert np.array_equal(res.X_completed[~m], res.C[~m])

    def test_rejects_bad_controls(self, small_panel):
        with pytest.raises(DataValidationError):
            em_impute(small_panel, 2, tol=0.0)
        with pytest.raises(DataValidationError):
            em_impute(small_panel, 2, max_iter=0)


class TestImputePanel:
    def test_attaches_transform_record(self, small_panel):
        res = impute_panel(small_panel, 2, method="TP", transform="standardize")
        assert res.transform.mode == "standardize"
        raw = impute_panel(small_panel, 2, method="TP", transform="raw")
        assert raw.transform.mode == "raw"

    def test_dispatch_labels(self, small_panel):
        for method in ("TP", "TW", "TP_PLUS", "TW_PLUS", "EM"):
            res = impute_panel(small_panel, 2, method=method, transform="raw")
            assert res.method == method

    def test_unknown_method(self, small_panel):
        with pytest.raises(DataValidationError):
            impute_panel(small_panel, 2, method="PCA")

    def test_standardized_fit_happens_in_transformed_units(self, small_panel):
        res = impute_panel(small_panel, 2, method="TP", transform="standardize")
        rec = res.transform
        work = PanelMatrix((small_panel.values - rec.means) / rec.stds,
                           small_panel.mask)
        ref = tp_impute(work, 2)
        assert np.allclose(res.C, ref.C, atol=1e-12)

    def test_completed_in_original_units_round_trip(self, small_panel):
        res = impute_panel(small_panel, 2, method="TP_PLUS",
                           transform="standardize")
        out = completed_in_original_units(res, small_panel)
        m = small_panel.mask
        assert np.array_equal(out[m], small_panel.values[m])
        rec = res.transform
        expect = res.C[~m] * rec.stds[np.nonzero(~m)[1]] \
            + rec.means[np.nonzero(~m)[1]]
        assert np.allclose(out[~m], expect, atol=1e-12)

    def test_completed_rejects_foreign_panel(self, small_panel):
        res = impute_panel(small_panel, 2, method="TP", transform="raw")
        other = make_panel(T=40, N=15, seed=99,
                           missing=corner_missing(40, 15, 3, 2))
        with pytest.raises(DataValidationError):
            completed_in_original_units(res, other)

    def test_result_arrays_immutable(self, small_panel):
        res = impute_panel(small_panel, 2, method="TP", transform="raw")
        with pytest.raises(ValueError):
            res.C[0, 0] = 1.0
        with pytest.raises(ValueError):
            res.X_completed[0, 0] = 1.0


class TestEmVersusWarnings:
    def test_no_warning_when_converged(self, small_panel):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NotConverged)
            em_impute(small_panel, 2)
