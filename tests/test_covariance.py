import numpy as np
import pytest

from factorfill import (
    CovEstimate,
    OverlayConfig,
    PanelMatrix,
    completed_sample_cov,
    impute_panel,
    min_eigenvalue,
    overlay_cov,
    overlay_draw_covs,
    pairwise_cov,
    rescale_cov,
    sample_cov,
    sf_cov,
    sfa_cov,
)
from factorfill import covariance
from factorfill.covariance import (
    _demeaned_gram,
    _draw_fills,
    _draw_rng,
    _missing_cells,
    _PairwiseMean,
    _scheme_state,
)
from factorfill.errors import (
    DataValidationError,
    InsufficientOverlap,
    SchemeUnavailable,
    SeriesTooShort,
)
from factorfill.panel import StandardizationRecord
from tests.conftest import corner_missing, make_panel


def _panel(seed=17):
    return make_panel(T=36, N=14, r=2, sigma=0.4, seed=seed,
                      missing=corner_missing(36, 14, 9, 5))


def _indefinite_panel():
    # frozen fixture: pairwise-complete moments on this mask are indefinite
    rng = np.random.default_rng(27)
    T, N = 9, 8
    X = rng.standard_normal((T, N))
    mask = rng.random((T, N)) > 0.5
    mask[:, 0] = True
    return PanelMatrix(np.where(mask, X, np.nan), mask)


class TestSampleCov:
    def test_matches_numpy_biased_cov(self, rng):
        X = rng.standard_normal((40, 6))
        got = sample_cov(X)
        ref = np.cov(X, rowvar=False, bias=True)
        assert np.allclose(got.matrix, ref, atol=1e-12)
        assert got.method == "SM0"

    def test_needs_two_rows(self):
        with pytest.raises(DataValidationError):
            sample_cov(np.ones((1, 3)))

    def test_completed_labels(self):
        panel = _panel()
        first = impute_panel(panel, 2, method="TP", transform="raw")
        plus = impute_panel(panel, 2, method="TP_PLUS", transform="raw")
        assert completed_sample_cov(first).method == "SM0"
        assert completed_sample_cov(plus).method == "SM_PLUS0"

    def test_estimate_invariants(self, rng):
        X = rng.standard_normal((20, 4))
        est = sample_cov(X)
        assert est.N == 4
        with pytest.raises(ValueError):
            est.matrix[0, 0] = 1.0
        with pytest.raises(DataValidationError):
            CovEstimate(np.ones((3, 2)), "SM0")


class TestPairwise:
    def test_complete_collapses_to_sample_cov(self, rng):
        X = rng.standard_normal((25, 5))
        got = pairwise_cov(PanelMatrix.complete(X))
        assert np.array_equal(got.matrix, sample_cov(X).matrix)

    def test_pair_overlap_oracle(self):
        panel = _indefinite_panel()
        got = pairwise_cov(panel).matrix
        X, mask = panel.values, panel.mask
        for i in range(panel.N):
            for j in range(panel.N):
                both = mask[:, i] & mask[:, j]
                xi, xj = X[both, i], X[both, j]
                ref = np.mean(xi * xj) - xi.mean() * xj.mean()
                assert got[i, j] == pytest.approx(ref, abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        T, N = 30, 8
        X = rng.standard_normal((T, N))
        mask = rng.random((T, N)) > 0.3
        mask[:, 0] = True
        panel = PanelMatrix(np.where(mask, X, np.nan), mask)
        got = pairwise_cov(panel).matrix
        for i in range(N):
            for j in range(N):
                both = mask[:, i] & mask[:, j]
                xi, xj = X[both, i], X[both, j]
                ref = np.mean(xi * xj) - xi.mean() * xj.mean()
                assert got[i, j] == pytest.approx(ref, abs=1e-12)

    def test_symmetric(self):
        got = pairwise_cov(_indefinite_panel()).matrix
        assert np.array_equal(got, got.T)

    def test_known_indefinite_fixture(self):
        est = pairwise_cov(_indefinite_panel())
        assert min_eigenvalue(est) < -0.1

    def test_insufficient_overlap(self):
        values = np.random.default_rng(0).standard_normal((6, 3))
        mask = np.ones((6, 3), dtype=bool)
        mask[:3, 1] = False
        mask[3:, 2] = False  # series 1 and 2 never overlap
        panel = PanelMatrix(np.where(mask, values, np.nan), mask)
        with pytest.raises(InsufficientOverlap, match="share 0 ") as exc:
            pairwise_cov(panel)
        assert exc.value.pair == (1, 2)

    def test_zero_overlap_raises(self):
        mask = np.array([[True, False]] * 2 + [[False, True]] * 2)
        panel = PanelMatrix(np.where(mask, 1.0, np.nan), mask)
        with pytest.raises(InsufficientOverlap, match="share 0 ") as exc:
            pairwise_cov(panel)
        assert exc.value.pair == (0, 1)


class TestStrictFactor:
    def test_sf_formula_oracle(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        got = sf_cov(res)
        F, Lam, e = res.fit.F, res.fit.Lambda, res.e
        T = panel.T
        ref = Lam @ (F.T @ F / T) @ Lam.T + np.diag((e * e).sum(axis=0) / T)
        assert np.allclose(got.matrix, ref, atol=1e-12)
        assert got.method == "SF"

    def test_sfa_uses_observed_count_denominator(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP_PLUS", transform="raw")
        got = sfa_cov(res)
        T_oi = res.locators.T_oi
        e = res.e
        ref_diag_adjust = (e * e).sum(axis=0) / T_oi
        off = got.matrix - sf_cov(res).matrix
        assert np.allclose(np.diag(off),
                           ref_diag_adjust - (e * e).sum(axis=0) / panel.T,
                           atol=1e-12)
        assert np.allclose(off - np.diag(np.diag(off)), 0.0, atol=1e-15)
        assert got.method == "SFA_PLUS"

    def test_sfa_equals_sf_exactly_when_complete(self):
        panel = PanelMatrix.complete(
            np.random.default_rng(4).standard_normal((30, 8)))
        res = impute_panel(panel, 2, method="TP", transform="raw")
        assert np.array_equal(sfa_cov(res).matrix, sf_cov(res).matrix)

    def test_sfa_series_too_short(self):
        values = np.random.default_rng(9).standard_normal((8, 4))
        values[1:, 3] = np.nan  # one observation for series 3
        panel = PanelMatrix.from_values(values)
        res = impute_panel(panel, 1, method="TP", transform="raw")
        with pytest.raises(SeriesTooShort):
            sfa_cov(res)


class TestOverlaySchemes:
    def test_fill_order_is_series_then_time(self):
        mask = np.ones((4, 3), dtype=bool)
        mask[2, 2] = mask[1, 0] = mask[3, 0] = False
        rows, cols = _missing_cells(mask)
        assert cols.tolist() == [0, 0, 2]
        assert rows.tolist() == [1, 3, 2]

    def test_sm1_sm2_draw_from_pools(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        rows, cols = _missing_cells(res.mask)
        rng = _draw_rng(5, 0)
        st1 = _scheme_state(res, "SM1", cols)
        d1 = _draw_fills(rng, "SM1", st1, cols, rows.size)
        pool = set(res.e[res.mask].tolist())
        assert all(v in pool for v in d1)
        st2 = _scheme_state(res, "SM2", cols)
        d2 = _draw_fills(_draw_rng(5, 1), "SM2", st2, cols, rows.size)
        for v, i in zip(d2, cols):
            assert v in set(res.e[res.mask[:, i], i].tolist())

    def test_sm3_sm4_variance_scaling(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        rows, cols = _missing_cells(res.mask)
        reps = 4000 // rows.size + 1
        st3 = _scheme_state(res, "SM3", cols)
        st4 = _scheme_state(res, "SM4", cols)
        d3 = np.concatenate([_draw_fills(_draw_rng(1, s), "SM3", st3, cols,
                                         rows.size) for s in range(reps)])
        assert np.std(d3) == pytest.approx(st3["sigma"], rel=0.1)
        d4 = np.stack([_draw_fills(_draw_rng(2, s), "SM4", st4, cols,
                                   rows.size) for s in range(reps)])
        i0 = int(cols[0])
        seg = d4[:, cols == i0].ravel()
        assert np.std(seg) == pytest.approx(st4["sigmas"][i0], rel=0.15)

    def test_scheme_validation(self):
        with pytest.raises(SchemeUnavailable):
            OverlayConfig("SM5")
        with pytest.raises(DataValidationError):
            OverlayConfig("SM1", S=0)


class TestOverlayFill:
    def test_scatter(self, monkeypatch):
        # Each draw's matrix is C + e with the drawn residuals written at
        # the missing cells and every observed cell left untouched.
        res = impute_panel(_panel(), 2, method="TP", transform="raw")
        seen = []

        def spy(X):
            seen.append(X.copy())
            return _demeaned_gram(X)

        monkeypatch.setattr(covariance, "_demeaned_gram", spy)
        cfg = OverlayConfig("SM2", S=3, seed=4)
        list(overlay_draw_covs(res, cfg))
        rows, cols = _missing_cells(res.mask)
        state = _scheme_state(res, "SM2", cols)
        base = res.C + res.e
        assert len(seen) == cfg.S
        for s, X in enumerate(seen):
            draws = _draw_fills(_draw_rng(cfg.seed, s), "SM2", state, cols,
                                rows.size)
            assert np.array_equal(X[rows, cols], res.C[rows, cols] + draws)
            assert np.array_equal(X[res.mask], base[res.mask])
        assert not res.e[~res.mask].any()  # the result is never mutated

    def test_empty_fill(self):
        panel = PanelMatrix.complete(
            np.random.default_rng(3).standard_normal((12, 5)))
        res = impute_panel(panel, 2, method="TP", transform="raw")
        want = _demeaned_gram(res.C + res.e)
        for M in overlay_draw_covs(res, OverlayConfig("SM1", S=2, seed=0)):
            assert np.array_equal(M, want)


class TestOverlayCov:
    def test_bit_reproducible(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        cfg = OverlayConfig("SM2", S=12, seed=77)
        a = overlay_cov(res, cfg)
        b = overlay_cov(res, cfg)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.method == "SM2" and a.S == 12 and a.seed == 77

    def test_seed_matters(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        a = overlay_cov(res, OverlayConfig("SM2", S=6, seed=1))
        b = overlay_cov(res, OverlayConfig("SM2", S=6, seed=2))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_average_of_draws(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TW", transform="raw")
        cfg = OverlayConfig("SM3", S=9, seed=3)
        draws = list(overlay_draw_covs(res, cfg))
        assert len(draws) == 9
        avg = overlay_cov(res, cfg)
        assert np.allclose(avg.matrix, np.mean(draws, axis=0), atol=1e-12)

    @pytest.mark.parametrize("scheme", ["SM1", "SM2", "SM3", "SM4"])
    def test_complete_panel_equals_sm0_bitwise(self, scheme):
        panel = PanelMatrix.complete(
            np.random.default_rng(11).standard_normal((25, 7)))
        res = impute_panel(panel, 2, method="TP", transform="raw")
        sm0 = completed_sample_cov(res)
        smj = overlay_cov(res, OverlayConfig(scheme, S=4, seed=0))
        assert np.array_equal(smj.matrix, sm0.matrix)
        assert smj.method == f"SM{scheme[-1]}"

    def test_plus_labels(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TW_PLUS", transform="raw")
        est = overlay_cov(res, OverlayConfig("SM4", S=3, seed=5))
        assert est.method == "SM_PLUS4"

    def test_em_rejected(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="EM", transform="raw")
        with pytest.raises(DataValidationError):
            overlay_cov(res, OverlayConfig("SM2", S=2, seed=0))

    def test_pairwise_mean_matches_plain_mean(self, rng):
        acc = _PairwiseMean()
        mats = [rng.standard_normal((4, 4)) for _ in range(11)]
        for M in mats:
            acc.add(M)
        assert np.allclose(acc.mean(), np.mean(mats, axis=0), rtol=1e-12)


class TestEigAndRescale:
    def test_min_eigenvalue_constructed_spectrum(self):
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        M = Q @ np.diag([3.0, 1.0, -2.0]) @ Q.T
        est = CovEstimate(M, "SM0")
        assert min_eigenvalue(est) == pytest.approx(-2.0, abs=1e-10)

    def test_rescale_outer_product_of_stds(self, rng):
        M = np.eye(3) + 0.1
        est = CovEstimate(M, "SFA")
        rec = StandardizationRecord("standardize", np.zeros(3),
                                    np.array([1.0, 2.0, 4.0]))
        out = rescale_cov(est, rec)
        d = rec.stds
        assert np.allclose(out.matrix, M * np.outer(d, d), atol=1e-15)
        assert out.method == "SFA"
