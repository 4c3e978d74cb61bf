import numpy as np
import pytest

from factorfill import (
    cc_interval_first_pass,
    cc_interval_reestimated,
    impute_panel,
    prediction_interval,
    prediction_se_matrix,
    reestimate,
    tp_impute,
)
from factorfill.errors import CellObserved, DataValidationError
from factorfill.impute import _gamma_star, _score_variance
from factorfill.simulate import (
    BasicDgpConfig,
    SouthWestBlock,
    apply_missing,
    gen_basic_dgp,
)
from tests.conftest import corner_missing, make_panel

Z95 = 1.959963984540054  # standard normal 97.5% quantile


def _panel():
    return make_panel(T=36, N=14, r=2, sigma=0.4, seed=17,
                      missing=corner_missing(36, 14, 9, 5))


def _oracle_time_var(res, i, t):
    F, e = res.fit.F, res.e
    J = list(res.locators.per_series[i])
    T_oi = len(J)
    GF = sum(np.outer(F[s], F[s]) for s in J) / T_oi
    Phi = sum(np.outer(F[s], F[s]) * e[s, i] ** 2 for s in J) / T_oi
    b = np.linalg.inv(GF) @ F[t]
    return float(b @ Phi @ b) / T_oi


def _oracle_first_pass_var(res, i, t):
    loc = res.locators
    tall = list(loc.tall_series)
    Lam, e = res.fit.Lambda, res.e
    N_o = len(tall)
    G = sum(np.outer(Lam[k], Lam[k]) for k in tall) / N_o
    Gam = sum(np.outer(Lam[k], Lam[k]) * e[t, k] ** 2 for k in tall) / N_o
    a = np.linalg.inv(G) @ Lam[i]
    return float(a @ Gam @ a) / N_o + _oracle_time_var(res, i, t)


def _oracle_reestimated_var(res, i, t):
    loc = res.locators
    Lam, e = res.fit.Lambda, res.e
    N, r = Lam.shape
    tall = set(loc.tall_series.tolist())
    J_t = list(loc.per_time[t])
    N_ot = len(J_t)
    N_o = len(tall)
    ratio = N_ot / N
    if N_ot == N:
        B = {k: np.eye(r) for k in J_t}
    else:
        out = [k for k in range(N) if k not in set(J_t)]
        G_tall = sum(np.outer(Lam[k], Lam[k]) for k in tall) / N_o
        S_out = sum(np.outer(Lam[k], Lam[k]) for k in out) / N_o
        A_t = S_out @ np.linalg.inv(G_tall)
        B = {k: (ratio * (np.eye(r) + A_t) if k in tall else ratio * np.eye(r))
             for k in J_t}
    Gam = sum(B[k] @ np.outer(Lam[k], Lam[k]) @ B[k].T * e[t, k] ** 2
              for k in J_t) / N_ot
    G_all = Lam.T @ Lam / N
    a = np.linalg.inv(G_all) @ Lam[i]
    return float(a @ Gam @ a) / N_ot + _oracle_time_var(res, i, t)


class TestFirstPassInterval:
    def test_matches_loop_oracle(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        for (i, t) in [(0, 5), (10, 30), (13, 35), (6, 12)]:
            iv = cc_interval_first_pass(res, i, t)
            want = np.sqrt(_oracle_first_pass_var(res, i, t))
            assert iv.se == pytest.approx(want, rel=1e-10)
            assert iv.center == pytest.approx(res.C[t, i])

    def test_interval_geometry(self):
        res = impute_panel(_panel(), 2, method="TW", transform="raw")
        iv = cc_interval_first_pass(res, 3, 7, level=0.95)
        assert iv.se > 0
        assert iv.lower == pytest.approx(iv.center - Z95 * iv.se)
        assert iv.upper == pytest.approx(iv.center + Z95 * iv.se)
        assert iv.kind == "confidence_C" and iv.level == 0.95

    def test_level_monotonicity(self):
        res = impute_panel(_panel(), 2, method="TP", transform="raw")
        narrow = cc_interval_first_pass(res, 2, 2, level=0.80)
        wide = cc_interval_first_pass(res, 2, 2, level=0.99)
        assert wide.upper - wide.lower > narrow.upper - narrow.lower

    def test_rejects_wrong_method(self):
        res = impute_panel(_panel(), 2, method="TP_PLUS", transform="raw")
        with pytest.raises(DataValidationError):
            cc_interval_first_pass(res, 0, 0)

    def test_rejects_bad_indices(self):
        res = impute_panel(_panel(), 2, method="TP", transform="raw")
        with pytest.raises(DataValidationError):
            cc_interval_first_pass(res, 50, 0)
        with pytest.raises(DataValidationError):
            cc_interval_first_pass(res, 0, -1)

    def test_rejects_bad_level(self):
        res = impute_panel(_panel(), 2, method="TP", transform="raw")
        with pytest.raises(DataValidationError):
            cc_interval_first_pass(res, 0, 0, level=1.0)


class TestReestimatedInterval:
    def test_matches_loop_oracle(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP_PLUS", transform="raw")
        for (i, t) in [(0, 4), (9, 31), (13, 34), (4, 20)]:
            iv = cc_interval_reestimated(res, i, t)
            want = np.sqrt(_oracle_reestimated_var(res, i, t))
            assert iv.se == pytest.approx(want, rel=1e-10)

    def test_complete_rows_have_identity_inflation(self):
        # at a fully observed period the starred variance drops the
        # inflation matrices entirely
        panel = _panel()
        res = impute_panel(panel, 2, method="TP_PLUS", transform="raw")
        t = int(res.locators.complete_rows[0])
        plain = _score_variance(res.fit.Lambda, res.e[t] ** 2)
        assert np.allclose(_gamma_star(res, t), plain, rtol=0.0, atol=1e-12)

    def test_rejects_wrong_method(self):
        res = impute_panel(_panel(), 2, method="TW", transform="raw")
        with pytest.raises(DataValidationError):
            cc_interval_reestimated(res, 0, 0)


class TestPredictionInterval:
    def test_adds_idiosyncratic_variance(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TP", transform="raw")
        t, i = 30, 10  # inside the missing corner
        assert not panel.mask[t, i]
        cc = cc_interval_first_pass(res, i, t)
        pred = prediction_interval(res, i, t)
        J = res.locators.per_series[i]
        sigma2 = float(np.mean(res.e[J, i] ** 2))
        assert pred.se ** 2 == pytest.approx(cc.se ** 2 + sigma2, rel=1e-10)
        assert pred.kind == "prediction_X"

    def test_observed_cell_rejected(self):
        res = impute_panel(_panel(), 2, method="TP", transform="raw")
        with pytest.raises(CellObserved):
            prediction_interval(res, 0, 0)

    def test_em_has_no_prediction_theory(self):
        res = impute_panel(_panel(), 2, method="EM", transform="raw")
        with pytest.raises(DataValidationError):
            prediction_interval(res, 10, 30)

    def test_reestimated_dispatch(self):
        panel = _panel()
        res = impute_panel(panel, 2, method="TW_PLUS", transform="raw")
        pred = prediction_interval(res, 10, 30)
        want_var = _oracle_reestimated_var(res, 10, 30)
        J = res.locators.per_series[10]
        want_var += float(np.mean(res.e[J, 10] ** 2))
        assert pred.se == pytest.approx(np.sqrt(want_var), rel=1e-10)


class TestUnits:
    def test_intervals_report_in_original_units(self):
        panel = _panel()
        std = impute_panel(panel, 2, method="TP", transform="standardize")
        rec = std.transform
        # reference: run the same fit on a hand-standardized panel
        from factorfill import PanelMatrix
        work = PanelMatrix((panel.values - rec.means) / rec.stds, panel.mask)
        ref = impute_panel(work, 2, method="TP", transform="raw")
        for (i, t) in [(13, 33), (10, 29)]:
            iv_std = cc_interval_first_pass(std, i, t)
            iv_raw = cc_interval_first_pass(ref, i, t)
            assert iv_std.center == pytest.approx(
                iv_raw.center * rec.stds[i] + rec.means[i], rel=1e-10)
            assert iv_std.se == pytest.approx(iv_raw.se * rec.stds[i],
                                              rel=1e-10)

    def test_prediction_se_matrix_matches_cells(self):
        panel = _panel()
        for method in ("TP", "TP_PLUS"):
            res = impute_panel(panel, 2, method=method,
                               transform="standardize")
            se = prediction_se_matrix(res)
            assert np.isnan(se[panel.mask]).all()
            miss_t, miss_i = np.nonzero(~panel.mask)
            for t, i in zip(miss_t[::7], miss_i[::7]):
                want = prediction_interval(res, int(i), int(t)).se
                assert se[t, i] == pytest.approx(want, rel=1e-9)


class TestCoverageSanity:
    def test_first_pass_coverage_on_easy_design(self):
        # modest replication count: guards against gross mis-calibration
        dgp = BasicDgpConfig(T=120, N=120, r=2, sigma2_e=1.0, seed=99,
                             fixed_factors=True)
        pattern = SouthWestBlock(0.4, 0.3)
        hits = 0
        B = 120
        t, i = 105, 110  # inside the missing corner
        for b in range(B):
            panel, C = gen_basic_dgp(dgp, rep=b)
            masked = apply_missing(panel, pattern)
            assert not masked.mask[t, i]
            res = tp_impute(masked, 2)
            iv = cc_interval_first_pass(res, i, t, level=0.95)
            hits += iv.lower <= C[t, i] <= iv.upper
        assert 0.85 <= hits / B <= 1.0

    def test_reestimated_se_not_larger_than_first_pass_on_average(self):
        # re-estimation uses every observed series per period, so pooled
        # over many cells its cross-section precision cannot be worse
        panel = make_panel(T=80, N=60, r=2, sigma=0.6, seed=5,
                           missing=corner_missing(80, 60, 20, 15))
        first = tp_impute(panel, 2)
        plus = reestimate(panel, first)
        ses_first = []
        ses_plus = []
        for t in range(62, 80):
            for i in range(46, 60):
                ses_first.append(cc_interval_first_pass(first, i, t).se)
                ses_plus.append(cc_interval_reestimated(plus, i, t).se)
        assert np.mean(ses_plus) <= np.mean(ses_first) * 1.1
