"""Tests of the benchmark itself: every workload runs one operation with all
of its checks, and every check rejects a corrupted output.

Run from the repository root:  python -m pytest bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from harness import run_workload  # noqa: E402
from tracing import LAYER_METRICS, best_op_times  # noqa: E402
from workloads import CliPanel, McImpute, McRisk, WORKLOADS  # noqa: E402

from factorfill.covariance import OverlayConfig, overlay_cov, overlay_draw_covs, \
    sf_cov, sfa_cov  # noqa: E402
from factorfill.impute import EM_TOL, impute_panel, reestimate, tp_impute  # noqa: E402
from factorfill.errors import NotConverged  # noqa: E402
import factorfill.simulate as simulate  # noqa: E402

SEED = 3
COUNTS = [m for m, unit in LAYER_METRICS if unit in ("count", "bytes")]


# ---------------------------------------------------------------------------
# Short mode: one operation per workload, every check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_passes_all_checks(name, tmp_path):
    res = run_workload(name, SEED, 0.0, False, str(tmp_path), round_size=1)
    assert res["correct"] is True
    assert (res["attempted"], res["failed"]) == (1, 0)
    assert set(res["metrics"]) == {"op_s", "ops_per_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        res = run_workload(name, SEED, 0.0, True, str(workdir), round_size=1)
        assert res["correct"] is True
        assert set(res["metrics"]) == {m for m, _ in LAYER_METRICS}
        runs.append({m: res["metrics"][m]["value"] for m in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["apc.calls"] > 0


def test_best_op_times_takes_each_steps_fastest_round():
    # Two rounds of two operations of two steps each.
    times = [1.0, 2.0, 5.0, 6.0,
             0.5, 3.0, 4.0, 7.0]
    assert best_op_times(times, 2, 2) == [0.5 + 2.0, 4.0 + 6.0]
    assert best_op_times([3.0, 1.0, 2.0], 1, 1) == [1.0]


def test_run_offers_every_workload():
    import run
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_setup_time_is_a_fresh_import(monkeypatch):
    import run
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    assert run.setup_time() > 0
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "no-such-dir"))
    with pytest.raises(subprocess.CalledProcessError):
        run.setup_time()


class _Failing:
    """A workload whose every operation raises."""
    round_size, steps = 2, 1

    def __init__(self, *args, **kwargs):
        pass

    def op(self, k, s):
        raise RuntimeError("broken")

    def record(self, k, outputs):
        raise AssertionError("a failed operation was recorded")

    def check(self):
        pass


def test_run_where_every_operation_fails_is_not_correct(monkeypatch, tmp_path):
    import harness
    monkeypatch.setitem(harness.WORKLOADS, "failing", _Failing)
    res = run_workload("failing", SEED, 0.0, False, str(tmp_path))
    assert res["correct"] is False
    assert res["attempted"] == res["failed"] == 2
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())


def test_failed_step_is_never_the_fastest():
    inf = float("inf")
    assert best_op_times([inf, 2.0, 3.0, inf], 1, 2) == [3.0 + 2.0]
    assert best_op_times([inf, inf], 1, 1) == [inf]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-risk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# mc-impute checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def impute_case(tmp_path_factory):
    wl = McImpute(SEED, str(tmp_path_factory.mktemp("impute")), round_size=1)
    report = wl.op(0)
    dgp = simulate.BasicDgpConfig(seed=wl.seeds[0], **McImpute.dgp)
    panel, C_true = simulate.gen_basic_dgp(dgp, rep=0)
    masked = simulate.apply_missing(panel, simulate.FourBlockCase(1))
    em = impute_panel(masked, dgp.r, method="EM", transform="raw")
    return wl, report, masked, C_true, em


def test_impute_checks_pass(impute_case):
    wl, report, *_ = impute_case
    wl.record(0, [report])
    wl.check()


def test_failed_replication_is_caught(impute_case):
    report = impute_case[1]
    with pytest.raises(CheckFailed, match="replications failed"):
        checks.check_report_ok(dataclasses.replace(report, reps_failed=1))


def test_wrong_tp_rmse_is_caught(impute_case):
    _, report, masked, C_true, _ = impute_case
    rmse = dict(report.results["rmse"]["TP"]["raw"])
    rmse["MISS"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="TP/raw RMSE at MISS"):
        checks.check_tp_rmse(rmse, C_true, masked.values, masked.mask, 2,
                             simulate.FourBlockCase(1).points)


def test_other_preset_design_is_caught(impute_case):
    wl, report, *_ = impute_case
    with pytest.raises(CheckFailed, match="preset design"):
        wl.check_one(wl.seeds[0] + 1, report)


def test_changed_observed_cell_is_caught(impute_case):
    _, _, masked, _, em = impute_case
    X = em.X_completed.copy()
    X[0, 0] = np.nextafter(X[0, 0], np.inf)
    with pytest.raises(CheckFailed, match="observed cell"):
        checks.check_imputation_invariants(masked.values, masked.mask, X, em.e)


def test_nonzero_residual_at_missing_cell_is_caught(impute_case):
    _, _, masked, _, em = impute_case
    e = em.e.copy()
    t, i = np.argwhere(~masked.mask)[0]
    e[t, i] = 1e-300
    with pytest.raises(CheckFailed, match="not zero at a missing cell"):
        checks.check_imputation_invariants(masked.values, masked.mask,
                                           em.X_completed, e)


def test_unconverged_em_is_caught(impute_case):
    _, _, masked, _, _ = impute_case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        early = impute_panel(masked, 2, method="EM", transform="raw", max_iter=2)
    with pytest.raises(CheckFailed, match="not a fixed point"):
        checks.check_em_fixed_point(early.X_completed, early.C, masked.mask, 2,
                                    EM_TOL)


def test_changed_report_between_rounds_is_caught(impute_case):
    wl, report, *_ = impute_case
    other = dataclasses.replace(report, results={"rmse": {}})
    with pytest.raises(CheckFailed, match="differs"):
        wl.record(0, [other])


# ---------------------------------------------------------------------------
# mc-risk checks
# ---------------------------------------------------------------------------


def _strict_factor_panel(seed):
    cfg = simulate.StrictFactorConfig(seed=seed, **McRisk.dgp)
    return simulate.gen_strict_factor_dgp(cfg, rep=0)[0]


@pytest.fixture(scope="module")
def risk_case(tmp_path_factory):
    wl = McRisk(SEED, str(tmp_path_factory.mktemp("risk")), round_size=1)
    report = wl.op(0)
    panel = _strict_factor_panel(wl.seeds[0])
    masked = simulate.apply_missing(panel, simulate.SouthWestBlock(0.625, 0.4))
    reest = reestimate(masked, tp_impute(masked, 5))
    ov = OverlayConfig("SM2", S=20, seed=1)
    overlay = overlay_cov(reest, ov).matrix
    draws = list(overlay_draw_covs(reest, ov))
    return wl, report, masked, reest, overlay, draws


def test_risk_checks_pass(risk_case):
    wl, report, *_ = risk_case
    wl.record(0, [report])
    wl.check()


@pytest.mark.parametrize("tok,meas,stat", [
    ("sm0", "pvol", "bias"), ("sm0", "var", "rmse"), ("sfa", "pvol", "rmse"),
    ("sfa", "var", "bias"),
])
def test_wrong_tp_risk_cell_is_caught(risk_case, tok, meas, stat):
    wl, report, masked = risk_case[:3]
    measures = json.loads(json.dumps(report.results["measures"]["TP"]))
    measures[tok][meas][stat] *= 1.0 + 1e-6
    X_true = _strict_factor_panel(wl.seeds[0]).values
    with pytest.raises(CheckFailed, match=f"TP/{tok}/{meas} {stat}"):
        checks.check_tp_risk_cells(measures, masked.values, masked.mask,
                                   X_true, McRisk.r, McRisk.scale)


def test_swapped_risk_estimators_are_caught(risk_case):
    wl, report, masked = risk_case[:3]
    measures = dict(report.results["measures"]["TP"])
    measures["sm0"], measures["sfa"] = measures["sfa"], measures["sm0"]
    X_true = _strict_factor_panel(wl.seeds[0]).values
    with pytest.raises(CheckFailed, match="TP/sm0"):
        checks.check_tp_risk_cells(measures, masked.values, masked.mask,
                                   X_true, McRisk.r, McRisk.scale)


@pytest.mark.parametrize("corrupt", ["rmse_below_bias", "nan_bias"])
def test_bad_risk_table_is_caught(risk_case, corrupt):
    measures = json.loads(json.dumps(risk_case[1].results["measures"]))
    cell = measures["TP"]["sfa"]["pvol"]
    if corrupt == "rmse_below_bias":
        cell["rmse"] = abs(cell["bias"]) * 0.999
    else:
        cell["bias"] = float("nan")
    with pytest.raises(CheckFailed, match="TP/sfa/pvol"):
        checks.check_risk_table(measures)


def test_overlay_off_its_draw_mean_is_caught(risk_case):
    overlay, draws = risk_case[4], risk_case[5]
    bad = overlay * (1.0 + 1e-9)
    with pytest.raises(CheckFailed, match="mean of its draws"):
        checks.check_overlay(bad, draws)


def test_asymmetric_covariance_is_caught(risk_case):
    M = risk_case[4].copy()
    M[0, 1] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="not symmetric"):
        checks.check_cov_psd(M, "overlay covariance")


def test_indefinite_covariance_is_caught(risk_case):
    M = risk_case[4]
    w, V = np.linalg.eigh(M)
    v = V[:, -1:]
    bad = M - 2.0 * w[-1] * (v @ v.T)
    with pytest.raises(CheckFailed, match="eigenvalue"):
        checks.check_cov_psd(0.5 * (bad + bad.T), "overlay covariance")


@pytest.mark.parametrize("corrupt", ["swapped", "off_diagonal", "complete_series"])
def test_bad_sfa_minus_sf_is_caught(risk_case, corrupt):
    masked, reest = risk_case[2], risk_case[3]
    sfa, sf = sfa_cov(reest).matrix.copy(), sf_cov(reest).matrix.copy()
    if corrupt == "swapped":
        sfa, sf = sf, sfa
        match = "negative on an incomplete"
    elif corrupt == "off_diagonal":
        sfa[0, 1] += 1e-12
        match = "off-diagonal"
    else:
        i = int(np.flatnonzero(masked.mask.all(axis=0))[0])
        sfa[i, i] *= 1.0 + 1e-12
        match = "nonzero on a complete series"
    with pytest.raises(CheckFailed, match=match):
        checks.check_sfa_minus_sf(sfa, sf, masked.mask)


# ---------------------------------------------------------------------------
# cli-panel checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_case(tmp_path_factory):
    wl = CliPanel(SEED, str(tmp_path_factory.mktemp("cli")), round_size=1)
    wl.record(0, _one_pass(wl))
    return wl


def _one_pass(wl):
    return [wl.op(0, s) for s in range(wl.steps)]


def _edit_csv(path, t, i, token):
    rows = checks.read_csv_rows(path)
    rows[t + 1][i + 1] = token
    return rows


def _first_cell(wl, observed):
    t, i = np.argwhere(wl.mask if observed else ~wl.mask)[0]
    return int(t), int(i)


def test_cli_checks_pass(cli_case):
    cli_case.check()


def test_failed_command_fails_the_operation(cli_case, tmp_path):
    wl = CliPanel(SEED, str(tmp_path), round_size=1)
    os.remove(wl.paths["exog"])
    assert wl.commands[-1][0] == "favar"
    with pytest.raises(RuntimeError, match="favar exited with code"):
        wl.op(0, wl.steps - 1)


def test_changed_output_between_passes_is_caught(cli_case, tmp_path):
    wl = CliPanel(SEED, str(tmp_path), round_size=1)
    codes = _one_pass(wl)
    wl.record(0, codes)
    with open(wl.paths["risk"], "a", encoding="utf-8") as fh:
        fh.write(" ")
    with pytest.raises(CheckFailed, match="differ from the first pass"):
        wl.record(0, codes)


@pytest.mark.parametrize("key", ["tp", "em"])
def test_changed_observed_token_is_caught(cli_case, key):
    wl = cli_case
    rows = checks.read_csv_rows(wl.paths["panel"])
    t, i = _first_cell(wl, observed=True)
    token = rows[t + 1][i + 1]
    out = _edit_csv(wl.paths[key], t, i, repr(float(token)) + "0")
    with pytest.raises(CheckFailed, match="observed token"):
        checks.check_completed_csv(rows, out, key)


def test_nonfinite_imputed_cell_is_caught(cli_case):
    wl = cli_case
    rows = checks.read_csv_rows(wl.paths["panel"])
    t, i = _first_cell(wl, observed=False)
    out = _edit_csv(wl.paths["tp"], t, i, "nan")
    with pytest.raises(CheckFailed, match="not finite"):
        checks.check_completed_csv(rows, out, "tp")


@pytest.mark.parametrize("observed,token,match", [
    (True, "0.1", "observed cell"),
    (False, "", "SE file: cell"),
    (False, "0.0", "SE file: cell"),
])
def test_bad_se_file_is_caught(cli_case, observed, token, match):
    wl = cli_case
    rows = checks.read_csv_rows(wl.paths["panel"])
    t, i = _first_cell(wl, observed)
    se = _edit_csv(wl.paths["se"], t, i, token)
    with pytest.raises(CheckFailed, match=match):
        checks.check_se_csv(rows, se)


def test_asymmetric_cov_file_is_caught(cli_case, tmp_path):
    M = checks.read_cov_bin(cli_case.paths["cov"]).copy()
    M[0, 1] *= 1.0 + 1e-9
    path = tmp_path / "cov.bin"
    with open(cli_case.paths["cov"], "rb") as fh:
        header = fh.read(16)
    path.write_bytes(header + np.asfortranarray(M).tobytes(order="F"))
    with pytest.raises(CheckFailed, match="not symmetric"):
        checks.check_cov_bin(str(path), cli_case.N)


@pytest.mark.parametrize("corrupt,match", [
    ("magic", "bad magic"), ("truncated", "bytes for N"), ("size", "N=600, want 599"),
])
def test_bad_cov_file_layout_is_caught(cli_case, tmp_path, corrupt, match):
    blob = open(cli_case.paths["cov"], "rb").read()
    N = cli_case.N
    if corrupt == "magic":
        blob = b"X" + blob[1:]
    elif corrupt == "truncated":
        blob = blob[:-8]
    else:
        N -= 1
    path = tmp_path / "cov.bin"
    path.write_bytes(blob)
    with pytest.raises(CheckFailed, match=match):
        checks.check_cov_bin(str(path), N)


@pytest.mark.parametrize("field", ["pvar", "call_prices"])
def test_bad_risk_json_is_caught(cli_case, tmp_path, field):
    wl = cli_case
    doc = json.load(open(wl.paths["risk"]))
    if field == "pvar":
        doc["report"]["pvar"] *= 1.0 + 1e-8
    else:
        doc["report"]["call_prices"][0] *= 1.0 + 1e-8
    path = tmp_path / "risk.json"
    path.write_text(json.dumps(doc))
    n_incomplete = int((~wl.mask.all(axis=0)).sum())
    with pytest.raises(CheckFailed, match="pvar" if field == "pvar" else "call price"):
        checks.check_risk_json(str(path), n_incomplete, wl.periods_per_year)


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_bad_favar_json_is_caught(cli_case, tmp_path, field):
    wl = cli_case
    doc = json.load(open(wl.paths["favar"]))
    doc[field][0] += 1e-6
    path = tmp_path / "favar.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match=f"favar: {field}"):
        checks.check_favar_json(str(path), wl.beta, wl.r)
