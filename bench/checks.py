"""Output checks for the benchmark workloads.

Each check compares a program output with a computation made here in plain
numpy or the standard library, or with a property the method must have.
None compares with a saved copy of an earlier output.  A failed check
raises CheckFailed naming what differed.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from statistics import NormalDist

import numpy as np

# Binary covariance layout as documented for ``cov --format bin``: 8-byte
# magic, little-endian uint32 version and uint32 N, then N*N float64 in
# column-major order.
COV_MAGIC = b"FFCOVBIN"
COV_VERSION = 1

NA_TOKEN = "NA"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Plain-numpy reference estimators
# ---------------------------------------------------------------------------


def rank_r_svd(X: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation of X (the common component of a
    principal-components fit, whatever the scaling of F and Lambda)."""
    U, d, Vt = np.linalg.svd(X, full_matrices=False)
    return (U[:, :r] * d[:r]) @ Vt[:r]


def tall_project(values: np.ndarray, mask: np.ndarray, r: int) -> np.ndarray:
    """Tall-project estimate of the common component: principal components
    of the fully observed columns, then each series regressed by least
    squares on the factor rows where it is observed."""
    T = values.shape[0]
    tall = mask.all(axis=0)
    U, _, _ = np.linalg.svd(values[:, tall], full_matrices=False)
    F = np.sqrt(T) * U[:, :r]
    C = np.empty(values.shape)
    for i in range(values.shape[1]):
        obs = mask[:, i]
        lam, *_ = np.linalg.lstsq(F[obs], values[obs, i], rcond=None)
        C[:, i] = F @ lam
    return C


# ---------------------------------------------------------------------------
# mc-impute
# ---------------------------------------------------------------------------


def check_report_ok(report) -> None:
    require(report.reps_failed == 0,
            f"{report.reps_failed} replications failed: {report.failures}")


def check_tp_rmse(rmse_tp_raw: dict, C_true: np.ndarray, values: np.ndarray,
                  mask: np.ndarray, r: int, points: dict) -> None:
    """One replication: the reported TP/raw RMSE at each evaluation cell is
    the absolute error of the reference tall-project estimate."""
    C_ref = tall_project(values, mask, r)
    for name, (t, i) in points.items():
        ref = abs(C_ref[t, i] - C_true[t, i])
        got = rmse_tp_raw[name]
        require(got is not None and rel_close(got, ref, 1e-8),
                f"TP/raw RMSE at {name}: reported {got!r}, reference {ref!r}")


def check_imputation_invariants(values: np.ndarray, mask: np.ndarray,
                                X_completed: np.ndarray, e: np.ndarray) -> None:
    require(np.array_equal(X_completed[mask], values[mask]),
            "an observed cell was changed by imputation")
    require(not np.any(e[~mask]), "residual e is not zero at a missing cell")


def check_em_fixed_point(X_completed: np.ndarray, C: np.ndarray,
                         mask: np.ndarray, r: int, tol: float) -> None:
    """One more refill sweep from EM's output moves C by less than tol
    (relative Frobenius change, EM's own stopping rule)."""
    X = np.array(X_completed, dtype=np.float64)
    X[~mask] = C[~mask]
    C_next = rank_r_svd(X, r)
    change = np.linalg.norm(C_next - C) / max(np.linalg.norm(C), 1e-12)
    require(change < tol,
            f"EM output is not a fixed point: one more sweep changes C by "
            f"{change:.3e} >= {tol:.1e}")


# ---------------------------------------------------------------------------
# mc-risk
# ---------------------------------------------------------------------------


def check_risk_table(measures: dict) -> None:
    """Every cell has a finite bias and RMSE.  rmse >= |bias| is checked as
    well, but it holds for any finite table (a root mean square bounds the
    absolute mean; 1e-12 relative allows for the rounding of sqrt(v*v)),
    so it only catches the two being swapped or mangled;
    check_tp_risk_cells recomputes values."""
    n = 0
    for m, per_est in measures.items():
        for tok, per_meas in per_est.items():
            for meas, cell in per_meas.items():
                where = f"{m}/{tok}/{meas}"
                require(cell is not None, f"{where}: no value")
                bias, rmse = cell["bias"], cell["rmse"]
                require(math.isfinite(bias) and math.isfinite(rmse),
                        f"{where}: non-finite bias {bias!r} or rmse {rmse!r}")
                require(rmse >= abs(bias) * (1.0 - 1e-12),
                        f"{where}: rmse {rmse!r} < |bias| {abs(bias)!r}")
                n += 1
    require(n > 0, "risk table is empty")


def tp_risk_errors(values: np.ndarray, mask: np.ndarray, X_true: np.ndarray,
                   r: int) -> dict:
    """Errors of the equal-weight portfolio volatility ("pvol") and of the
    incomplete series' variances ("var") of the SM0 and SFA estimators
    built on the reference tall-project, against the sample covariance of
    the complete panel, with the magnitude each error is a difference of.

    SM0 is the (1/T) demeaned covariance of the completed panel, so its
    pvol is the population standard deviation of the completed panel's
    row means.  SFA is C'C/T plus, on the diagonal, each series' residual
    sum of squares over its observed cells divided by their count.
    """
    T, N = values.shape
    C = tall_project(values, mask, r)
    X = np.where(mask, values, C)
    e = np.where(mask, values - C, 0.0)
    inc = ~mask.all(axis=0)
    idio = (e * e).sum(axis=0) / mask.sum(axis=0)
    c = C.mean(axis=1)
    est = {
        "sm0": (X.mean(axis=1).std(), X[:, inc].var(axis=0)),
        "sfa": (math.sqrt(c @ c / T + idio.sum() / (N * N)),
                (C[:, inc] ** 2).sum(axis=0) / T + idio[inc]),
    }
    true_pvol = X_true.mean(axis=1).std()
    true_var = X_true[:, inc].var(axis=0)
    return {tok: {"pvol": (np.array([pvol - true_pvol]), true_pvol),
                  "var": (var - true_var, float(np.max(true_var)))}
            for tok, (pvol, var) in est.items()}


def check_tp_risk_cells(measures_tp: dict, values: np.ndarray,
                        mask: np.ndarray, X_true: np.ndarray, r: int,
                        scale: float) -> None:
    """One table3 replication (reps=1): the reported TP bias and RMSE of
    pvol and var, for sm0 and sfa, are the mean and root mean square of the
    reference errors times ``scale``, to 1e-10 of the magnitude the errors
    are differences of."""
    for tok, per_meas in tp_risk_errors(values, mask, X_true, r).items():
        for meas, (err, size) in per_meas.items():
            ref = {"bias": float(np.mean(err)) * scale,
                   "rmse": math.sqrt(float(np.mean(err * err))) * scale}
            for stat, want in ref.items():
                got = measures_tp[tok][meas][stat]
                require(abs(got - want) <= 1e-10 * scale * size,
                        f"TP/{tok}/{meas} {stat}: reported {got!r}, "
                        f"reference {want!r}")


def check_cov_psd(M: np.ndarray, what: str) -> None:
    M = np.asarray(M, dtype=np.float64)
    scale = float(np.max(np.abs(M)))
    require(np.max(np.abs(M - M.T)) <= 1e-12 * scale, f"{what} is not symmetric")
    lo = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    tr = float(np.trace(M))
    require(lo >= -1e-12 * tr,
            f"{what} has eigenvalue {lo:.3e} below -1e-12 x trace ({tr:.3e})")


def check_overlay(overlay: np.ndarray, draws: list) -> None:
    """The overlay estimate equals the plain mean of its per-draw
    covariances (same total, two summation orders)."""
    require(len(draws) > 0, "no overlay draws")
    plain = sum(draws[1:], draws[0].copy()) / len(draws)
    err = float(np.max(np.abs(overlay - plain)))
    require(err <= 1e-12 * float(np.max(np.abs(plain))),
            f"overlay_cov differs from the mean of its draws by {err:.3e}")
    check_cov_psd(overlay, "overlay covariance")


def check_sfa_minus_sf(sfa: np.ndarray, sf: np.ndarray,
                       mask: np.ndarray) -> None:
    """SFA differs from SF only on the diagonal: zero for complete series,
    nonnegative for incomplete ones (1/T_oi >= 1/T)."""
    D = sfa - sf
    off = D - np.diag(np.diag(D))
    require(not np.any(off), "sfa_cov - sf_cov has off-diagonal entries")
    d = np.diag(D)
    complete = mask.all(axis=0)
    require(not np.any(d[complete]),
            "sfa_cov - sf_cov is nonzero on a complete series")
    require(np.all(d[~complete] >= 0.0),
            "sfa_cov - sf_cov is negative on an incomplete series")


# ---------------------------------------------------------------------------
# cli-panel
# ---------------------------------------------------------------------------


def read_csv_rows(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_completed_csv(input_rows: list, out_rows: list, what: str) -> None:
    """Header and row labels unchanged; every observed token echoed
    byte-for-byte; every missing cell filled with a finite number."""
    require(len(out_rows) == len(input_rows), f"{what}: row count differs")
    require(out_rows[0] == input_rows[0], f"{what}: header differs")
    for t, (src, out) in enumerate(zip(input_rows[1:], out_rows[1:])):
        require(len(out) == len(src), f"{what}: row {t} has {len(out)} cells")
        require(out[0] == src[0], f"{what}: row label {t} differs")
        for i in range(1, len(src)):
            if src[i] == NA_TOKEN:
                require(math.isfinite(float(out[i])),
                        f"{what}: imputed cell ({t}, {i - 1}) is not finite")
            else:
                require(out[i] == src[i],
                        f"{what}: observed token ({t}, {i - 1}) changed from "
                        f"{src[i]!r} to {out[i]!r}")


def check_se_csv(input_rows: list, se_rows: list) -> None:
    """Empty exactly at observed cells; positive and finite at missing."""
    require(len(se_rows) == len(input_rows), "SE file: row count differs")
    for t, (src, out) in enumerate(zip(input_rows[1:], se_rows[1:])):
        require(len(out) == len(src), f"SE file: row {t} has {len(out)} cells")
        for i in range(1, len(src)):
            if src[i] == NA_TOKEN:
                v = float(out[i]) if out[i] else float("nan")
                require(math.isfinite(v) and v > 0.0,
                        f"SE file: cell ({t}, {i - 1}) is {out[i]!r}")
            else:
                require(out[i] == "",
                        f"SE file: observed cell ({t}, {i - 1}) is {out[i]!r}")


def read_cov_bin(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    require(len(blob) >= 16 and blob[:8] == COV_MAGIC,
            "binary covariance: bad magic")
    version, N = struct.unpack("<II", blob[8:16])
    require(version == COV_VERSION, f"binary covariance: version {version}")
    require(len(blob) == 16 + 8 * N * N,
            f"binary covariance: {len(blob)} bytes for N={N}")
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape((N, N), order="F")


def check_cov_bin(path: str, N: int) -> None:
    M = read_cov_bin(path)
    require(M.shape == (N, N), f"binary covariance: N={M.shape[0]}, want {N}")
    require(np.isfinite(M).all(), "binary covariance: non-finite entries")
    check_cov_psd(M, "binary covariance")


def bs_call_erf(sigma: float, S0: float = 1.0, K: float = 1.0,
                r: float = 0.02, tau: float = 1.0) -> float:
    """Black-Scholes call with the normal cdf written through math.erf."""
    disc = K * math.exp(-r * tau)
    if sigma == 0.0:
        return max(S0 - disc, 0.0)
    ncdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    sq = sigma * math.sqrt(tau)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma * sigma) * tau) / sq
    return S0 * ncdf(d1) - disc * ncdf(d1 - sq)


def check_risk_json(path: str, n_incomplete: int, periods_per_year: int) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rep = doc["report"]
    alpha = doc["alpha"]
    require(len(doc["incomplete_series"]) == n_incomplete,
            f"risk: {len(doc['incomplete_series'])} incomplete series, "
            f"want {n_incomplete}")
    z = NormalDist().inv_cdf(alpha)
    require(rel_close(rep["pvar"], z * rep["pvol"], 1e-10),
            f"risk: pvar {rep['pvar']!r} != z_alpha * pvol {z * rep['pvol']!r}")
    variances = rep["variances"]
    require(len(variances) == n_incomplete == len(rep["call_prices"]),
            "risk: variance and call price counts differ")
    for v, c in zip(variances, rep["call_prices"]):
        ref = bs_call_erf(math.sqrt(periods_per_year * max(v, 0.0)))
        require(abs(c - ref) <= 1e-10 * max(1.0, abs(ref)),
                f"risk: call price {c!r} != Black-Scholes {ref!r}")


def check_favar_json(path: str, beta_true: np.ndarray, r: int) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    alpha = np.asarray(doc["alpha"])
    beta = np.asarray(doc["beta"])
    require(alpha.shape == (r,), f"favar: alpha has shape {alpha.shape}")
    require(beta.shape == beta_true.shape, f"favar: beta has shape {beta.shape}")
    require(np.max(np.abs(alpha)) <= 1e-8, f"favar: alpha {alpha} is not 0")
    require(np.max(np.abs(beta - beta_true)) <= 1e-8,
            f"favar: beta {beta} != generating {beta_true}")
