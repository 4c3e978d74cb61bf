"""Factor-based imputation of incomplete panels.

Four estimators share one output shape: TP projects every series on factors
extracted from the fully observed columns; TW additionally exploits the
fully observed rows; TP_PLUS / TW_PLUS re-run principal components once on
the completed matrix; EM iterates that refill step to a fixed point.

The module also provides the asymptotic confidence intervals for the common
component (first-pass and re-estimated variants) and prediction intervals
for the missing cells themselves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from ._kernels import masked_loadings
from .apc import FactorModelFit, apc, common_component
from .errors import (
    CellObserved,
    DataValidationError,
    NoTallBlock,
    NotConverged,
    NoWideBlock,
    RotationSingular,
    SeriesUnderdetermined,
    SingularDesign,
    SingularMoment,
)
from .panel import (
    LocatorSets,
    PanelMatrix,
    StandardizationRecord,
    build_locators,
    standardize,
)

METHODS = ("TP", "TW", "TP_PLUS", "TW_PLUS", "EM")
FIRST_PASS = ("TP", "TW")
REESTIMATED = ("TP_PLUS", "TW_PLUS")

EM_TOL = 1e-6
EM_MAX_ITER = 500

# Relative floor below which an r x r moment matrix is treated as singular.
_MOMENT_RTOL = 1e-12


@dataclass(frozen=True)
class ImputationResult:
    """Output of one imputation pass, in the units of the panel it was fit on.

    X_completed keeps every observed cell exactly and carries C at missing
    cells; e = X_completed - C is exactly zero at missing cells.  transform
    records the standardization applied upstream ("raw" identity when the
    estimator was called directly); interval functions report in the
    pre-transform units.
    """

    fit: FactorModelFit
    C: np.ndarray
    X_completed: np.ndarray
    e: np.ndarray
    locators: LocatorSets
    method: str
    transform: StandardizationRecord
    mask: np.ndarray
    iterations: int = 1
    converged: bool = True

    def __post_init__(self):
        for name in ("C", "X_completed", "e", "mask"):
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class IntervalEstimate:
    center: float
    se: float
    lower: float
    upper: float
    level: float
    kind: str  # confidence_C or prediction_X


@dataclass(frozen=True)
class InferenceComponents:
    """Bulk plug-in pieces behind the interval formulas.

    Gamma_t holds the cross-section score variances (starred version for
    re-estimated fits), Phi_i the per-series time-direction score variances,
    B_ti the re-estimation inflation matrices compressed to two per period
    (tall series share one matrix, all other observed series another).
    """

    Sigma_Lambda_inv_terms: dict
    Gamma_t: np.ndarray  # T x r x r
    Phi_i: np.ndarray  # N x r x r
    B_ti: np.ndarray  # T x 2 x r x r; [:, 0] tall, [:, 1] other observed
    sigma2_e: np.ndarray  # length N


def _identity_record(N: int) -> StandardizationRecord:
    return StandardizationRecord("raw", np.zeros(N), np.ones(N))


def _completed_arrays(C: np.ndarray, panel: PanelMatrix):
    X = panel.values.copy()
    miss = ~panel.mask
    X[miss] = C[miss]
    e = X - C
    e[miss] = 0.0
    return X, e


def _check_identified(loc: LocatorSets, r: int) -> None:
    if loc.N_o < r:
        raise NoTallBlock(loc.N_o, r)
    low = np.flatnonzero(loc.T_oi < r)
    if low.size:
        i = int(low[0])
        raise SeriesUnderdetermined(i, int(loc.T_oi[i]), r)


def tp_impute(panel: PanelMatrix, r: int) -> ImputationResult:
    """Impute by projecting each series on factors from the tall block.

    Factors come from principal components on the fully observed columns;
    each series' loadings come from OLS of its observed cells on the
    matching factor rows.
    """
    loc = build_locators(panel)
    _check_identified(loc, r)
    tall_fit = apc(panel.values[:, loc.tall_series], r)
    F = tall_fit.F
    lam, bad = masked_loadings(F, panel.filled(0.0), panel.mask)
    if bad.any():
        raise SingularDesign(int(np.flatnonzero(bad)[0]))
    C = F @ lam.T
    X, e = _completed_arrays(C, panel)
    fit = FactorModelFit(F=F, Lambda=lam, D2=tall_fit.D2)
    return ImputationResult(fit, C, X, e, loc, "TP", _identity_record(panel.N),
                            panel.mask.copy())


def tw_impute(panel: PanelMatrix, r: int) -> ImputationResult:
    """Impute using factors from the tall block and loadings from the wide
    block, aligned by regressing the tall-block loadings on the matching
    rows of the wide-block loadings (no intercept)."""
    loc = build_locators(panel)
    _check_identified(loc, r)
    if loc.T_o < r:
        raise NoWideBlock(loc.T_o, r)
    tall_fit = apc(panel.values[:, loc.tall_series], r)
    wide_fit = apc(panel.values[loc.complete_rows, :], r)
    sub = wide_fit.Lambda[loc.tall_series]
    H, _, rank, _ = np.linalg.lstsq(sub, tall_fit.Lambda, rcond=None)
    if rank < r:
        raise RotationSingular(
            f"wide-block loading sub-matrix has rank {rank} < {r}"
        )
    lam = wide_fit.Lambda @ H
    C = tall_fit.F @ lam.T
    X, e = _completed_arrays(C, panel)
    fit = FactorModelFit(F=tall_fit.F, Lambda=lam, D2=tall_fit.D2)
    return ImputationResult(fit, C, X, e, loc, "TW", _identity_record(panel.N),
                            panel.mask.copy())


def reestimate(panel: PanelMatrix, first_pass: ImputationResult) -> ImputationResult:
    """Run one more principal-components pass on the completed matrix."""
    if first_pass.method not in FIRST_PASS:
        raise DataValidationError(
            f"reestimate expects a TP or TW result, got {first_pass.method}"
        )
    fit = apc(first_pass.X_completed, first_pass.fit.r)
    C = common_component(fit)
    X, e = _completed_arrays(C, panel)
    return ImputationResult(fit, C, X, e, first_pass.locators,
                            first_pass.method + "_PLUS", first_pass.transform,
                            panel.mask.copy())


def em_impute(panel: PanelMatrix, r: int, tol: float = EM_TOL,
              max_iter: int = EM_MAX_ITER) -> ImputationResult:
    """Iterate {principal components -> refill missing cells} to a fixed
    point, starting from the tall-block projection estimate.

    Stops when the relative Frobenius change of C drops below ``tol``;
    warns with NotConverged after ``max_iter`` sweeps and returns the last
    iterate.
    """
    if not tol > 0.0:
        raise DataValidationError("tol must be positive")
    if max_iter < 1:
        raise DataValidationError("max_iter must be at least 1")
    init = tp_impute(panel, r)
    miss = ~panel.mask
    X_work = init.X_completed.copy()
    C_prev = init.C
    fit = init.fit
    C = C_prev
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        fit = apc(X_work, r)
        C = common_component(fit)
        X_work[miss] = C[miss]
        denom = max(float(np.linalg.norm(C_prev)), 1e-12)
        delta = float(np.linalg.norm(C - C_prev)) / denom
        C_prev = C
        iterations = it
        if delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(NotConverged(
            f"EM stopped after {max_iter} sweeps with relative change "
            f"{delta:.3e} > tol {tol:.1e}"
        ))
    X, e = _completed_arrays(C, panel)
    return ImputationResult(fit, C, X, e, init.locators, "EM",
                            _identity_record(panel.N), panel.mask.copy(),
                            iterations=iterations, converged=converged)


def impute_panel(panel: PanelMatrix, r: int, method: str = "TP_PLUS",
                 transform: str = "standardize", tol: float = EM_TOL,
                 max_iter: int = EM_MAX_ITER) -> ImputationResult:
    """Transform, impute, and attach the transform record.

    The returned matrices live in transformed units; the record on the
    result maps them (and any intervals) back to the caller's units.
    """
    if method not in METHODS:
        raise DataValidationError(f"unknown method {method!r}; expected {METHODS}")
    work, record = standardize(panel, transform)
    if method in ("TP", "TP_PLUS"):
        res = tp_impute(work, r)
    elif method in ("TW", "TW_PLUS"):
        res = tw_impute(work, r)
    else:
        res = em_impute(work, r, tol=tol, max_iter=max_iter)
    if method in REESTIMATED:
        res = reestimate(work, res)
    return replace(res, transform=record)


def completed_in_original_units(result: ImputationResult,
                                panel: PanelMatrix) -> np.ndarray:
    """Completed matrix mapped back to the units of ``panel``.

    Observed cells are copied from ``panel`` verbatim so no transform
    round-off touches them.
    """
    if panel.mask.shape != result.mask.shape or not (panel.mask == result.mask).all():
        raise DataValidationError("panel does not match the imputation result")
    out = result.transform.invert_values(result.X_completed)
    out[panel.mask] = panel.values[panel.mask]
    return out


# ---------------------------------------------------------------------------
# Asymptotic intervals
# ---------------------------------------------------------------------------


def _z_quantile(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise DataValidationError(f"level must be in (0,1), got {level}")
    return float(ndtri(0.5 * (1.0 + level)))


def _checked_solve(G: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    w = np.linalg.eigvalsh(G)
    if w[0] <= _MOMENT_RTOL * max(1.0, float(w[-1])):
        raise SingularMoment(f"{what} moment matrix is numerically singular")
    return np.linalg.solve(G, rhs)


def _check_indices(result: ImputationResult, i: int, t: int) -> None:
    T, N = result.C.shape
    if not (0 <= t < T and 0 <= i < N):
        raise DataValidationError(
            f"cell (t={t}, i={i}) outside panel of shape ({T}, {N})"
        )


def _score_variance(Z: np.ndarray, e_sq: np.ndarray) -> np.ndarray:
    # (1/n) sum_k z_k z_k' e_k^2 for rows z_k of Z
    n = Z.shape[0]
    return (Z * e_sq[:, None]).T @ Z / n


def _time_direction_var(result: ImputationResult, i: int, t: int) -> float:
    loc = result.locators
    J_i = loc.per_series[i]
    T_oi = int(loc.T_oi[i])
    F = result.fit.F
    F_oi = F[J_i]
    G_F = F_oi.T @ F_oi / T_oi
    Phi = _score_variance(F_oi, result.e[J_i, i] ** 2)
    b = _checked_solve(G_F, F[t], "factor")
    return float(b @ Phi @ b) / T_oi


def _cc_var_first_pass(result: ImputationResult, i: int, t: int) -> float:
    loc = result.locators
    tall = loc.tall_series
    N_o = loc.N_o
    Lam = result.fit.Lambda
    Lam_o = Lam[tall]
    G_lam = Lam_o.T @ Lam_o / N_o
    Gamma = _score_variance(Lam_o, result.e[t, tall] ** 2)
    a = _checked_solve(G_lam, Lam[i], "loading")
    return float(a @ Gamma @ a) / N_o + _time_direction_var(result, i, t)


def _gamma_star(result: ImputationResult, t: int) -> np.ndarray:
    """Cross-section score variance at t with re-estimation inflation."""
    loc = result.locators
    Lam = result.fit.Lambda
    r = Lam.shape[1]
    N = Lam.shape[0]
    N_ot = int(loc.N_ot[t])
    tall = loc.tall_series
    ratio = N_ot / N
    e_t = result.e[t]
    S_tall = (Lam[tall] * (e_t[tall] ** 2)[:, None]).T @ Lam[tall]
    J_t = loc.per_time[t]
    non_tall = np.setdiff1d(J_t, tall, assume_unique=True)
    if N_ot == N:
        # no series is missing at t, so the inflation matrices are exactly
        # the identity for every observed series
        B_tall = np.eye(r)
    else:
        out = np.setdiff1d(np.arange(N), J_t, assume_unique=True)
        G_tall = Lam[tall].T @ Lam[tall] / loc.N_o
        S_out = Lam[out].T @ Lam[out]
        A_t = _checked_solve(G_tall, (S_out / loc.N_o).T, "tall-block loading").T
        B_tall = ratio * (np.eye(r) + A_t)
    S_non = (Lam[non_tall] * (e_t[non_tall] ** 2)[:, None]).T @ Lam[non_tall]
    return (B_tall @ S_tall @ B_tall.T + ratio * ratio * S_non) / N_ot


def _cc_var_reestimated(result: ImputationResult, i: int, t: int) -> float:
    loc = result.locators
    Lam = result.fit.Lambda
    N = Lam.shape[0]
    N_ot = int(loc.N_ot[t])
    G_all = Lam.T @ Lam / N
    Gamma = _gamma_star(result, t)
    a = _checked_solve(G_all, Lam[i], "loading")
    return float(a @ Gamma @ a) / N_ot + _time_direction_var(result, i, t)


def _build_interval(result: ImputationResult, i: int, t: int, var_c: float,
                    level: float, kind: str, sigma2: float = 0.0) -> IntervalEstimate:
    z = _z_quantile(level)
    scale = result.transform.scale_for(i)
    center = result.C[t, i] * scale + result.transform.shift_for(i)
    se = float(np.sqrt(max(var_c + sigma2, 0.0))) * scale
    return IntervalEstimate(center=float(center), se=se, lower=float(center - z * se),
                            upper=float(center + z * se), level=level, kind=kind)


def cc_interval_first_pass(result: ImputationResult, i: int, t: int,
                           level: float = 0.95) -> IntervalEstimate:
    """Confidence interval for the common component under a TP or TW fit.

    The variance combines a cross-section term of order 1/N_o and a
    time-series term of order 1/T_oi, both plug-in estimates robust to
    heteroskedasticity (no serial or cross-sectional correlation kernel).
    Reported in pre-transform units.
    """
    if result.method not in FIRST_PASS:
        raise DataValidationError(
            f"first-pass interval needs a TP or TW result, got {result.method}"
        )
    _check_indices(result, i, t)
    var_c = _cc_var_first_pass(result, i, t)
    return _build_interval(result, i, t, var_c, level, "confidence_C")


def cc_interval_reestimated(result: ImputationResult, i: int, t: int,
                            level: float = 0.95) -> IntervalEstimate:
    """Confidence interval for the common component under a TP_PLUS or
    TW_PLUS fit; the cross-section term improves to order 1/N_ot and picks
    up the re-estimation inflation matrices."""
    if result.method not in REESTIMATED:
        raise DataValidationError(
            f"re-estimated interval needs a TP_PLUS or TW_PLUS result, "
            f"got {result.method}"
        )
    _check_indices(result, i, t)
    var_c = _cc_var_reestimated(result, i, t)
    return _build_interval(result, i, t, var_c, level, "confidence_C")


def prediction_interval(result: ImputationResult, i: int, t: int,
                        level: float = 0.95) -> IntervalEstimate:
    """Prediction interval for a missing observation: the common-component
    variance plus the series' idiosyncratic variance estimate."""
    _check_indices(result, i, t)
    if result.mask[t, i]:
        raise CellObserved(t, i)
    if result.method in FIRST_PASS:
        var_c = _cc_var_first_pass(result, i, t)
    elif result.method in REESTIMATED:
        var_c = _cc_var_reestimated(result, i, t)
    else:
        raise DataValidationError(
            "prediction intervals are not available for EM fits"
        )
    loc = result.locators
    J_i = loc.per_series[i]
    sigma2 = float(np.mean(result.e[J_i, i] ** 2))
    return _build_interval(result, i, t, var_c, level, "prediction_X",
                           sigma2=sigma2)


def prediction_se_matrix(result: ImputationResult) -> np.ndarray:
    """Prediction standard errors for all missing cells at once.

    Returns a T x N matrix in pre-transform units with NaN at observed
    cells; entry (t, i) matches prediction_interval(result, i, t).se.
    """
    comps = inference_components(result)
    loc = result.locators
    F = result.fit.F
    Lam = result.fit.Lambda
    T, N = result.e.shape
    if result.method in FIRST_PASS:
        G = comps.Sigma_Lambda_inv_terms["tall"]
        denom_cs = np.full(T, float(loc.N_o))
    else:
        G = comps.Sigma_Lambda_inv_terms["all"]
        denom_cs = loc.N_ot.astype(np.float64)
    a = _checked_solve(G, Lam.T, "loading").T  # N x r
    A_part = np.einsum("tkl,ik,il->ti", comps.Gamma_t, a, a,
                       optimize=True) / denom_cs[:, None]
    G_F = np.einsum("tk,tl,ti->ikl", F, F,
                    result.mask.astype(np.float64), optimize=True)
    G_F /= loc.T_oi[:, None, None]
    w = np.linalg.eigvalsh(G_F)
    if (w[:, 0] <= _MOMENT_RTOL * np.maximum(1.0, w[:, -1])).any():
        raise SingularMoment("a per-series factor moment matrix is singular")
    M = np.linalg.solve(G_F, np.linalg.solve(G_F, comps.Phi_i)
                        .transpose(0, 2, 1))
    B_part = np.einsum("ikl,tk,tl->ti", M, F, F,
                       optimize=True) / loc.T_oi[None, :]
    var = A_part + B_part + comps.sigma2_e[None, :]
    se = np.sqrt(np.maximum(var, 0.0)) * result.transform.stds[None, :]
    se[result.mask] = np.nan
    return se


def inference_components(result: ImputationResult) -> InferenceComponents:
    """All interval ingredients at once (used for bulk interval output and
    invariant checks); Gamma_t is the starred variant for re-estimated fits."""
    if result.method not in FIRST_PASS + REESTIMATED:
        raise DataValidationError(
            f"no distribution theory for method {result.method}"
        )
    loc = result.locators
    Lam = result.fit.Lambda
    F = result.fit.F
    e = result.e
    T, N = e.shape
    r = Lam.shape[1]
    tall = loc.tall_series
    Lam_o = Lam[tall]
    G_tall = Lam_o.T @ Lam_o / loc.N_o
    G_all = Lam.T @ Lam / N
    sigma2 = np.array([float(np.mean(e[loc.per_series[i], i] ** 2))
                       for i in range(N)])
    Phi = np.einsum("tk,tl,ti->ikl", F, F, e * e, optimize=True)
    Phi /= loc.T_oi[:, None, None]
    B = np.empty((T, 2, r, r))
    if result.method in FIRST_PASS:
        e_sq_tall = e[:, tall] ** 2
        Gamma = np.einsum("ik,il,ti->tkl", Lam_o, Lam_o, e_sq_tall,
                          optimize=True) / loc.N_o
        B[:] = np.eye(r)
    else:
        Gamma = np.empty((T, r, r))
        for t in range(T):
            Gamma[t] = _gamma_star(result, t)
            N_ot = int(loc.N_ot[t])
            ratio = N_ot / N
            if N_ot == N:
                B[t, 0] = np.eye(r)
            else:
                out = np.setdiff1d(np.arange(N), loc.per_time[t],
                                   assume_unique=True)
                S_out = Lam[out].T @ Lam[out]
                A_t = _checked_solve(G_tall, (S_out / loc.N_o).T,
                                     "tall-block loading").T
                B[t, 0] = ratio * (np.eye(r) + A_t)
            B[t, 1] = ratio * np.eye(r)
    return InferenceComponents(
        Sigma_Lambda_inv_terms={"tall": G_tall, "all": G_all},
        Gamma_t=Gamma,
        Phi_i=Phi,
        B_ti=B,
        sigma2_e=sigma2,
    )
