"""Covariance estimation from completed panels.

Estimators: plain sample moments on a completed matrix (SM0 / SM_PLUS0),
pairwise-complete moments (may be indefinite), strict-factor (SF) and
strict-factor-adjusted (SFA) plug-ins, and the residual-overlay family
SM1..SM4 that refills the zeroed missing-cell residuals with resampled or
simulated draws before averaging S sample covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataValidationError,
    EmptyResidualPool,
    InsufficientOverlap,
    SchemeUnavailable,
    SeriesTooShort,
)
from .impute import FIRST_PASS, REESTIMATED, ImputationResult
from .panel import PanelMatrix, StandardizationRecord

SCHEMES = ("SM1", "SM2", "SM3", "SM4")


@dataclass(frozen=True)
class CovEstimate:
    """N x N covariance estimate tagged with its construction."""

    matrix: np.ndarray
    method: str
    S: int = 0
    seed: int | None = None

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DataValidationError(f"covariance must be square, got {M.shape}")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def N(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OverlayConfig:
    """Residual-overlay settings: scheme in SM1..SM4, S draws, RNG seed."""

    scheme: str
    S: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SchemeUnavailable(self.scheme)
        if self.S < 1:
            raise DataValidationError(f"S must be >= 1, got {self.S}")


def _demeaned_gram(X: np.ndarray) -> np.ndarray:
    T = X.shape[0]
    Xc = X - X.mean(axis=0)
    M = Xc.T @ Xc / T
    return 0.5 * (M + M.T)


def sample_cov(X: np.ndarray) -> CovEstimate:
    """(1/T) X_c'X_c with column-demeaned X_c; the SM0 estimator."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataValidationError("sample_cov needs a 2-d matrix with T >= 2")
    return CovEstimate(_demeaned_gram(X), "SM0")


def completed_sample_cov(result: ImputationResult) -> CovEstimate:
    """Sample covariance of the completed matrix, labeled SM0 or SM_PLUS0."""
    label = "SM_PLUS0" if result.method in REESTIMATED else "SM0"
    return CovEstimate(_demeaned_gram(result.X_completed), label)


def pairwise_cov(panel: PanelMatrix) -> CovEstimate:
    """Entry (i, j) from the periods where both series are observed, with
    pair-specific means and the overlap count as denominator.

    Collapses to sample_cov exactly on complete panels.  The result can be
    indefinite; check min_eigenvalue before inverting.
    """
    if panel.is_complete:
        return CovEstimate(_demeaned_gram(panel.values), "PAIRWISE")
    X0 = panel.filled(0.0)
    M = panel.mask.astype(np.float64)
    counts = M.T @ M
    if (counts < 2).any():
        i, j = np.unravel_index(int(np.argmin(counts)), counts.shape)
        raise InsufficientOverlap(int(i), int(j), int(counts[i, j]))
    Sx = X0.T @ M  # Sx[i, j] = sum over overlap(i, j) of x_it
    cov = (X0.T @ X0) / counts - (Sx / counts) * (Sx.T / counts)
    return CovEstimate(0.5 * (cov + cov.T), "PAIRWISE")


def _strict_factor_cov(result: ImputationResult, resid_var: np.ndarray,
                       label: str) -> CovEstimate:
    F = result.fit.F
    Lam = result.fit.Lambda
    Sigma_F = F.T @ F / F.shape[0]
    M = Lam @ Sigma_F @ Lam.T
    M = 0.5 * (M + M.T)
    M[np.diag_indices_from(M)] += resid_var
    if result.method in REESTIMATED:
        label += "_PLUS"
    return CovEstimate(M, label)


def sf_cov(result: ImputationResult) -> CovEstimate:
    """Strict-factor estimator Lam (F'F/T) Lam' + diag((1/T) sum e^2)."""
    e = result.e
    return _strict_factor_cov(result, np.sum(e * e, axis=0) / e.shape[0], "SF")


def sfa_cov(result: ImputationResult) -> CovEstimate:
    """Strict-factor estimator with residual variances over observed cells
    only: diag entries use the 1/T_oi denominator, so imputed zeros do not
    dilute the idiosyncratic variance."""
    T_oi = result.locators.T_oi
    short = np.flatnonzero(T_oi < 2)
    if short.size:
        i = int(short[0])
        raise SeriesTooShort(i, int(T_oi[i]))
    e = result.e
    return _strict_factor_cov(result, np.sum(e * e, axis=0) / T_oi, "SFA")


# ---------------------------------------------------------------------------
# Residual overlay
# ---------------------------------------------------------------------------


def _overlay_label(result: ImputationResult, scheme: str) -> str:
    j = scheme[-1]
    return f"SM_PLUS{j}" if result.method in REESTIMATED else f"SM{j}"


def _missing_cells(mask: np.ndarray):
    # Fill order: series ascending, then time ascending within a series.
    miss_i, miss_t = np.nonzero(~mask.T)
    return miss_t.astype(np.int64), miss_i.astype(np.int64)


def _scheme_state(result: ImputationResult, scheme: str, cols: np.ndarray):
    """Precompute pools / sigmas for the series that need filling."""
    e = result.e
    mask = result.mask
    loc = result.locators
    need = np.unique(cols)
    state = {"need": need}
    if scheme == "SM1":
        pool = e[mask]
        if pool.size == 0:
            raise EmptyResidualPool()
        state["pool"] = pool
    elif scheme == "SM2":
        pools = {}
        for i in need:
            p = e[mask[:, i], i]
            if p.size == 0:
                raise EmptyResidualPool(int(i))
            pools[int(i)] = p
        state["pools"] = pools
    elif scheme == "SM3":
        pool = e[mask]
        if pool.size < 2:
            raise EmptyResidualPool()
        state["sigma"] = float(pool.std(ddof=1))
    else:  # SM4
        sigmas = {}
        for i in need:
            t_oi = int(loc.T_oi[i])
            if t_oi < 2:
                raise SeriesTooShort(int(i), t_oi)
            sigmas[int(i)] = float(e[mask[:, i], i].std(ddof=1))
        state["sigmas"] = sigmas
    return state


def _draw_fills(rng: np.random.Generator, scheme: str, state: dict,
                cols: np.ndarray, n: int) -> np.ndarray:
    if scheme == "SM1":
        pool = state["pool"]
        return pool[rng.integers(0, pool.size, n)]
    if scheme == "SM3":
        return rng.standard_normal(n) * state["sigma"]
    # Per-series draws, series visited in ascending order; cols is sorted.
    draws = np.empty(n)
    bounds = np.searchsorted(cols, state["need"], side="left")
    bounds = np.append(bounds, n)
    for k, i in enumerate(state["need"]):
        lo, hi = bounds[k], bounds[k + 1]
        m = hi - lo
        if scheme == "SM2":
            p = state["pools"][int(i)]
            draws[lo:hi] = p[rng.integers(0, p.size, m)]
        else:
            draws[lo:hi] = rng.standard_normal(m) * state["sigmas"][int(i)]
    return draws


def _draw_rng(seed: int, s: int) -> np.random.Generator:
    # Counter-based generator, one substream per overlay draw; the fill
    # order within a draw is fixed, so results do not depend on scheduling.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
    )


def overlay_draw_covs(result: ImputationResult, config: OverlayConfig):
    """Yield the S per-draw covariances behind :func:`overlay_cov`.

    Each draw refills the missing-cell residuals by the configured scheme,
    forms C + e_filled, demeans columns, and takes the (1/T) covariance.
    """
    if result.method not in FIRST_PASS + REESTIMATED:
        raise DataValidationError(
            f"overlay needs a TP/TW or re-estimated result, got {result.method}"
        )
    rows, cols = _missing_cells(result.mask)
    state = _scheme_state(result, config.scheme, cols)
    n = rows.size
    C = result.C
    e = result.e
    for s in range(config.S):
        rng = _draw_rng(config.seed, s)
        draws = _draw_fills(rng, config.scheme, state, cols, n)
        e_filled = e.copy()
        e_filled[rows, cols] = draws
        yield _demeaned_gram(C + e_filled)


class _PairwiseMean:
    """Order-fixed pairwise averaging with log2(S) working memory."""

    def __init__(self):
        self.levels = []
        self.count = 0

    def add(self, M: np.ndarray) -> None:
        self.count += 1
        carry = M
        for i in range(len(self.levels)):
            if self.levels[i] is None:
                self.levels[i] = carry
                return
            carry = self.levels[i] + carry
            self.levels[i] = None
        self.levels.append(carry)

    def mean(self) -> np.ndarray:
        total = None
        for lv in self.levels:
            if lv is not None:
                total = lv if total is None else total + lv
        if total is None:
            raise DataValidationError("no terms accumulated")
        return total / self.count


def overlay_cov(result: ImputationResult, config: OverlayConfig) -> CovEstimate:
    """Average of S sample covariances of the residual-overlaid matrix.

    On a complete panel there is nothing to fill and every scheme returns
    the plain sample covariance exactly.  With a fixed seed the output is
    bit-reproducible; the per-draw substreams make it independent of
    execution order.
    """
    label = _overlay_label(result, config.scheme)
    if result.mask.all():
        return CovEstimate(_demeaned_gram(result.X_completed), label,
                           S=config.S, seed=config.seed)
    acc = _PairwiseMean()
    for M in overlay_draw_covs(result, config):
        acc.add(M)
    return CovEstimate(acc.mean(), label, S=config.S, seed=config.seed)


def min_eigenvalue(cov: CovEstimate) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    M = 0.5 * (cov.matrix + cov.matrix.T)
    return float(np.linalg.eigvalsh(M)[0])


def rescale_cov(cov: CovEstimate, record: StandardizationRecord) -> CovEstimate:
    """Map a covariance of transformed data back to original units
    (Sigma -> D Sigma D with D = diag of the recorded stds)."""
    d = record.stds
    return CovEstimate(cov.matrix * d[:, None] * d[None, :], cov.method,
                       S=cov.S, seed=cov.seed)
