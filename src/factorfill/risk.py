"""Portfolio risk measures computed from covariance estimates and from
realized returns: volatility, Gaussian value-at-risk, Black-Scholes call
prices, and the variance/covariance summaries for incomplete series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .covariance import CovEstimate, sample_cov
from .errors import (
    DataValidationError,
    NegativeQuadraticForm,
    SingularCovariance,
)

# Periods per year by sampling frequency, for annualizing variances.
FREQUENCIES = {"daily": 252, "weekly": 52, "monthly": 12, "quarterly": 4,
               "annual": 1}

_PD_TOL = 1e-10


@dataclass(frozen=True)
class RiskReport:
    """One set of risk measures; truth carries the companion values
    computed from realized returns when available."""

    pvol: float
    pvar: float
    call_prices: np.ndarray
    variances: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray
    truth: "RiskReport | None" = None

    def to_json_dict(self) -> dict:
        out = {
            "pvol": self.pvol,
            "pvar": self.pvar,
            "call_prices": [float(v) for v in self.call_prices],
            "variances": [float(v) for v in self.variances],
            "covariances": [float(v) for v in self.covariances],
            "weights": [float(v) for v in self.weights],
        }
        if self.truth is not None:
            out["truth"] = self.truth.to_json_dict()
        return out


def min_variance_weights(cov: CovEstimate) -> np.ndarray:
    """w = Sigma^-1 1 / (1' Sigma^-1 1); requires a positive definite input."""
    M = 0.5 * (cov.matrix + cov.matrix.T)
    w_eig = np.linalg.eigvalsh(M)
    if w_eig[0] <= _PD_TOL:
        raise SingularCovariance(
            f"covariance not positive definite (min eigenvalue {w_eig[0]:.3e})"
        )
    ones = np.ones(M.shape[0])
    sol = np.linalg.solve(M, ones)
    return sol / (ones @ sol)


def portfolio_volatility_realized(returns: np.ndarray, weights: np.ndarray) -> float:
    """Population (1/T) standard deviation of the realized portfolio return."""
    returns = np.asarray(returns, dtype=np.float64)
    rp = returns @ np.asarray(weights, dtype=np.float64)
    return float(rp.std(ddof=0))


def portfolio_volatility_model(cov: CovEstimate, weights: np.ndarray) -> float:
    """Model-implied volatility sqrt(w' Sigma w)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != cov.N:
        raise DataValidationError(
            f"weights length {w.shape[0]} != covariance size {cov.N}"
        )
    q = float(w @ cov.matrix @ w)
    if q < 0.0:
        raise NegativeQuadraticForm(
            f"w'Sigma w = {q:.3e} < 0 (indefinite covariance estimate)"
        )
    return math.sqrt(q)


def value_at_risk(pvol: float, mean: float = 0.0, alpha: float = 0.95) -> float:
    """Gaussian VaR quoted as a loss: z_alpha * pvol - mean."""
    if not 0.0 < alpha < 1.0:
        raise DataValidationError(f"alpha must be in (0,1), got {alpha}")
    if pvol < 0.0:
        raise DataValidationError("pvol must be nonnegative")
    return NormalDist().inv_cdf(alpha) * pvol - mean


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes_call(sigma: float, S0: float = 1.0, K: float = 1.0,
                       r: float = 0.02, tau: float = 1.0) -> float:
    """European call under Black-Scholes; sigma is the annualized vol.

    Defaults: one-dollar spot and strike, 2% rate, one year to maturity.
    sigma = 0 returns the deterministic limit max(S0 - K e^{-r tau}, 0).
    """
    if sigma < 0.0 or S0 <= 0.0 or K <= 0.0 or tau <= 0.0:
        raise DataValidationError("need sigma >= 0, S0 > 0, K > 0, tau > 0")
    disc = K * math.exp(-r * tau)
    if sigma == 0.0:
        return max(S0 - disc, 0.0)
    sq = sigma * math.sqrt(tau)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma * sigma) * tau) / sq
    d2 = d1 - sq
    return S0 * _norm_cdf(d1) - disc * _norm_cdf(d2)


def annualized_vol(variance: float, frequency: str = "monthly") -> float:
    if frequency not in FREQUENCIES:
        raise DataValidationError(
            f"unknown frequency {frequency!r}; expected {sorted(FREQUENCIES)}"
        )
    if variance < 0.0:
        raise NegativeQuadraticForm(
            f"negative variance estimate {variance:.3e}"
        )
    return math.sqrt(FREQUENCIES[frequency] * variance)


def covariance_pairs(N: int, incomplete_series) -> list:
    """The scored pair set: (complete, incomplete) then (incomplete,
    incomplete) with i < j, each group in ascending index order."""
    inc = sorted(int(i) for i in incomplete_series)
    inc_set = set(inc)
    comp = [i for i in range(N) if i not in inc_set]
    pairs = [(o, m) for m in inc for o in comp]
    pairs.extend((a, b) for k, a in enumerate(inc) for b in inc[k + 1:])
    return pairs


def _measures(matrix: np.ndarray, incomplete, pairs, alpha: float,
              frequency: str, weights: np.ndarray):
    N = matrix.shape[0]
    q = float(weights @ matrix @ weights)
    if q < 0.0:
        raise NegativeQuadraticForm("equal-weight portfolio variance negative")
    pvol = math.sqrt(q)
    pvar = value_at_risk(pvol, 0.0, alpha)
    variances = np.array([matrix[i, i] for i in incomplete])
    calls = np.array([
        black_scholes_call(annualized_vol(max(v, 0.0), frequency))
        for v in variances
    ])
    covs = np.array([matrix[a, b] for a, b in pairs]) if pairs else np.empty(0)
    return pvol, pvar, calls, variances, covs


def risk_report(cov: CovEstimate, true_returns: np.ndarray | None,
                incomplete_series, alpha: float = 0.95,
                frequency: str = "monthly") -> RiskReport:
    """Equal-weight portfolio volatility and VaR from the estimate, plus
    call prices / variances for the incomplete series and covariances for
    the (complete, incomplete) and (incomplete, incomplete) pairs.

    When ``true_returns`` is given, the same measures are computed from the
    realized sample covariance (with an empirical-quantile VaR) and attached
    as ``truth`` for bias/RMSE scoring.
    """
    N = cov.N
    incomplete = sorted(int(i) for i in incomplete_series)
    if incomplete and not (0 <= incomplete[0] and incomplete[-1] < N):
        raise DataValidationError("incomplete series index out of range")
    pairs = covariance_pairs(N, incomplete)
    w_eq = np.full(N, 1.0 / N)
    pvol, pvar, calls, variances, covs = _measures(
        cov.matrix, incomplete, pairs, alpha, frequency, w_eq
    )
    truth = None
    if true_returns is not None:
        true_returns = np.asarray(true_returns, dtype=np.float64)
        if true_returns.shape[1] != N:
            raise DataValidationError(
                f"true_returns width {true_returns.shape[1]} != {N}"
            )
        true_cov = sample_cov(true_returns).matrix
        t_pvol, _, t_calls, t_vars, t_covs = _measures(
            true_cov, incomplete, pairs, alpha, frequency, w_eq
        )
        rp = true_returns @ w_eq
        rp = rp - rp.mean()
        t_pvar = -float(np.quantile(rp, 1.0 - alpha))
        truth = RiskReport(t_pvol, t_pvar, t_calls, t_vars, t_covs, w_eq)
    return RiskReport(pvol, pvar, calls, variances, covs, w_eq, truth=truth)
