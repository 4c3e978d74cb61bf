"""Principal-components factor estimation on a complete matrix.

Given a T x N matrix X, estimate a rank-r factor model X ~ F Lam' from the
r leading singular triplets of Z = X / sqrt(N T).  Factors are normalized so
F'F / T = I_r and loadings so Lam'Lam is diagonal with non-increasing
diagonal.

Only r triplets are needed, so they are taken from the Gram matrix on the
smaller side (Z Z' when T <= N, else Z'Z): its top r eigenvectors W span the
leading singular subspace of that side.  A Rayleigh-Ritz step -- the thin
SVD of the projection of Z onto W, an r-column matrix -- then yields the
singular values, the other side's vectors and the rotation of W.  The
singular values come from that small SVD, not from square roots of Gram
eigenvalues, so they are accurate to roundoff relative to the largest one
even when the data have rank below r.

Every step runs in numpy's BLAS.  scipy bundles a second BLAS with its own
worker threads; alternating between the two under default multi-threading
made a subset eigensolver from scipy slower than the full SVD it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankTooLarge, SvdFailure


@dataclass(frozen=True)
class FactorModelFit:
    """Rank-r factor decomposition of a T x N matrix.

    F      -- T x r factors, F'F / T = I_r
    Lambda -- N x r loadings, Lambda'Lambda diagonal, non-increasing
    D2     -- length-r squared singular values of X / sqrt(N T), descending
    """

    F: np.ndarray
    Lambda: np.ndarray
    D2: np.ndarray

    @property
    def r(self) -> int:
        return self.F.shape[1]


def _fix_signs(U: np.ndarray, V: np.ndarray) -> None:
    # Column sign convention: largest-magnitude loading entry positive.
    # Ties resolve to the smallest row index via argmax.
    for k in range(U.shape[1]):
        j = int(np.argmax(np.abs(V[:, k])))
        if V[j, k] < 0.0:
            U[:, k] = -U[:, k]
            V[:, k] = -V[:, k]


def apc(X: np.ndarray, r: int) -> FactorModelFit:
    """Estimate r factors and loadings from a complete T x N matrix."""
    X = np.asarray(X, dtype=np.float64)
    T, N = X.shape
    m = min(T, N)
    if not 1 <= r <= m:
        raise RankTooLarge(r, m)
    Z = X / np.sqrt(N * T)
    wide = T <= N
    G = Z @ Z.T if wide else Z.T @ Z
    if not np.isfinite(G).all():
        raise SvdFailure("non-finite entries in the Gram matrix "
                         "(non-finite input or overflow)")
    try:
        W = np.linalg.eigh(G)[1][:, m - r:]
        P, d, Qt = np.linalg.svd(Z.T @ W if wide else Z @ W,
                                 full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - BLAS-dependent
        raise SvdFailure(str(exc)) from exc
    WQ = W @ Qt.T
    U, V = (WQ, P) if wide else (P, WQ)
    _fix_signs(U, V)
    F = np.sqrt(T) * U
    Lam = np.sqrt(N) * V * d
    return FactorModelFit(F=F, Lambda=Lam, D2=d * d)


def common_component(fit: FactorModelFit) -> np.ndarray:
    """Fitted common component F Lambda', the best rank-r approximation."""
    return fit.F @ fit.Lambda.T
