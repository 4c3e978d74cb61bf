import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorfill import FactorModelFit, apc, common_component
from factorfill.errors import RankTooLarge, SvdFailure

# fixed 4x3 matrix for hand oracles
X43 = np.array([
    [2.0, -1.0, 0.5],
    [1.0, 3.0, -2.0],
    [-1.5, 0.5, 1.0],
    [0.5, 2.0, 2.5],
])


def _eigs_by_charpoly(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix via np.roots, an
    arithmetic path independent of any SVD routine."""
    coeffs = np.poly(M)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestAgainstOracles:
    def test_scale_matches_charpoly_eigenvalues(self):
        T, N = X43.shape
        fit = apc(X43, r=3)
        Z = X43 / np.sqrt(N * T)
        lam = _eigs_by_charpoly(Z.T @ Z)
        assert fit.D2 == pytest.approx(lam, rel=1e-10)

    def test_loading_gram_is_diagonal_of_scaled_eigs(self):
        T, N = X43.shape
        fit = apc(X43, r=2)
        gram = fit.Lambda.T @ fit.Lambda
        lam = _eigs_by_charpoly((X43 / np.sqrt(N * T)).T @ X43)
        # Lambda = sqrt(N) V d, so Lambda'Lambda = N diag(d^2)
        assert np.allclose(gram, np.diag(N * fit.D2), atol=1e-10)
        assert fit.D2 == pytest.approx(lam[:2] / np.sqrt(N * T), rel=1e-9)

    def test_best_rank_r_approximation(self, rng):
        X = rng.standard_normal((20, 12))
        fit = apc(X, r=3)
        C = common_component(fit)
        base = np.linalg.norm(X - C)
        for _ in range(25):
            A = rng.standard_normal((20, 3))
            B = rng.standard_normal((12, 3))
            # refine the random candidate by one least squares sweep
            B = np.linalg.lstsq(A, X, rcond=None)[0].T
            assert base <= np.linalg.norm(X - A @ B.T) + 1e-9

    def test_residual_orthogonality(self, rng):
        X = rng.standard_normal((15, 10))
        fit = apc(X, r=2)
        resid = X - common_component(fit)
        assert np.allclose(fit.F.T @ resid, 0.0, atol=1e-9)
        assert np.allclose(resid @ fit.Lambda, 0.0, atol=1e-9)


class TestNormalization:
    def test_factor_gram_identity(self, rng):
        X = rng.standard_normal((30, 8))
        fit = apc(X, r=4)
        assert np.allclose(fit.F.T @ fit.F / 30, np.eye(4), atol=1e-12)

    def test_d2_descending_positive(self, rng):
        X = rng.standard_normal((30, 8))
        fit = apc(X, r=4)
        assert np.all(np.diff(fit.D2) <= 1e-15)
        assert np.all(fit.D2 > 0)

    def test_sign_convention(self, rng):
        X = rng.standard_normal((25, 9))
        fit = apc(X, r=3)
        N = 9
        V = fit.Lambda / (np.sqrt(N) * np.sqrt(fit.D2))
        for k in range(3):
            assert V[np.argmax(np.abs(V[:, k])), k] > 0

    def test_sign_deterministic_under_flip(self, rng):
        X = rng.standard_normal((25, 9))
        f1 = apc(X, r=2)
        f2 = apc(np.ascontiguousarray(X), r=2)
        assert np.array_equal(f1.F, f2.F)
        assert np.array_equal(f1.Lambda, f2.Lambda)

    def test_r_property(self, rng):
        X = rng.standard_normal((10, 6))
        fit = apc(X, r=2)
        assert isinstance(fit, FactorModelFit) and fit.r == 2
        assert fit.F.shape == (10, 2) and fit.Lambda.shape == (6, 2)


class TestRecovery:
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_noiseless_exact(self, r, rng):
        F = rng.standard_normal((40, r))
        Lam = rng.standard_normal((18, r))
        X = F @ Lam.T
        fit = apc(X, r=r)
        assert np.allclose(common_component(fit), X, atol=1e-10)

    def test_reconstruction_invariant_to_column_scaling_of_rank(self, rng):
        # common component does not depend on the rotation convention
        F = rng.standard_normal((30, 2))
        Lam = rng.standard_normal((12, 2))
        X = F @ Lam.T + 0.01 * rng.standard_normal((30, 12))
        C1 = common_component(apc(X, r=2))
        C2 = common_component(apc(-X, r=2))
        assert np.allclose(C1, -C2, atol=1e-12)


class TestErrors:
    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            apc(np.ones((4, 3)), r=4)
        with pytest.raises(RankTooLarge):
            apc(np.ones((4, 3)), r=0)

    def test_nonfinite_input(self):
        X = np.ones((5, 4))
        X[2, 2] = np.nan
        with pytest.raises(SvdFailure):
            apc(X, r=1)

    def test_gram_overflow(self):
        # the Gram squares magnitudes; overflow is a numerical failure
        with np.errstate(over="ignore"), pytest.raises(SvdFailure):
            apc(np.full((5, 4), 1e200), r=1)


@st.composite
def _shapes(draw):
    """T x N with T < N, T = N or T > N, and r in 1..min(T, N)."""
    m = draw(st.integers(1, 30))
    extra = draw(st.integers(1, 30))
    T, N = draw(st.sampled_from([(m, m + extra), (m, m), (m + extra, m)]))
    r = draw(st.integers(1, m))
    seed = draw(st.integers(0, 2**32 - 1))
    return T, N, r, np.random.default_rng(seed)


def _svd_reference(X, r):
    T, N = X.shape
    U, d, Vt = np.linalg.svd(X / np.sqrt(N * T), full_matrices=False)
    return d[:r] ** 2, (U[:, :r] * d[:r]) @ Vt[:r] * np.sqrt(N * T)


class TestAgainstFullSvd:
    """The Gram eigensolver against the full thin SVD it replaces."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_shapes())
    def test_matches_svd_and_normalization(self, case):
        T, N, r, g = case
        X = g.standard_normal((T, N)) * g.uniform(0.1, 10.0)
        fit = apc(X, r)
        D2, C_ref = _svd_reference(X, r)
        tol = 1e-10 * D2[0]
        assert fit.F.shape == (T, r) and fit.Lambda.shape == (N, r)
        assert np.all(np.abs(fit.D2 - D2) <= tol)
        assert (np.linalg.norm(common_component(fit) - C_ref)
                <= 1e-10 * np.linalg.norm(C_ref))
        assert np.allclose(fit.F.T @ fit.F / T, np.eye(r), atol=1e-12)
        gram = fit.Lambda.T @ fit.Lambda
        assert np.allclose(gram, np.diag(N * fit.D2), rtol=0.0,
                           atol=1e-12 * N * fit.D2[0])
        assert np.all(np.diff(fit.D2) <= 0.0)
        for k in range(r):
            col = fit.Lambda[:, k]
            assert col[np.argmax(np.abs(col))] > 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_shapes(), st.data())
    def test_rank_deficient_trailing_d2_at_roundoff(self, case, data):
        T, N, r, g = case
        if r < 2:
            r = min(2, T, N)
        rank = data.draw(st.integers(0, r - 1))
        X = (g.standard_normal((T, rank)) @ g.standard_normal((rank, N))
             if rank else np.zeros((T, N)))
        fit = apc(X, r)
        assert np.all(fit.D2 >= 0.0)
        if rank == 0:
            assert np.array_equal(fit.D2, np.zeros(r))
            return
        # d = sqrt(eigenvalue) would leave these near sqrt(eps) * d_1
        assert np.all(fit.D2[rank:] <= 1e-24 * fit.D2[0])
        assert np.allclose(fit.D2[:rank], _svd_reference(X, rank)[0],
                           rtol=1e-10)
        assert np.allclose(common_component(fit), X, rtol=0.0,
                           atol=1e-10 * np.abs(X).max())
