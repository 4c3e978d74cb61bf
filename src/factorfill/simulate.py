"""Data-generating processes, missing-data patterns, and the Monte Carlo
harness behind the reproduction studies.

Every stochastic object is driven by named substreams of a single master
seed, so reports are bit-identical across runs and across worker-thread
counts.  Replication b draws from spawn keys (0, b) for the panel, (1, b)
for noise, (2, b) for column subsampling, and (3, b) for overlay seeds;
fixed-factor designs use spawn key (0,) so the factor draw ignores b.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .covariance import (
    OverlayConfig,
    completed_sample_cov,
    overlay_cov,
    overlay_draw_covs,
    pairwise_cov,
    sample_cov,
    sf_cov,
    sfa_cov,
)
from .errors import (
    DataValidationError,
    FactorfillError,
    PatternDegeneratesPanel,
    RankTooLarge,
)
from .impute import (
    FIRST_PASS,
    cc_interval_first_pass,
    cc_interval_reestimated,
    impute_panel,
    reestimate,
    tp_impute,
    tw_impute,
)
from .io import read_mask_csv
from .panel import PanelMatrix
from .risk import risk_report

MEASURES = ("pvol", "pvar", "call", "var", "cov")


# ---------------------------------------------------------------------------
# Configs and data-generating processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicDgpConfig:
    """X = F Lam' + e with F ~ N(0, D_r), Lam ~ N(0, D_r), e ~ N(0, sigma2_e).

    diag(D_r) is equally spaced from 1 down to 1/r unless ``d_diag``
    overrides it.  With fixed_factors, F and Lam depend on the seed only
    (one panel geometry, fresh noise per replication).
    """

    T: int
    N: int
    r: int
    sigma2_e: float = 1.0
    seed: int = 0
    fixed_factors: bool = False
    d_diag: tuple | None = None

    def __post_init__(self):
        if not 1 <= self.r <= min(self.T, self.N):
            raise RankTooLarge(self.r, min(self.T, self.N))
        if self.sigma2_e < 0.0:
            raise DataValidationError("sigma2_e must be nonnegative")
        if self.d_diag is not None and len(self.d_diag) != self.r:
            raise DataValidationError("d_diag must have length r")


@dataclass(frozen=True)
class StrictFactorConfig:
    """Strict factor model calibrated to monthly equity returns.

    e_it ~ N(0, (1 - R2)/R2 * sum_q lambda_iq^2 * sigma2_F) so every series
    has population R-squared R2.  The default sigma2_F = 0.035^2 puts the
    average volatility near 9.6% (0.035 is the factor standard deviation).
    """

    T: int
    N_star: int
    r: int = 5
    R2: float = 0.6
    sigma2_F: float = 0.035 ** 2
    sigma2_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.R2 < 1.0:
            raise DataValidationError("R2 must be in (0,1)")
        if self.sigma2_F <= 0.0 or self.sigma2_lambda <= 0.0:
            raise DataValidationError("variances must be positive")


def _rng(seed, key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=key))


def gen_basic_dgp(config: BasicDgpConfig, rep: int = 0,
                  return_details: bool = False):
    """Draw one panel; returns (complete PanelMatrix, true C) and, when
    asked, the underlying draws for test oracles."""
    d = (np.linspace(1.0, 1.0 / config.r, config.r)
         if config.d_diag is None else np.asarray(config.d_diag, float))
    sd = np.sqrt(d)
    fkey = (0,) if config.fixed_factors else (0, rep)
    rng_f = _rng(config.seed, fkey)
    F = rng_f.standard_normal((config.T, config.r)) * sd
    Lam = rng_f.standard_normal((config.N, config.r)) * sd
    rng_e = _rng(config.seed, (1, rep))
    e = rng_e.standard_normal((config.T, config.N)) * np.sqrt(config.sigma2_e)
    C = F @ Lam.T
    panel = PanelMatrix.complete(C + e)
    if return_details:
        return panel, C, {"F": F, "Lam": Lam, "e": e}
    return panel, C


def gen_strict_factor_dgp(config: StrictFactorConfig, rep: int = 0,
                          return_details: bool = False):
    rng = _rng(config.seed, (0, rep))
    Lam = rng.standard_normal((config.N_star, config.r)) * np.sqrt(
        config.sigma2_lambda)
    F = rng.standard_normal((config.T, config.r)) * np.sqrt(config.sigma2_F)
    psi = (1.0 - config.R2) / config.R2 * (Lam * Lam).sum(axis=1) * config.sigma2_F
    e = rng.standard_normal((config.T, config.N_star)) * np.sqrt(psi)[None, :]
    C = F @ Lam.T
    panel = PanelMatrix.complete(C + e)
    if return_details:
        return panel, C, {"F": F, "Lam": Lam, "psi": psi, "e": e}
    return panel, C


# ---------------------------------------------------------------------------
# Missing patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SouthWestBlock:
    """Tapered staircase of missing tails in the last round(col_frac*N)
    columns: the first affected column loses the last round(row_frac*T)
    rows, thinning linearly to taper*row_frac*T at the last column.

    The average coverage of the corner is (1 + taper)/2, so the missing
    share is row_frac*col_frac*(1 + taper)/2 (e.g. 0.6 and 0.4 with the
    default taper give 14.4%).
    """

    row_frac: float
    col_frac: float
    taper: float = 0.2

    def __post_init__(self):
        for name in ("row_frac", "col_frac"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise DataValidationError(f"{name} must be in [0,1), got {v}")
        if not 0.0 <= self.taper <= 1.0:
            raise DataValidationError("taper must be in [0,1]")

    def build_mask(self, T: int, N: int) -> np.ndarray:
        mask = np.ones((T, N), dtype=bool)
        n_m = int(round(self.col_frac * N))
        d_max = self.row_frac * T
        if n_m == 0 or d_max == 0:
            return mask
        for j in range(n_m):
            f = 1.0 if n_m == 1 else 1.0 - (1.0 - self.taper) * j / (n_m - 1)
            depth = int(round(d_max * f))
            if depth > 0:
                mask[T - depth:, N - n_m + j] = False
        return mask


# Table-style four-case geometries.  The printed coordinates in the source
# tables underdetermine the exact block shapes; these fractions reproduce
# the reported error levels and are recorded as calibrated choices, not
# asserted facts.  Evaluation points are 0-based (t, i).
CASE_TABLE = {
    1: {"row_frac": 0.4, "col_frac": 0.5,
        "points": {"TALL": (169, 96), "WIDE": (60, 150),
                   "BAL": (60, 50), "MISS": (161, 138)}},
    2: {"row_frac": 0.65, "col_frac": 0.5,
        "points": {"TALL": (170, 50), "WIDE": (30, 150),
                   "BAL": (30, 50), "MISS": (170, 150)}},
    3: {"row_frac": 0.6, "col_frac": 0.65,
        "points": {"TALL": (160, 30), "WIDE": (35, 160),
                   "BAL": (35, 30), "MISS": (160, 160)}},
    4: {"row_frac": 0.6, "col_frac": 0.75,
        "points": {"TALL": (160, 20), "WIDE": (35, 160),
                   "BAL": (35, 20), "MISS": (160, 160)}},
}


@dataclass(frozen=True)
class FourBlockCase:
    """One of the four staircase geometries with its evaluation points."""

    case: int
    taper: float = 0.2

    def __post_init__(self):
        if self.case not in CASE_TABLE:
            raise DataValidationError(f"case must be 1..4, got {self.case}")

    @property
    def points(self) -> dict:
        return dict(CASE_TABLE[self.case]["points"])

    def build_mask(self, T: int, N: int) -> np.ndarray:
        spec = CASE_TABLE[self.case]
        block = SouthWestBlock(spec["row_frac"], spec["col_frac"], self.taper)
        return block.build_mask(T, N)


@dataclass(frozen=True)
class CustomMask:
    """Observation mask loaded from a 0/1 CSV file (1 = observed)."""

    file: str

    def build_mask(self, T: int, N: int) -> np.ndarray:
        mask = read_mask_csv(self.file)
        if mask.shape != (T, N):
            raise DataValidationError(
                f"mask file shape {mask.shape} != panel shape ({T}, {N})"
            )
        return mask


def apply_missing(panel: PanelMatrix, pattern) -> PanelMatrix:
    """Intersect the panel's mask with the pattern's; values untouched."""
    mask = panel.mask & pattern.build_mask(panel.T, panel.N)
    T_oi = mask.sum(axis=0)
    if (T_oi == 0).any():
        raise PatternDegeneratesPanel(
            f"pattern empties series {int(np.flatnonzero(T_oi == 0)[0])}"
        )
    if not (T_oi == panel.T).any():
        raise PatternDegeneratesPanel("pattern leaves no fully observed column")
    return PanelMatrix(panel.values, mask)


# ---------------------------------------------------------------------------
# Reports and the replication engine
# ---------------------------------------------------------------------------


@dataclass
class McReport:
    """Aggregated Monte Carlo results plus config echo.

    ``results`` is deterministic for a fixed seed; ``meta`` (wall clock and
    similar) is excluded from determinism comparisons.
    """

    kind: str
    config: dict
    results: dict
    reps_requested: int
    reps_failed: int
    failures: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def reps_effective(self) -> int:
        return self.reps_requested - self.reps_failed

    def deterministic_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "config": self.config,
            "results": self.results,
            "reps_requested": self.reps_requested,
            "reps_failed": self.reps_failed,
            "failures": list(self.failures),
        }

    def to_json_dict(self) -> dict:
        out = self.deterministic_dict()
        out["meta"] = dict(self.meta)
        return out


def _run_reps(B: int, worker, threads: int):
    """Run ``worker(b)`` for b in 0..B-1, collecting results by index so the
    aggregation order never depends on scheduling."""
    results = [None] * B
    failures = []
    if threads <= 1:
        for b in range(B):
            try:
                results[b] = worker(b)
            except FactorfillError as exc:
                failures.append((b, f"{type(exc).__name__}: {exc}"))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(worker, b): b for b in range(B)}
            for fut, b in futures.items():
                try:
                    results[b] = fut.result()
                except FactorfillError as exc:
                    failures.append((b, f"{type(exc).__name__}: {exc}"))
    failures.sort()
    return results, failures


def _collect(results, key):
    return np.array([res[key] for res in results if res is not None])


def _pattern_echo(pattern) -> dict:
    d = {"variant": type(pattern).__name__}
    d.update(asdict(pattern))
    return d


# ---------------------------------------------------------------------------
# Study 1: imputation RMSE (Table 1 layout)
# ---------------------------------------------------------------------------

RMSE_METHODS = ("COMPLETE", "TP", "TW", "TP_PLUS", "TW_PLUS", "EM")


def mc_imputation_rmse(dgp: BasicDgpConfig, pattern,
                       methods=("COMPLETE", "TP", "TP_PLUS", "EM"),
                       transforms=("standardize", "demean", "raw"),
                       eval_points: dict | None = None, B: int = 500,
                       threads: int = 1) -> McReport:
    """RMSE of the imputed common component at fixed evaluation cells,
    per method x transform x cell, over B independent panels."""
    for m in methods:
        if m not in RMSE_METHODS:
            raise DataValidationError(f"unknown method {m!r}")
    if eval_points is None:
        if not isinstance(pattern, FourBlockCase):
            raise DataValidationError("eval_points required for this pattern")
        eval_points = pattern.points
    points = dict(eval_points)
    t0 = time.monotonic()

    def worker(b: int) -> dict:
        panel, C_true = gen_basic_dgp(dgp, rep=b)
        masked = apply_missing(panel, pattern)
        out = {}
        for tr in transforms:
            for m in methods:
                src = panel if m == "COMPLETE" else masked
                fit_method = "TP" if m == "COMPLETE" else m
                res = impute_panel(src, dgp.r, method=fit_method, transform=tr)
                C_hat = res.transform.invert_values(res.C)
                for name, (t, i) in points.items():
                    err = C_hat[t, i] - C_true[t, i]
                    out[(m, tr, name)] = err * err
        return out

    results, failures = _run_reps(B, worker, threads)
    rmse = {}
    for m in methods:
        rmse[m] = {}
        for tr in transforms:
            rmse[m][tr] = {}
            for name in points:
                sq = _collect(results, (m, tr, name))
                rmse[m][tr][name] = float(np.sqrt(np.mean(sq))) if sq.size else None
    report = {
        "rmse": rmse,
        "eval_points": {k: list(v) for k, v in points.items()},
    }
    return McReport(
        kind="imputation_rmse",
        config={"dgp": asdict(dgp), "pattern": _pattern_echo(pattern),
                "methods": list(methods), "transforms": list(transforms),
                "B": B},
        results=report,
        reps_requested=B,
        reps_failed=len(failures),
        failures=tuple(failures),
        meta={"wall_clock_s": time.monotonic() - t0, "threads": threads},
    )


# ---------------------------------------------------------------------------
# Study 2: sampling distribution and interval coverage (Table 2 layout)
# ---------------------------------------------------------------------------


def mc_distribution_study(dgp: BasicDgpConfig, pattern, eval_points: dict,
                          level: float = 0.95,
                          methods=("TP", "TP_PLUS", "TW", "TW_PLUS"),
                          B: int = 1000, threads: int = 1) -> McReport:
    """Fixed-factor design: redraw noise each replication, track the
    estimate, its asymptotic se, the studentized statistic, and coverage
    at each evaluation cell."""
    if not dgp.fixed_factors:
        raise DataValidationError("distribution study needs fixed_factors")
    points = dict(eval_points)
    _, C_true = gen_basic_dgp(dgp, rep=0)
    t0 = time.monotonic()

    def worker(b: int) -> dict:
        panel, C_b = gen_basic_dgp(dgp, rep=b)
        masked = apply_missing(panel, pattern)
        out = {}
        for m in methods:
            res = impute_panel(masked, dgp.r, method=m, transform="raw")
            interval = (cc_interval_first_pass if m in FIRST_PASS
                        else cc_interval_reestimated)
            for name, (t, i) in points.items():
                iv = interval(res, i, t, level)
                true = C_b[t, i]
                out[(m, name)] = (
                    iv.center, iv.se,
                    1.0 if iv.lower <= true <= iv.upper else 0.0,
                    (iv.center - true) / iv.se,
                )
        return out

    results, failures = _run_reps(B, worker, threads)
    stats = {}
    for m in methods:
        stats[m] = {}
        for name, (t, i) in points.items():
            rows = _collect(results, (m, name))
            if rows.size == 0:
                stats[m][name] = None
                continue
            est, ase, cover, stud = rows.T
            stats[m][name] = {
                "true_C": float(C_true[t, i]),
                "mean": float(np.mean(est)),
                "sd": float(np.std(est, ddof=1)) if est.size > 1 else None,
                "ase": float(np.mean(ase)),
                "q05": float(np.quantile(stud, 0.05)),
                "q95": float(np.quantile(stud, 0.95)),
                "coverage": float(np.mean(cover)),
            }
    report = {
        "stats": stats,
        "level": level,
        "eval_points": {k: list(v) for k, v in points.items()},
    }
    return McReport(
        kind="distribution",
        config={"dgp": asdict(dgp), "pattern": _pattern_echo(pattern),
                "methods": list(methods), "level": level, "B": B},
        results=report,
        reps_requested=B,
        reps_failed=len(failures),
        failures=tuple(failures),
        meta={"wall_clock_s": time.monotonic() - t0, "threads": threads},
    )


# ---------------------------------------------------------------------------
# Study 3: covariance estimators scored by risk measures (Tables 3/5 layout)
# ---------------------------------------------------------------------------

ESTIMATOR_TOKENS = (
    "true", "pairwise", "sm0", "sm1", "sm2", "sm3", "sm4",
    "sm+0", "sm+1", "sm+2", "sm+3", "sm+4", "sf", "sf+", "sfa", "sfa+",
)


def _parse_estimator(token: str):
    if token not in ESTIMATOR_TOKENS:
        raise DataValidationError(
            f"unknown estimator {token!r}; expected one of {ESTIMATOR_TOKENS}"
        )
    plus = "+" in token
    base = token.replace("+", "")
    scheme = int(base[2]) if base.startswith("sm") and len(base) == 3 else None
    kind = base[:2] if base.startswith("sm") else base
    return kind, plus, scheme


def _estimate_cov(token, masked, first, reest, X_true, S, seed):
    kind, plus, scheme = _parse_estimator(token)
    if kind == "true":
        return sample_cov(X_true)
    if kind == "pairwise":
        return pairwise_cov(masked)
    res = reest if plus else first
    if kind == "sm":
        if scheme == 0:
            return completed_sample_cov(res)
        return overlay_cov(res, OverlayConfig(f"SM{scheme}", S=S, seed=seed))
    if kind == "sf":
        return sf_cov(res)
    return sfa_cov(res)


def mc_risk_study(source, pattern, estimators=("sm0", "sm2", "sm+2", "sfa", "sfa+"),
                  impute_methods=("TP", "TW"), r: int = 5,
                  N_select: int | None = None, S: int = 100,
                  alpha: float = 0.95, frequency: str = "monthly",
                  scale: float = 100.0, B: int = 200, seed: int | None = None,
                  threads: int = 1) -> McReport:
    """Bias and RMSE of risk measures computed from estimated covariances.

    ``source`` is a StrictFactorConfig (fresh panel per replication) or a
    complete PanelMatrix (columns subsampled per replication).  Truth per
    replication comes from the complete subpanel; errors are scaled by
    ``scale`` (default 100, percent-style reporting).
    """
    for tok in estimators:
        _parse_estimator(tok)
    for m in impute_methods:
        if m not in FIRST_PASS:
            raise DataValidationError(
                f"impute_methods must be TP/TW (re-estimation is implied), "
                f"got {m!r}"
            )
    if isinstance(source, StrictFactorConfig):
        master = source.seed
        src_echo = {"strict_factor": asdict(source)}
    elif isinstance(source, PanelMatrix):
        if not source.is_complete:
            raise DataValidationError("panel source must be complete")
        if seed is None:
            raise DataValidationError("seed required for a panel source")
        master = seed
        src_echo = {"panel": {"T": source.T, "N": source.N}}
    else:
        raise DataValidationError(
            "source must be StrictFactorConfig or PanelMatrix"
        )
    t0 = time.monotonic()

    def worker(b: int) -> dict:
        if isinstance(source, StrictFactorConfig):
            panel_full, _ = gen_strict_factor_dgp(source, rep=b)
        else:
            panel_full = source
        X_full = panel_full.values
        if N_select is not None and N_select < panel_full.N:
            rng = _rng(master, (2, b))
            cols = np.sort(rng.choice(panel_full.N, N_select, replace=False))
            X = np.ascontiguousarray(X_full[:, cols])
        else:
            X = X_full
        sub = PanelMatrix.complete(X)
        masked = apply_missing(sub, pattern)
        incomplete = np.flatnonzero(masked.mask.sum(axis=0) < sub.T)
        ov_seed = int(np.random.SeedSequence(
            entropy=master, spawn_key=(3, b)).generate_state(1, np.uint64)[0])
        out = {}
        for m in impute_methods:
            first = tp_impute(masked, r) if m == "TP" else tw_impute(masked, r)
            reest = reestimate(masked, first)
            for tok in estimators:
                cov = _estimate_cov(tok, masked, first, reest, X, S, ov_seed)
                rep = risk_report(cov, X, incomplete, alpha, frequency)
                truth = rep.truth
                errs = {
                    "pvol": np.array([rep.pvol - truth.pvol]),
                    "pvar": np.array([rep.pvar - truth.pvar]),
                    "call": rep.call_prices - truth.call_prices,
                    "var": rep.variances - truth.variances,
                    "cov": rep.covariances - truth.covariances,
                }
                for meas, v in errs.items():
                    out[(m, tok, meas)] = (
                        float(np.sum(v)), float(np.sum(v * v)), int(v.size)
                    )
        return out

    results, failures = _run_reps(B, worker, threads)
    table = {}
    for m in impute_methods:
        table[m] = {}
        for tok in estimators:
            table[m][tok] = {}
            for meas in MEASURES:
                rows = _collect(results, (m, tok, meas))
                if rows.size == 0:
                    table[m][tok][meas] = None
                    continue
                s, ss, n = rows.T
                n_tot = float(np.sum(n))
                bias = float(np.sum(s)) / n_tot
                mse = float(np.sum(ss)) / n_tot
                table[m][tok][meas] = {
                    "bias": bias * scale,
                    "rmse": float(np.sqrt(mse)) * scale,
                }
    report = {"measures": table, "scale": scale}
    return McReport(
        kind="risk_study",
        config={"source": src_echo, "pattern": _pattern_echo(pattern),
                "estimators": list(estimators),
                "impute_methods": list(impute_methods), "r": r,
                "N_select": N_select, "S": S, "alpha": alpha,
                "frequency": frequency, "scale": scale, "B": B},
        results=report,
        reps_requested=B,
        reps_failed=len(failures),
        failures=tuple(failures),
        meta={"wall_clock_s": time.monotonic() - t0, "threads": threads},
    )


# ---------------------------------------------------------------------------
# Study 4: overlay rank repair (Table 4 layout)
# ---------------------------------------------------------------------------


def mc_fullrank_check(source: StrictFactorConfig, pattern,
                      scheme: str = "SM2", S: int = 100, r: int = 5,
                      B: int = 100, threads: int = 1,
                      singular_tol: float = 1e-10) -> McReport:
    """Check that every per-draw overlay covariance is singular while the
    S-draw average is positive definite (T < N design)."""
    t0 = time.monotonic()

    def worker(b: int) -> dict:
        panel, _ = gen_strict_factor_dgp(source, rep=b)
        masked = apply_missing(panel, pattern)
        first = tp_impute(masked, r)
        reest = reestimate(masked, first)
        ov_seed = int(np.random.SeedSequence(
            entropy=source.seed, spawn_key=(3, b)).generate_state(
                1, np.uint64)[0])
        cfg = OverlayConfig(scheme, S=S, seed=ov_seed)
        n_sing = 0
        acc = None
        count = 0
        for M in overlay_draw_covs(reest, cfg):
            lo = float(np.linalg.eigvalsh(M)[0])
            if lo <= singular_tol:
                n_sing += 1
            acc = M if acc is None else acc + M
            count += 1
        avg = acc / count
        lo_avg = float(np.linalg.eigvalsh(avg)[0])
        return {"singular_draws": n_sing, "draws": count,
                "avg_min_eig": lo_avg}

    results, failures = _run_reps(B, worker, threads)
    ok = [res for res in results if res is not None]
    all_singular = sum(1 for res in ok
                       if res["singular_draws"] == res["draws"])
    avg_pd = sum(1 for res in ok if res["avg_min_eig"] > 0.0)
    report = {
        "reps_all_draws_singular": all_singular,
        "reps_average_pd": avg_pd,
        "reps_scored": len(ok),
        "min_avg_eigenvalue": min((res["avg_min_eig"] for res in ok),
                                  default=None),
    }
    return McReport(
        kind="fullrank_check",
        config={"source": {"strict_factor": asdict(source)},
                "pattern": _pattern_echo(pattern), "scheme": scheme,
                "S": S, "r": r, "B": B, "singular_tol": singular_tol},
        results=report,
        reps_requested=B,
        reps_failed=len(failures),
        failures=tuple(failures),
        meta={"wall_clock_s": time.monotonic() - t0, "threads": threads},
    )


# ---------------------------------------------------------------------------
# Synthetic calibrated panel (stand-in for the proprietary returns panel)
# ---------------------------------------------------------------------------

CALIBRATED_SHARES = (0.262, 0.041, 0.038, 0.027, 0.021)


def synthetic_calibrated_panel(T: int = 348, N: int = 339,
                               seed: int = 20260813,
                               mean_variance: float = 0.01) -> PanelMatrix:
    """Complete synthetic monthly-return-like panel, labeled synthetic.

    Five orthonormalized factors whose pooled variance shares match
    CALIBRATED_SHARES exactly by construction; idiosyncratic variance rises
    linearly with the column index, so corner missing patterns hit the
    noisiest series.
    """
    r = len(CALIBRATED_SHARES)
    rng = _rng(seed, (0,))
    F = rng.standard_normal((T, r))
    F = F - F.mean(axis=0)
    Q, _ = np.linalg.qr(F)
    F = Q * np.sqrt(T)  # unit sample variance, exactly orthogonal columns
    Lam = rng.standard_normal((N, r))
    for q in range(r):
        target = CALIBRATED_SHARES[q] * mean_variance
        Lam[:, q] *= np.sqrt(target / np.mean(Lam[:, q] ** 2))
    common_share = sum(CALIBRATED_SHARES)
    psi = np.linspace(0.6, 1.4, N) * (1.0 - common_share) * mean_variance
    e = rng.standard_normal((T, N)) * np.sqrt(psi)[None, :]
    return PanelMatrix.complete(F @ Lam.T + e)


# ---------------------------------------------------------------------------
# Presets (CLI entry points)
# ---------------------------------------------------------------------------


def _reps(reps: int | None, default: int) -> int:
    """Replication count of a preset: its default only when none is given."""
    if reps is None:
        return default
    if reps < 1:
        raise DataValidationError(f"reps must be at least 1, got {reps}")
    return reps


def _preset_table1(case: int):
    def run(seed: int, reps: int | None, threads: int) -> McReport:
        dgp = BasicDgpConfig(T=200, N=200, r=2, sigma2_e=2.5, seed=seed)
        return mc_imputation_rmse(dgp, FourBlockCase(case),
                                  B=_reps(reps, 500), threads=threads)
    return run


def _preset_table2(seed: int, reps: int | None, threads: int) -> McReport:
    dgp = BasicDgpConfig(T=300, N=500, r=2, sigma2_e=1.0, seed=seed,
                         fixed_factors=True, d_diag=(1.0, 1.0))
    pattern = SouthWestBlock(0.6, 0.4)
    points = {"BAL": (114, 289), "TALL": (124, 289),
              "WIDE": (114, 324), "MISS": (139, 324)}
    return mc_distribution_study(dgp, pattern, points, level=0.95,
                                 B=_reps(reps, 1000), threads=threads)


def _preset_table3(seed: int, reps: int | None, threads: int) -> McReport:
    cfg = StrictFactorConfig(T=339, N_star=100, seed=seed)
    return mc_risk_study(cfg, SouthWestBlock(0.625, 0.4),
                         estimators=("sm0", "sm2", "sm+2", "sfa", "sfa+"),
                         impute_methods=("TP", "TW"), r=5, S=100,
                         B=_reps(reps, 200), threads=threads)


def _preset_table4(seed: int, reps: int | None, threads: int) -> McReport:
    cfg = StrictFactorConfig(T=200, N_star=250, seed=seed)
    return mc_fullrank_check(cfg, SouthWestBlock(0.625, 0.4), scheme="SM2",
                             S=100, r=5, B=_reps(reps, 100), threads=threads)


def _preset_table5(seed: int, reps: int | None, threads: int) -> McReport:
    panel = synthetic_calibrated_panel()
    return mc_risk_study(panel, SouthWestBlock(0.625, 0.4),
                         estimators=("sm0", "sm+1", "sm+2", "sfa", "sfa+"),
                         impute_methods=("TP",), r=5, N_select=100, S=100,
                         B=_reps(reps, 100), seed=seed, threads=threads)


PRESETS = {
    "table1-case1": _preset_table1(1),
    "table1-case2": _preset_table1(2),
    "table1-case3": _preset_table1(3),
    "table1-case4": _preset_table1(4),
    "table2": _preset_table2,
    "table3": _preset_table3,
    "table4": _preset_table4,
    "table5-synthetic": _preset_table5,
}


def run_preset(name: str, seed: int, reps: int | None = None,
               threads: int = 1) -> McReport:
    if name not in PRESETS:
        raise DataValidationError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return PRESETS[name](seed, reps, threads)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if v is None:
        return "--"
    return f"{v:10.4f}"


def format_report_text(report: McReport) -> str:
    """Aligned-text rendering of a report, one table per block."""
    lines = [f"kind: {report.kind}",
             f"replications: {report.reps_effective} of "
             f"{report.reps_requested} ({report.reps_failed} failed)"]
    res = report.results
    if report.kind == "imputation_rmse":
        points = list(res["eval_points"])
        lines.append("")
        lines.append("RMSE of imputed common component")
        header = f"{'method':10s} {'transform':12s} " + " ".join(
            f"{p:>10s}" for p in points)
        lines.append(header)
        for m, per_tr in res["rmse"].items():
            for tr, vals in per_tr.items():
                row = f"{m:10s} {tr:12s} " + " ".join(
                    _fmt_cell(vals[p]) for p in points)
                lines.append(row)
    elif report.kind == "distribution":
        cols = ("mean", "sd", "ase", "q05", "q95", "coverage")
        lines.append("")
        header = f"{'method':10s} {'point':8s} {'true':>10s} " + " ".join(
            f"{c:>10s}" for c in cols)
        lines.append(header)
        for m, per_pt in res["stats"].items():
            for pt, st in per_pt.items():
                if st is None:
                    continue
                row = (f"{m:10s} {pt:8s} {st['true_C']:10.4f} "
                       + " ".join(_fmt_cell(st[c]) for c in cols))
                lines.append(row)
    elif report.kind == "risk_study":
        lines.append("")
        lines.append(f"errors scaled by {res['scale']:g}")
        header = f"{'impute':8s} {'estimator':10s} " + " ".join(
            f"{m + ' bias':>12s} {m + ' rmse':>12s}" for m in MEASURES)
        lines.append(header)
        for m, per_est in res["measures"].items():
            for tok, vals in per_est.items():
                cells = []
                for meas in MEASURES:
                    v = vals[meas]
                    if v is None:
                        cells.append(f"{'--':>12s} {'--':>12s}")
                    else:
                        cells.append(f"{v['bias']:12.4f} {v['rmse']:12.4f}")
                lines.append(f"{m:8s} {tok:10s} " + " ".join(cells))
    else:
        for k, v in res.items():
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"
