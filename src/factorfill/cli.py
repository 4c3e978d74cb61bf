"""Command-line front end: CSV panels in, completed panels, covariance
matrices, risk reports, and Monte Carlo tables out.

Exit codes: 0 success, 2 usage or I/O problems, 3 data validation
failures, 4 numerical failures.  All randomness flows from an explicit
``--seed``; stochastic commands refuse to run without one.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .covariance import (
    OverlayConfig,
    completed_sample_cov,
    overlay_cov,
    pairwise_cov,
    rescale_cov,
    sf_cov,
    sfa_cov,
)
from .errors import DataValidationError, NumericalError
from .favar import favar_fit
from .impute import (
    completed_in_original_units,
    impute_panel,
    prediction_se_matrix,
)
from .io import (
    DEFAULT_NA_TOKENS,
    read_panel_csv,
    series_names,
    write_cov_binary,
    write_cov_csv,
    write_json_atomic,
    write_panel_csv,
)
from .panel import MODES
from .risk import FREQUENCIES, risk_report
from .simulate import PRESETS, format_report_text, run_preset

IMPUTE_TOKENS = {"tp": "TP", "tw": "TW", "tp+": "TP_PLUS",
                 "tw+": "TW_PLUS", "em": "EM"}
COV_TOKENS = ("pairwise", "sm0", "sm1", "sm2", "sm3", "sm4",
              "sm+0", "sm+1", "sm+2", "sm+3", "sm+4",
              "sf", "sf+", "sfa", "sfa+")


@dataclass(frozen=True)
class CliConfig:
    """Parsed and validated invocation; one instance per run."""

    command: str
    input: str | None = None
    out: str | None = None
    se_out: str | None = None
    target: str | None = None
    exog: str | None = None
    r: int | None = None
    method: str | None = None
    transform: str = "standardize"
    impute: str = "tp"
    S: int = 100
    alpha: float = 0.95
    frequency: str = "monthly"
    seed: int | None = None
    h: int = 0
    tol: float = 1e-6
    max_iter: int = 500
    keep_observed: bool = True
    na_tokens: tuple = DEFAULT_NA_TOKENS
    format: str = "csv"
    preset: str | None = None
    reps: int | None = None
    threads: int = 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorfill",
        description="Factor-based imputation, covariance estimation, and "
                    "risk measurement for incomplete panels.",
    )
    parser.add_argument("--version", action="version",
                        version=f"factorfill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_na(p):
        p.add_argument("--na-token", action="append", dest="na_tokens",
                       metavar="TOK", default=None,
                       help='missing-value tokens (repeatable; default "", '
                            '"NA", "NaN")')

    p = sub.add_parser("impute", help="complete a panel by factor imputation")
    p.add_argument("--input", required=True, help="panel CSV (T rows x N series)")
    p.add_argument("--r", type=int, required=True, help="number of factors")
    p.add_argument("--method", choices=sorted(IMPUTE_TOKENS), default="tp+")
    p.add_argument("--transform", choices=MODES, default="standardize")
    p.add_argument("--out", required=True, help="completed panel CSV")
    p.add_argument("--se-out", dest="se_out",
                   help="per-cell prediction standard errors (missing cells "
                        "only); not available for em")
    p.add_argument("--keep-observed", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="echo observed cells byte-for-byte (default on)")
    p.add_argument("--tol", type=float, default=1e-6, help="em tolerance")
    p.add_argument("--max-iter", type=int, default=500, help="em iteration cap")
    add_na(p)

    p = sub.add_parser("cov", help="estimate a covariance matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=COV_TOKENS, required=True)
    p.add_argument("--impute", choices=("tp", "tw"), default="tp",
                   help="first-pass imputation backing the estimator")
    p.add_argument("--r", type=int, help="number of factors (all methods "
                                         "except pairwise)")
    p.add_argument("--transform", choices=MODES, default="raw")
    p.add_argument("--S", type=int, default=100, help="overlay draws")
    p.add_argument("--seed", type=int, help="required for sm1-sm4 overlays")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    add_na(p)

    p = sub.add_parser("risk", help="portfolio risk report from a panel")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=COV_TOKENS, default="sm+2")
    p.add_argument("--impute", choices=("tp", "tw"), default="tp")
    p.add_argument("--r", type=int)
    p.add_argument("--transform", choices=MODES, default="raw")
    p.add_argument("--S", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--frequency", choices=sorted(FREQUENCIES),
                   default="monthly")
    p.add_argument("--out", required=True, help="JSON report path")
    add_na(p)

    p = sub.add_parser("favar", help="factor-augmented h-step regression")
    p.add_argument("--input", required=True, help="panel CSV providing factors")
    p.add_argument("--target", required=True, help="single-column CSV, length T")
    p.add_argument("--exog", help="optional CSV of observed regressors (T x q)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, default=0, help="forecast horizon")
    p.add_argument("--method", choices=sorted(IMPUTE_TOKENS), default="tp")
    p.add_argument("--transform", choices=MODES, default="standardize")
    p.add_argument("--out", required=True, help="JSON output path")
    add_na(p)

    p = sub.add_parser("simulate", help="run a Monte Carlo preset")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--reps", type=int, help="override replication count")
    p.add_argument("--seed", type=int, help="master seed (required)")
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads (default: logical cores); with more "
                        "than one, set OPENBLAS_NUM_THREADS=1 so the BLAS "
                        "threads do not oversubscribe the cores")
    p.add_argument("--out", help="JSON report path (text table on stdout)")
    return parser


def _to_config(args: argparse.Namespace, parser) -> CliConfig:
    fields = {k: v for k, v in vars(args).items()
              if k in CliConfig.__dataclass_fields__ and v is not None}
    if "na_tokens" in fields:
        fields["na_tokens"] = tuple(fields["na_tokens"])
    cfg = CliConfig(**fields)
    if cfg.command == "simulate" and cfg.seed is None:
        parser.error("simulate requires an explicit --seed")
    if cfg.command in ("cov", "risk"):
        stochastic = cfg.method.startswith("sm") and not cfg.method.endswith("0")
        if stochastic and cfg.seed is None:
            parser.error(f"--method {cfg.method} requires an explicit --seed")
        if cfg.method != "pairwise" and cfg.r is None:
            parser.error(f"--method {cfg.method} requires --r")
    if cfg.r is not None and cfg.r < 1:
        parser.error("--r must be >= 1")
    return cfg


def _cmd_impute(cfg: CliConfig) -> int:
    panel, layout = read_panel_csv(cfg.input, na_tokens=cfg.na_tokens)
    result = impute_panel(panel, cfg.r, method=IMPUTE_TOKENS[cfg.method],
                          transform=cfg.transform, tol=cfg.tol,
                          max_iter=cfg.max_iter)
    completed = completed_in_original_units(result, panel)
    echo = panel.mask if cfg.keep_observed else None
    write_panel_csv(cfg.out, completed, layout, echo_mask=echo)
    if cfg.se_out is not None:
        se = prediction_se_matrix(result)
        write_panel_csv(cfg.se_out, se, layout, na_token="")
    return 0


def _estimate_cov_cli(cfg: CliConfig, panel):
    if cfg.method == "pairwise":
        return pairwise_cov(panel)
    plus = "+" in cfg.method
    base = cfg.method.replace("+", "")
    method = cfg.impute.upper() + ("_PLUS" if plus else "")
    result = impute_panel(panel, cfg.r, method=method, transform=cfg.transform)
    if base == "sm0":
        cov = completed_sample_cov(result)
    elif base.startswith("sm"):
        cov = overlay_cov(result, OverlayConfig(f"SM{base[2]}", S=cfg.S,
                                                seed=cfg.seed))
    elif base == "sf":
        cov = sf_cov(result)
    else:
        cov = sfa_cov(result)
    return rescale_cov(cov, result.transform)


def _cmd_cov(cfg: CliConfig) -> int:
    panel, layout = read_panel_csv(cfg.input, na_tokens=cfg.na_tokens)
    cov = _estimate_cov_cli(cfg, panel)
    if cfg.format == "bin":
        write_cov_binary(cfg.out, cov.matrix)
    else:
        write_cov_csv(cfg.out, cov.matrix, series_names(layout))
    return 0


def _cmd_risk(cfg: CliConfig) -> int:
    panel, layout = read_panel_csv(cfg.input, na_tokens=cfg.na_tokens)
    cov = _estimate_cov_cli(cfg, panel)
    incomplete = np.flatnonzero(panel.mask.sum(axis=0) < panel.T)
    true_returns = panel.values if panel.is_complete else None
    report = risk_report(cov, true_returns, incomplete, alpha=cfg.alpha,
                         frequency=cfg.frequency)
    names = series_names(layout)
    payload = {
        "schema": 1,
        "kind": "risk_report",
        "method": cov.method,
        "alpha": cfg.alpha,
        "frequency": cfg.frequency,
        "incomplete_series": [names[i] for i in incomplete],
        "report": report.to_json_dict(),
    }
    write_json_atomic(cfg.out, payload)
    return 0


def _read_complete_matrix(path: str, na_tokens, what: str) -> np.ndarray:
    panel, _ = read_panel_csv(path, na_tokens=na_tokens)
    if not panel.is_complete:
        raise DataValidationError(f"{what} file {path} contains missing values")
    return panel.values


def _cmd_favar(cfg: CliConfig) -> int:
    panel, _ = read_panel_csv(cfg.input, na_tokens=cfg.na_tokens)
    y = _read_complete_matrix(cfg.target, cfg.na_tokens, "target")
    if y.shape[1] != 1:
        raise DataValidationError("target file must have exactly one column")
    y = y[:, 0]
    W = None
    if cfg.exog is not None:
        W = _read_complete_matrix(cfg.exog, cfg.na_tokens, "exog")
    result = impute_panel(panel, cfg.r, method=IMPUTE_TOKENS[cfg.method],
                          transform=cfg.transform)
    fit = favar_fit(y, W, result, h=cfg.h)
    payload = {
        "schema": 1,
        "kind": "favar",
        "h": fit.h,
        "r": fit.r,
        "q": fit.q,
        "T_used": fit.T_used,
        "delta": fit.delta.tolist(),
        "se": fit.se().tolist(),
        "alpha": fit.alpha.tolist(),
        "beta": fit.beta.tolist(),
        "cov": fit.cov.tolist(),
    }
    write_json_atomic(cfg.out, payload)
    return 0


def _cmd_simulate(cfg: CliConfig) -> int:
    threads = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    report = run_preset(cfg.preset, seed=cfg.seed, reps=cfg.reps,
                        threads=threads)
    if cfg.out is not None:
        write_json_atomic(cfg.out, report.to_json_dict())
    sys.stdout.write(format_report_text(report))
    return 0


_DISPATCH = {
    "impute": _cmd_impute,
    "cov": _cmd_cov,
    "risk": _cmd_risk,
    "favar": _cmd_favar,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _to_config(args, parser)
        return _DISPATCH[cfg.command](cfg)
    except DataValidationError as exc:
        sys.stderr.write(f"factorfill: {exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"factorfill: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"factorfill: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
