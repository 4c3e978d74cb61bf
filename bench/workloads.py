"""The three benchmark workloads.

A workload makes its inputs from the run's seed, runs one operation at a
time through the library's public functions, records each output between
operations (untimed), and checks the outputs once the timed loop is over.
An operation is identified by its position in the round; every round runs
the same operations on the same inputs, so later rounds must reproduce the
first round's outputs exactly.

An operation is made of ``steps`` timed steps, ``op(k, s)`` running step
``s`` of operation ``k``: one step for a Monte Carlo replication, one per
command for a pass of the CLI sequence.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict

import numpy as np

import checks
from checks import require

import factorfill.cli as cli
import factorfill.simulate as simulate
from factorfill.covariance import OverlayConfig, overlay_cov, overlay_draw_covs, \
    sf_cov, sfa_cov
from factorfill.impute import EM_TOL, impute_panel, reestimate, tp_impute


def untraced(name, fn):
    """The span hook of an untraced run: call ``fn`` as it is."""
    return fn


class _PresetWorkload:
    """Operation k is ``run_preset(preset, seed_k, reps=1, threads=1)``:
    one replication of a Monte Carlo table, on its own panel."""

    preset = ""
    round_size = 1
    steps = 1

    def __init__(self, seed: int, workdir: str, round_size: int | None = None,
                 span=untraced):
        if round_size is not None:
            self.round_size = round_size
        self.seeds = [seed * 1000 + k for k in range(self.round_size)]
        self.reports = {}
        self.run_preset = span("simulate.run_preset", simulate.run_preset)

    def op(self, k: int, s: int = 0):
        return self.run_preset(self.preset, seed=self.seeds[k], reps=1,
                               threads=1)

    def record(self, k: int, outputs: list) -> None:
        report, = outputs
        first = self.reports.setdefault(k, report)
        require(report.deterministic_dict() == first.deterministic_dict(),
                f"{self.preset} seed {self.seeds[k]}: report differs from "
                f"the same operation's earlier report")

    def check(self) -> None:
        for k, report in sorted(self.reports.items()):
            checks.check_report_ok(report)
            self.check_one(self.seeds[k], report)


class McImpute(_PresetWorkload):
    """table1-case1: 200 x 200 panel, r = 2, TP / TP+ / EM under three
    transforms on the case-1 staircase."""

    name = "mc-impute"
    preset = "table1-case1"
    round_size = 12
    dgp = dict(T=200, N=200, r=2, sigma2_e=2.5)

    def check_one(self, seed: int, report) -> None:
        dgp = simulate.BasicDgpConfig(seed=seed, **self.dgp)
        require(report.config["dgp"] == asdict(dgp),
                f"preset design {report.config['dgp']} is not {asdict(dgp)}")
        pattern = simulate.FourBlockCase(1)
        panel, C_true = simulate.gen_basic_dgp(dgp, rep=0)
        masked = simulate.apply_missing(panel, pattern)
        r = dgp.r
        checks.check_tp_rmse(report.results["rmse"]["TP"]["raw"], C_true,
                             masked.values, masked.mask, r, pattern.points)
        em = impute_panel(masked, r, method="EM", transform="raw")
        checks.check_imputation_invariants(masked.values, masked.mask,
                                           em.X_completed, em.e)
        checks.check_em_fixed_point(em.X_completed, em.C, masked.mask, r,
                                    EM_TOL)


class McRisk(_PresetWorkload):
    """table3: strict-factor panel 339 x 100, r = 5, TP and TW with
    re-estimation, SM0 / SM2 / SM+2 / SFA / SFA+ with S = 100 overlay
    draws, then the risk report."""

    name = "mc-risk"
    preset = "table3"
    round_size = 8
    dgp = dict(T=339, N_star=100)
    r = 5
    S = 100
    scale = 100.0

    def check_one(self, seed: int, report) -> None:
        measures = report.results["measures"]
        checks.check_risk_table(measures)
        cfg = simulate.StrictFactorConfig(seed=seed, **self.dgp)
        require(report.config["source"]["strict_factor"] == asdict(cfg),
                f"preset design {report.config['source']} is not {asdict(cfg)}")
        require((report.config["S"], report.config["r"], report.config["scale"])
                == (self.S, self.r, self.scale), "preset S, r or scale changed")
        panel, _ = simulate.gen_strict_factor_dgp(cfg, rep=0)
        masked = simulate.apply_missing(panel, simulate.SouthWestBlock(0.625, 0.4))
        checks.check_tp_risk_cells(measures["TP"], masked.values, masked.mask,
                                   panel.values, self.r, self.scale)
        first = tp_impute(masked, self.r)
        reest = reestimate(masked, first)
        ov = OverlayConfig("SM2", S=self.S, seed=seed)
        checks.check_overlay(overlay_cov(reest, ov).matrix,
                             list(overlay_draw_covs(reest, ov)))
        for res in (first, reest):
            checks.check_sfa_minus_sf(sfa_cov(res).matrix, sf_cov(res).matrix,
                                      masked.mask)


# ---------------------------------------------------------------------------
# cli-panel
# ---------------------------------------------------------------------------


def staircase_mask(T: int, N: int, row_frac: float, col_frac: float,
                   taper: float) -> np.ndarray:
    """Missing tails in the last col_frac*N columns, from row_frac*T rows
    in the first of them down to taper*row_frac*T in the last."""
    mask = np.ones((T, N), dtype=bool)
    n_m = int(round(col_frac * N))
    depth = np.rint(row_frac * T * np.linspace(1.0, taper, n_m)).astype(int)
    for j, d in enumerate(depth):
        mask[T - d:, N - n_m + j] = False
    return mask


def _write_rows(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliPanel:
    """One operation runs five commands through ``factorfill.cli.run``, one
    step each, each re-reading the panel CSV as a separate invocation
    would."""

    name = "cli-panel"
    round_size = 1
    T, N, r, h, q, S = 400, 600, 2, 1, 3, 100
    stair = dict(row_frac=0.5, col_frac=0.4, taper=0.2)
    periods_per_year = 12  # the risk command's default monthly frequency

    def __init__(self, seed: int, workdir: str, round_size: int | None = None,
                 span=untraced):
        self.paths = {k: os.path.join(workdir, f) for k, f in (
            ("panel", "panel.csv"), ("target", "y.csv"), ("exog", "w.csv"),
            ("tp", "imputed-tp.csv"), ("se", "se.csv"), ("em", "imputed-em.csv"),
            ("cov", "cov.bin"), ("risk", "risk.json"), ("favar", "favar.json"))}
        self._make_inputs(np.random.default_rng(seed))
        p = self.paths
        r = str(self.r)
        self.commands = [
            ["impute", "--input", p["panel"], "--r", r, "--method", "tp+",
             "--out", p["tp"], "--se-out", p["se"]],
            ["impute", "--input", p["panel"], "--r", r, "--method", "em",
             "--out", p["em"]],
            ["cov", "--input", p["panel"], "--method", "sm+2", "--r", r,
             "--S", str(self.S), "--seed", str(seed), "--format", "bin",
             "--out", p["cov"]],
            ["risk", "--input", p["panel"], "--method", "sfa+", "--r", r,
             "--out", p["risk"]],
            ["favar", "--input", p["panel"], "--target", p["target"],
             "--exog", p["exog"], "--r", r, "--h", str(self.h),
             "--out", p["favar"]],
        ]
        self.steps = len(self.commands)
        self.outputs = ("tp", "se", "em", "cov", "risk", "favar")
        self.run = {cmd: span("cli." + cmd, cli.run)
                    for cmd in ("impute", "cov", "risk", "favar")}
        self.digests = None

    def _make_inputs(self, rng: np.random.Generator) -> None:
        T, N = self.T, self.N
        # Monthly-return-like scale: r factors plus idiosyncratic noise.
        # Orthonormal factor and loading directions with fixed strengths
        # keep the spectrum, and so the EM sweep count, the same across
        # seeds; only the directions and the noise are drawn.
        F, _ = np.linalg.qr(rng.standard_normal((T, self.r)))
        L, _ = np.linalg.qr(rng.standard_normal((N, self.r)))
        strength = 0.02 * np.sqrt(T * N) * np.linspace(1.0, 0.5, self.r)
        X = (F * strength) @ L.T + 0.04 * rng.standard_normal((T, N))
        self.mask = staircase_mask(T, N, **self.stair)
        header = [""] + [f"s{i:03d}" for i in range(N)]
        rows = [header]
        for t in range(T):
            rows.append([f"t{t:03d}"] + [
                f"{v:.10f}" if ok else checks.NA_TOKEN
                for v, ok in zip(X[t], self.mask[t])])
        _write_rows(self.paths["panel"], rows)
        # Exog W and a target that is an exact linear function of W at
        # lag h, so the regression recovers beta and a zero factor block.
        W_tokens = [[f"{v:.10f}" for v in row]
                    for row in rng.standard_normal((T, self.q))]
        W = np.array([[float(v) for v in row] for row in W_tokens])
        self.beta = rng.uniform(-2.0, 2.0, self.q)
        y = np.zeros(T)
        y[self.h:] = W[:T - self.h] @ self.beta
        _write_rows(self.paths["exog"],
                    [[f"w{j}" for j in range(self.q)]] + W_tokens)
        _write_rows(self.paths["target"], [["y"]] + [[repr(float(v))] for v in y])

    def op(self, k: int, s: int):
        argv = self.commands[s]
        code = self.run[argv[0]](argv)
        if code:
            raise RuntimeError(f"{argv[0]} exited with code {code}")
        return code

    def record(self, k: int, outputs: list) -> None:
        digests = {k: _digest(self.paths[k]) for k in self.outputs}
        if self.digests is None:
            self.digests = digests
        require(digests == self.digests,
                "outputs differ from the first pass on the same inputs")

    def check(self) -> None:
        if self.digests is None:  # every pass failed; nothing to check
            return
        rows = checks.read_csv_rows(self.paths["panel"])
        for key in ("tp", "em"):
            checks.check_completed_csv(rows, checks.read_csv_rows(self.paths[key]),
                                       f"completed CSV ({key})")
        checks.check_se_csv(rows, checks.read_csv_rows(self.paths["se"]))
        checks.check_cov_bin(self.paths["cov"], self.N)
        n_incomplete = int((~self.mask.all(axis=0)).sum())
        checks.check_risk_json(self.paths["risk"], n_incomplete,
                               self.periods_per_year)
        checks.check_favar_json(self.paths["favar"], self.beta, self.r)


WORKLOADS = {w.name: w for w in (McImpute, McRisk, CliPanel)}
