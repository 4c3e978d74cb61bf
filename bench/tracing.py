"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps public functions of factorfill where the program's own
modules look them up (for example ``factorfill.impute.apc`` is the name
``impute`` calls), records one span per call and a few counters, and puts
every original back when the traced section ends.  Spans are kept in memory
and tagged with the step of the operation they belong to; a layer's self
time is the time of its spans minus the time of the spans they enclose.

Span names are ``<layer>.<function>``; the layer is the part before the
first dot.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Closed-form covariance estimators, as opposed to the S-draw overlay, by
# the module that imports them.
CLOSED_FORM = {
    "simulate": ("completed_sample_cov", "pairwise_cov", "sample_cov",
                 "sf_cov", "sfa_cov"),
    "cli": ("completed_sample_cov", "pairwise_cov", "rescale_cov", "sf_cov",
            "sfa_cov"),
}
CLOSED_FORM_SPANS = {"covariance." + fn for fns in CLOSED_FORM.values()
                     for fn in fns}

# Per-operation metrics of a traced run: (name, unit).  Counts are totals
# over the run divided by the operations, which repeats exactly because a
# run is whole rounds of the same operations; times are taken like op_s,
# the fastest repetition of each operation over the rounds, then the median
# over the round's operations.
LAYER_METRICS = (
    ("apc.calls", "count"), ("apc.s", "s"),
    ("impute.em_sweeps", "count"), ("impute.s", "s"),
    ("impute.prediction_se_s", "s"),
    ("panel.s", "s"),
    ("covariance.overlay_s", "s"), ("covariance.overlay_draws", "count"),
    ("covariance.closed_form_s", "s"),
    ("risk.s", "s"), ("risk.reports", "count"),
    ("io.read_s", "s"), ("io.write_s", "s"),
    ("io.bytes_read", "bytes"), ("io.bytes_written", "bytes"),
    ("favar.s", "s"),
    ("cli.impute_s", "s"), ("cli.cov_s", "s"), ("cli.risk_s", "s"),
    ("cli.favar_s", "s"),
    ("simulate.self_s", "s"),
    ("trace.op_s", "s"),
)


def best_op_times(values: list, round_size: int, steps: int) -> list:
    """Per operation of the round, the sum over its steps of each step's
    least value over the rounds; ``values`` holds one value per step, in
    whole rounds in the order they ran."""
    per_round = round_size * steps
    best = [min(values[j::per_round]) for j in range(per_round)]
    return [sum(best[k * steps:(k + 1) * steps]) for k in range(round_size)]


class Tracer:
    """Spans and counters for the operations of one traced run."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, step index].
        self.spans = []
        self.counts = Counter()  # (step index, counter name) -> amount
        self._stack = []
        self._step = None
        self._patches = []

    # -- recording ------------------------------------------------------

    def begin_step(self, j: int) -> None:
        self._step = j

    def end_step(self) -> None:
        self._step = None

    def count(self, name: str, amount) -> None:
        if self._step is not None:
            self.counts[(self._step, name)] += amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, result, args, kwargs)``
        runs outside the span to update counters."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self._step]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, out, args, kwargs)
            return out

        return traced

    # -- installing wrappers ------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    @contextmanager
    def installed(self):
        """Wrap the program's layer boundaries for the duration."""
        import factorfill.cli as cli
        import factorfill.covariance as covariance
        import factorfill.impute as impute
        import factorfill.simulate as simulate

        def wrap(module, attr, name, after=None):
            self.patch(module, attr, self.span(name, getattr(module, attr), after))

        try:
            wrap(impute, "apc", "apc.apc",
                 lambda tr, out, a, k: tr.count("apc.calls", 1))
            wrap(impute, "standardize", "panel.standardize")
            wrap(impute, "build_locators", "panel.build_locators")
            for module in (simulate, cli):
                wrap(module, "impute_panel", "impute.impute_panel", _em_sweeps)
                wrap(module, "overlay_cov", "covariance.overlay_cov")
                for fn in CLOSED_FORM[module.__name__.rsplit(".", 1)[1]]:
                    wrap(module, fn, "covariance." + fn)
                wrap(module, "risk_report", "risk.risk_report",
                     lambda tr, out, a, k: tr.count("risk.reports", 1))
            for fn in ("tp_impute", "tw_impute", "reestimate"):
                wrap(simulate, fn, "impute." + fn)
            wrap(cli, "prediction_se_matrix", "impute.prediction_se_matrix")
            wrap(cli, "completed_in_original_units",
                 "impute.completed_in_original_units")
            wrap(cli, "read_panel_csv", "io.read_panel_csv", _bytes_read)
            for fn in ("write_panel_csv", "write_cov_binary", "write_cov_csv",
                       "write_json_atomic"):
                wrap(cli, fn, "io." + fn, _bytes_written)
            wrap(cli, "favar_fit", "favar.favar_fit")
            self.patch(covariance, "overlay_draw_covs",
                       self._counted_draws(covariance.overlay_draw_covs))
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def _counted_draws(self, fn):
        def counted(*args, **kwargs):
            for M in fn(*args, **kwargs):
                self.count("covariance.overlay_draws", 1)
                yield M
        return counted

    # -- summarising ----------------------------------------------------

    def layer_times(self, n_steps: int) -> list:
        """Per step: {span name: (total time, self time)}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, step in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_step = [dict() for _ in range(n_steps)]
        for (name, t0, t1, parent, step), inner in zip(self.spans, child):
            if step is None:
                continue
            tot, own = per_step[step].get(name, (0.0, 0.0))
            per_step[step][name] = (tot + t1 - t0, own + t1 - t0 - inner)
        return per_step

    def metrics(self, n: int, round_size: int, steps: int) -> dict:
        """Every layer metric but trace.op_s, from ``n`` steps run as whole
        rounds of ``round_size`` operations of ``steps`` steps."""
        per_step = self.layer_times(n)
        n_ops = n // steps

        def med(select, total=False):
            vals = [sum(v[0] if total else v[1]
                        for name, v in names.items() if select(name))
                    for names in per_step]
            return statistics.median(best_op_times(vals, round_size, steps))

        def per_op_count(name):
            return sum(v for (_, c), v in self.counts.items() if c == name) / n_ops

        layer = lambda prefix: (lambda name: name.split(".", 1)[0] == prefix)  # noqa: E731
        out = {
            "apc.calls": per_op_count("apc.calls"),
            "apc.s": med(layer("apc")),
            "impute.em_sweeps": per_op_count("impute.em_sweeps"),
            "impute.s": med(layer("impute")),
            "impute.prediction_se_s": med(
                lambda s: s == "impute.prediction_se_matrix", total=True),
            "panel.s": med(layer("panel")),
            "covariance.overlay_s": med(
                lambda s: s == "covariance.overlay_cov", total=True),
            "covariance.overlay_draws": per_op_count("covariance.overlay_draws"),
            "covariance.closed_form_s": med(
                lambda s: s in CLOSED_FORM_SPANS, total=True),
            "risk.s": med(layer("risk")),
            "risk.reports": per_op_count("risk.reports"),
            "io.read_s": med(lambda s: s == "io.read_panel_csv", total=True),
            "io.write_s": med(lambda s: s.startswith("io.write_"), total=True),
            "io.bytes_read": per_op_count("io.bytes_read"),
            "io.bytes_written": per_op_count("io.bytes_written"),
            "favar.s": med(layer("favar")),
            "simulate.self_s": med(layer("simulate")),
        }
        for cmd in ("impute", "cov", "risk", "favar"):
            out[f"cli.{cmd}_s"] = med(lambda s, c=cmd: s == "cli." + c, total=True)
        return out

    def dump(self) -> dict:
        """Spans and counters as plain JSON-ready data."""
        return {
            "spans": [{"name": n, "start": t0, "end": t1, "parent": p,
                       "step": step}
                      for n, t0, t1, p, step in self.spans],
            "counts": [{"step": step, "name": c, "value": v}
                       for (step, c), v in sorted(self.counts.items())],
        }


def _em_sweeps(tracer, result, args, kwargs):
    if result.method == "EM":
        tracer.count("impute.em_sweeps", result.iterations)


def _bytes_read(tracer, result, args, kwargs):
    tracer.count("io.bytes_read", os.path.getsize(args[0]))


def _bytes_written(tracer, result, args, kwargs):
    tracer.count("io.bytes_written", os.path.getsize(args[0]))
