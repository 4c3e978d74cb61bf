"""The timed loop shared by every workload.

A run repeats whole rounds of the workload's operations until the time
spent inside operations reaches the requested seconds.  Only the steps of
an operation are timed; recording an output and the final checks are not.

Every round runs the same steps on the same inputs, so each step is timed
once per round.  Its time is the fastest of those repetitions: on a
machine shared with other tenants the noise comes in slow spells of a few
seconds that only ever add time, and the fastest repetition of a step is
the one that missed them.  A step that raises counts as infinitely slow,
so a fast failure is never taken for a fast step.  An operation's time is
the sum of its steps' times, ``op_s`` is the median of these over the
round's operations and ``ops_per_s`` is the round's operations divided by
their summed times: the rate of a run made only of those fastest
repetitions, not the run's raw count of operations over its length, which
moves with the slow spells.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

from checks import CheckFailed
from tracing import LAYER_METRICS, Tracer, best_op_times
from workloads import WORKLOADS, untraced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, round_size: int | None = None) -> dict:
    """Run ``name`` and return its result: correct, attempted, failed, the
    metrics it measured, and the tracer (None when untraced)."""
    tracer = Tracer() if trace else None
    span = tracer.span if tracer else untraced
    wl = WORKLOADS[name](seed, workdir, round_size=round_size, span=span)
    step_times = []
    attempted = failed = 0
    correct = True
    elapsed = 0.0
    try:
        with tracer.installed() if tracer else nullcontext():
            while True:
                for k in range(wl.round_size):
                    outputs = []
                    for s in range(wl.steps):
                        if tracer:
                            tracer.begin_step(len(step_times))
                        t0 = perf_counter()
                        try:
                            out = wl.op(k, s)
                        except Exception:  # a failed step fails its operation
                            traceback.print_exc()
                            out = None
                        dt = perf_counter() - t0
                        if tracer:
                            tracer.end_step()
                        step_times.append(dt if out is not None else math.inf)
                        elapsed += dt
                        outputs.append(out)
                    attempted += 1
                    if any(out is None for out in outputs):
                        failed += 1
                    else:
                        wl.record(k, outputs)
                if elapsed >= seconds:
                    break
        # ru_maxrss is in KiB on Linux; taken before the checks allocate.
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.check()
    except CheckFailed as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        correct = False
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if failed == attempted:
        sys.stderr.write("no operation succeeded\n")
        correct = False
    # Operations that never succeeded have no time; when none did, the
    # mean time of an attempt stands in so that the result stays valid JSON.
    best = [t for t in best_op_times(step_times, wl.round_size, wl.steps)
            if math.isfinite(t)] or [elapsed / attempted]
    if trace:
        values = tracer.metrics(len(step_times), wl.round_size, wl.steps)
        values["trace.op_s"] = statistics.median(best)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS}
    else:
        metrics = {
            "op_s": {"value": statistics.median(best), "unit": "s"},
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "tracer": tracer}
