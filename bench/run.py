"""Layered benchmark of factorfill: one command, three workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc-impute --seed 1 --seconds 25 --trace 0

Workloads: mc-impute (table1-case1 replications), mc-risk (table3
replications) and cli-panel (five CLI commands on a generated CSV panel).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (setup_s, op_s, ops_per_s, peak_rss_mib); with
``--trace 1`` it holds the per-layer metrics instead.  The result is also
written to ``.bench_out/``, with the spans of a traced run.  BLAS is pinned
to one thread.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# The keys of workloads.WORKLOADS, which cannot be imported before BLAS is
# pinned because it imports numpy.
WORKLOAD_NAMES = ("mc-impute", "mc-risk", "cli-panel")

# One BLAS thread: with OpenBLAS's default of one thread per core, the same
# single-threaded replication runs slower and spreads more on a small
# machine.  Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Fresh interpreters timed for setup_s.  The fastest is taken, as op_s
# takes each step's fastest repetition: a shared host's slow spells only
# ever add time (bench/README.md has the measurements).
SETUP_LAUNCHES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent in operations before the run stops "
                        "(whole rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_time() -> float:
    """Fastest wall time of fresh interpreters that import factorfill.cli
    and exit: the cold set-up every CLI invocation pays before doing any
    work.  Each launch starts a new process, so each set-up is cold."""
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    code = "import factorfill.cli"
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return min(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "factorfill", "__init__.py")):
        sys.stderr.write(f"bench: no factorfill sources under {SRC}\n")
        return 2
    setup_s = None if args.trace else setup_time()
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import factorfill
    if not os.path.realpath(factorfill.__file__).startswith(os.path.realpath(SRC)):
        sys.stderr.write(f"bench: imported factorfill from {factorfill.__file__}, "
                         f"not from {SRC}\n")
        return 2
    from harness import run_workload

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = res.pop("tracer")
    if not args.trace:
        res["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
