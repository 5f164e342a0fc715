"""Run one psdsample benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline-5d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload's inputs from the seed, performs
operations one after another (a closed loop, one process, one BLAS
thread) until ``--seconds`` have passed and at least MIN_OPS are done,
then checks every operation's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones from spans recorded
around the calls into each module (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
# The imports of numpy, scipy and the package are most of the set-up, and
# one import varied from 0.8 to 1.3 s between back-to-back processes, so
# they are timed again in fresh interpreters and the median is reported.
_IMPORT = ("import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
           "import checks, tracing, workloads; print(time.perf_counter() - start)")
MIN_OPS = 3
# One BLAS thread: on a 2-vCPU machine a second OpenBLAS thread made
# fit_psd faster but operation times noisier from run to run.
BLAS_THREADS = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_s(paths: list[str]) -> float:
    """Seconds to import the benchmark's modules in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT, *paths], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Loop:
    """Attempted and failed operations, with the wall time of each success."""

    def __init__(self, workload, state, instrument):
        self.workload = workload
        self.state = state
        self.instrument = instrument
        self.attempted = 0
        self.failed = 0
        self.results = []

    def run(self, tracer=None) -> float | None:
        """One operation, traced when a tracer is given; None if it failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
            self.instrument(tracer)
        try:
            result, seconds = _timed(self.workload.op, self.state)
        except Exception:  # a failed operation is counted, and the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.restore()
        self.results.append(result)
        return seconds


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "psdsample" / "__init__.py").is_file():
        print(f"no package source at {src}; run from a psdsample checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(BENCH)]

    import checks
    import tracing
    import workloads

    import_times = [time.perf_counter() - started]
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_times += [_import_s(sys.path[:2]) for _ in range(SETUP_REPEATS - 1)]
    workload = workloads.WORKLOADS[args.workload]
    out_dir = BENCH / "out"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = out_dir / f"{tag}-p{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            state, seconds = _timed(workload.setup, args.seed, str(workdir))
            setup_times.append(seconds)
        loop = Loop(workload, state, tracing.instrument)
        start = time.perf_counter()
        if args.trace:
            # one untraced warm-up, then traced (T) and untraced (U)
            # operations in T U U T blocks, so drift hits both sides alike
            tracer = tracing.Tracer()
            loop.run()
            traced, untraced = [], []
            op_times = [traced, untraced]
            while not traced or time.perf_counter() - start < args.seconds:
                for side in (traced, untraced, untraced, traced):
                    seconds = loop.run(tracer if side is traced else None)
                    if seconds is not None:
                        side.append(seconds)
            tracer.write(str(out_dir / f"trace-{tag}.json"))
            metrics = tracing.layer_metrics(tracer, traced, untraced)
        else:
            op_times = []
            while len(op_times) + loop.failed < MIN_OPS or time.perf_counter() - start < args.seconds:
                seconds = loop.run()
                if seconds is not None:
                    op_times.append(seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # the fastest sampling run: on a shared host slow phases lasting
            # tens of seconds only add time, while a change to the program
            # moves every run, the fastest too
            rates = [r["n_samples"] / s for r in loop.results for s in r["sample_s"]]
            metrics = {
                "setup_s": {"value": statistics.median(import_times)
                            + statistics.median(setup_times), "unit": "s"},
                "op_s": {"value": statistics.median(op_times) if op_times else 0.0, "unit": "s"},
                "samples_per_s": {"value": max(rates) if rates else 0.0,
                                  "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        check_start = time.perf_counter()
        correct = False
        try:
            checks.require(bool(loop.results), "no operation succeeded")
            details = workload.check(state, loop.results)
            correct = True
        except checks.CheckFailed as exc:
            details = {"check_failed": str(exc)}
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "import_s": import_times,
                      "setup_s": setup_times, "op_s": op_times, "check_s": check_s,
                      "checks": details}, default=float), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
