"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--scale tiny]
                            [--trace spans|rings --trace-file FILE]

Plans the inputs from the seed (benchmark code, untimed), imports sosforms
from the checkout's ``src`` and builds the inputs through the package's
constructors (timed as set-up), runs the workload's operations once (timed
as the pass), and only then checks every output against the reference
computations.  Prints one JSON line.  With ``--trace`` the layers are
wrapped in recorders right after the import (``spans``: span recorders on
every layer but the rings; ``rings``: call counters on the ring element
operations only), and the recorded statistics are written to FILE.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from harness import OpFailed  # noqa: E402
from jobs_engines import Engines  # noqa: E402
from jobs_search import Search  # noqa: E402
from jobs_verify import VerifyDense, VerifySparse  # noqa: E402
from speed import SpeedClock  # noqa: E402

WORKLOADS = {w.name: w for w in (VerifySparse, VerifyDense, Engines, Search)}


def run_pass(workload_name: str, seed: int, scale: str = "full", trace: str | None = None, trace_path: str = "") -> dict:
    workdir = os.path.join(HERE, "results", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed, scale, workdir)
        with SpeedClock() as clock:
            return _timed_pass(workload, clock, trace, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_pass(workload, clock, trace, trace_path) -> dict:
    sf = clock.call(importlib.import_module, "sosforms")
    cli = clock.call(importlib.import_module, "sosforms.cli")
    if not os.path.abspath(sf.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"sosforms was imported from {sf.__file__}, not from this checkout")
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(clock.now)
        tracer.install(rings=trace == "rings")
    workload.setup(sf, cli, clock)
    setup_s, setup_raw = clock.take()
    top_level_before_pass = tracer.top_level_s() if tracer else 0.0

    outputs = []
    failures = []
    for op in workload.ops:
        try:
            outputs.append(clock.call(op.fn))
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{op.label}: {exc!r}")
            outputs.append(OpFailed(exc))
    batch_s, batch_raw = clock.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for op, out in zip(workload.ops, outputs):
        if not isinstance(out, OpFailed):
            problems += [f"{op.label}: {p}" for p in workload.check(op, out)]
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "batch_s": batch_s,
        "batch_raw_s": batch_raw,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outputs),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
    }
    if trace == "rings":
        result["layers"] = {"rings.ops": (tracer.counts["rings.ops"], "count")}
    elif trace:
        result["layers"] = tracer.metrics(batch_raw, top_level_before_pass)
    if trace and trace_path:
        with open(trace_path, "w") as fh:
            json.dump({"workload": workload.name, "seed": workload.seed, "trace": trace, **tracer.dump()}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", choices=("spans", "rings"), default=None)
    parser.add_argument("--trace-file", default="", help="write the recorded statistics here")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.perf_counter()
    result = run_pass(args.workload, args.seed, args.scale, args.trace, args.trace_file)
    result["wall_s"] = time.perf_counter() - started
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
