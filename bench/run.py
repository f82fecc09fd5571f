"""Benchmark of the sosforms workbench: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload one after another, each in a fresh
single-threaded interpreter (``worker.py``), until ``S`` seconds have passed
(at least three passes).  Every pass runs the workload's whole job list, so
``attempted`` and ``failed`` grow by whole rounds.

With ``--trace 0`` the last line of stdout is the end-to-end result: the
medians over the passes of ``batch_s`` (one pass, speed-scaled wall time, see
``speed.py``), ``setup_s`` (import and input construction, speed-scaled) and
``peak_rss_mb``.  With ``--trace 1`` the passes alternate between untraced
and span-traced, plus one pass that counts ring operations, and the result
holds the per-layer metrics (medians over the traced passes) and the tracing
overhead.  Span statistics and every pass's figures are written under
``bench/results/``.  Exit code 0 when every pass ran; ``correct`` says whether
every output passed its checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-sparse", "verify-dense", "engines", "search")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, kind: str, index: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    if kind != "plain":
        trace_file = os.path.join(HERE, "results", f"trace-{args.workload}-seed{args.seed}-{index}-{kind}.json")
        cmd += ["--trace", kind, "--trace-file", trace_file]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass {index} ({kind}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["kind"] = kind
    return result


def _schedule(trace: bool):
    """Kinds of the successive passes."""
    if not trace:
        while True:
            yield "plain"
    yield from ("plain", "spans", "rings")
    while True:
        yield "plain"
        yield "spans"


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run(args) -> dict:
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    # Byte-compile first, so the first pass does not pay for it in set-up.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    deadline = time.monotonic() + args.seconds
    passes = []
    for index, kind in enumerate(_schedule(args.trace == 1)):
        if len(passes) >= MIN_PASSES and time.monotonic() >= deadline:
            break
        passes.append(_run_worker(args, kind, index))

    problems = [p for r in passes for p in r["problems"]]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in sorted({f for r in passes for f in r["failures"]}):
        print(f"operation failed: {failure}", file=sys.stderr)
    plain = [p for p in passes if p["kind"] == "plain"]
    if args.trace == 0:
        metrics = {
            "batch_s": {"value": _median(plain, "batch_s"), "unit": "s"},
            "setup_s": {"value": _median(plain, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
        }
    else:
        spans = [p for p in passes if p["kind"] == "spans"]
        counted = [p for p in passes if p["kind"] in ("spans", "rings")]
        names = {name: unit for p in counted for name, (_, unit) in p["layers"].items()}
        metrics = {
            name: {"value": statistics.median(p["layers"][name][0] for p in counted if name in p["layers"]),
                   "unit": unit}
            for name, unit in sorted(names.items())
        }
        metrics["trace.pass_s"] = {"value": _median(spans, "batch_raw_s"), "unit": "s"}
        metrics["trace.overhead"] = {
            "value": _median(spans, "batch_s") / _median(plain, "batch_s") - 1, "unit": "ratio"}
    summary = os.path.join(HERE, "results", f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(summary, "w") as fh:
        json.dump({"args": vars(args), "passes": passes, "metrics": metrics}, fh, indent=1)
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a smoke-test size of every job list")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sosforms", "__init__.py")):
        print(f"error: no sosforms package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
