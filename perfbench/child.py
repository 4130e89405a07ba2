"""One fresh process of a benchmark run: set up, warm up, then time ops.

Started by run.py, one process at a time. It imports g4vlines from the
checkout's ``src``, builds the workload's inputs from the seed, runs one
checked warm-up round, then runs checked ops in a closed loop until its
time budget is spent, with a fixed reference loop timed after set-up and
after each op, and writes what it measured as JSON to ``--result``.

With ``--trace 1`` rounds of ops alternate between traced and untraced; the
traced ones run with every layer wrapped by ``tracing.Tracer`` and keep
their spans, and the untraced ones give the base of the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

_REFERENCE_DATA = np.random.default_rng(0).random(200_000)


def reference_loop() -> float:
    """Wall time of fixed work, bytecode and numpy, run between timed ops.

    The machine's speed drifts by tens of percent over minutes; dividing an
    op's time by the reference time measured around it cancels most of it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    np.sort(_REFERENCE_DATA)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import g4vlines
    src = Path("src").resolve()
    if Path(g4vlines.__file__).resolve().parent.parent != src:
        print(f"g4vlines was imported from {g4vlines.__file__}, not {src}",
              file=sys.stderr)
        return 1
    import g4vlines.cli  # noqa: F401  the tracer wraps cli.main

    wl = workloads.make(args.workload, args.scale)
    args.workdir.mkdir(parents=True, exist_ok=True)
    wl.setup(args.seed, args.workdir, bool(args.trace))
    tracer = tracing.Tracer()
    attempted = failed = 0
    errors: list[str] = []

    def run_op(index: int, traced: bool):
        nonlocal attempted, failed
        seed = workloads.op_seed(args.seed, args.stream, index)
        attempted += 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                result = tracer.call("op", wl.op, seed, index)
            else:
                result = wl.op(seed, index)
        except Exception:  # an op that raises is a failed op, not a crash
            errors.append(traceback.format_exc(limit=3))
            failed += 1
            return time.perf_counter() - start, None
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        problem = wl.check(result)
        if problem:
            errors.append(problem)
            failed += 1
        return elapsed, result

    index = 0
    for _ in range(wl.ops_per_round):  # warm-up round, checked, not timed
        run_op(index, False)
        index += 1
    setup_s = time.monotonic() - args.started
    setup_ref_s = statistics.median(reference_loop() for _ in range(3))

    times: list[float] = []
    work: list[float] = []
    traced_flags: list[bool] = []
    ref_times = [reference_loop()]
    rounds = 0
    min_rounds = 2 if args.trace else 1
    measure_start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - measure_start < args.seconds:
        traced = bool(args.trace) and rounds % 2 == 0
        rounds += 1
        for _ in range(wl.ops_per_round):
            elapsed, result = run_op(index, traced)
            index += 1
            times.append(elapsed)
            work.append(wl.work(result) if result is not None else 0.0)
            traced_flags.append(traced)
            ref_times.append(reference_loop())

    out = {
        "setup_s": setup_s, "setup_ref_s": setup_ref_s,
        "op_times": times, "ref_times": ref_times, "op_work": work,
        "op_traced": traced_flags, "attempted": attempted, "failed": failed,
        "errors": errors[:20], "maxrss_kb": wl.peak_rss_kb(),
        "spans": tracer.spans, "import_s": getattr(wl, "import_s", 0.0),
    }
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
