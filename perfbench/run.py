#!/usr/bin/env python3
"""g4vlines benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hbt_fine --seed 1 --seconds 20 --trace 0

The workload runs in PROCESSES fresh child processes (perfbench/child.py),
one after another, each measuring for seconds/PROCESSES in a closed loop:
one caller starts the next op only when the last one has finished. Every op
is checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the environment stamp and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROCESSES = 3          # fresh processes per run; setup_s is their median
DEADLINE_S = 170.0     # a run never outlives this, whatever --seconds says
P90_MIN_OPS = 50       # op_p90_s is printed only with this many timed ops
# Reference-loop time setup_s is scaled to: its median on a 2-core Intel
# Xeon VM with Python 3.11 and NumPy 2.4.
REF_NOMINAL_S = 0.040
WORK_DIR = Path(".perfbench_work")
OUT_DIR = Path(".perfbench_out")

END_TO_END_UNITS = {"setup_s": "s", "op_median_norm": "ratio", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "kernels.busy_s": "s", "kernels.calls": "count", "kernels.photons": "count",
    "kernels.pairs": "count", "kernels.bins": "count", "kernels.pairs_per_s": "1/s",
    "kernels.share": "ratio", "simulate.hbt_self_s": "s", "simulate.photons": "count",
    "simulate.series_busy_s": "s", "simulate.scan_points": "count",
    "simulate.charge_events": "count", "fitting.busy_s": "s", "fitting.fits": "count",
    "fitting.iterations": "count", "fitting.converged_ratio": "ratio",
    "physics.busy_s": "s", "physics.calls": "count", "dataio.busy_s": "s",
    "dataio.bytes": "B", "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    """What the numbers depend on besides the code: results with different
    stamps are not comparable (numba, for one, switches the kernel)."""
    import importlib.util

    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "G4VLINES_NUMBA": os.environ.get("G4VLINES_NUMBA"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree.

    The search stops at the checkout's root, so a repository that merely
    encloses the checkout is not reported.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().resolve().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_children(args, workdir: Path, deadline: float) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path("src").resolve())] + ([os.environ["PYTHONPATH"]]
                                        if os.environ.get("PYTHONPATH") else [])),
        # one thread per process: the loop is closed and single-caller
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    for stream in range(PROCESSES):
        result = workdir / f"child{stream}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--stream", str(stream), "--seconds", str(args.seconds / PROCESSES),
               "--trace", str(args.trace), "--scale", str(args.scale),
               "--started", repr(time.monotonic()),
               "--workdir", str(workdir / f"w{stream}"), "--result", str(result)]
        proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"child {stream} ran past the {DEADLINE_S:.0f} s deadline")
        if code != 0:
            raise RuntimeError(f"child {stream} exited with code {code}")
        results.append(json.loads(result.read_text(encoding="utf-8")))
    return results


def end_to_end(children: list[dict]) -> dict:
    """The gated metrics. Raw times drift with the machine's speed, so each is
    taken relative to the reference loop timed next to it: op time over the
    reference time around the op, and set-up time scaled by the nominal over
    the measured reference time right after set-up."""
    norm = [t / ((before + after) / 2)
            for c in children
            for t, before, after in zip(c["op_times"], c["ref_times"], c["ref_times"][1:])]
    return {
        "setup_s": statistics.median(c["setup_s"] * REF_NOMINAL_S / c["setup_ref_s"]
                                     for c in children),
        "op_median_norm": statistics.median(norm),
        "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024.0,
    }


def raw_times(wl, children: list[dict]) -> dict:
    """Wall-time figures printed beside the gated metrics, with units."""
    times = [t for c in children for t in c["op_times"]]
    rates = [w / t for c in children for w, t in zip(c["op_work"], c["op_times"])]
    out = {"setup_raw_s": (statistics.median(c["setup_s"] for c in children), "s"),
           "op_median_s": (statistics.median(times), "s"),
           f"{wl.unit}_per_s": (statistics.median(rates), "1/s"),
           "ref_loop_s": (statistics.median(r for c in children for r in c["ref_times"]), "s")}
    if len(times) >= P90_MIN_OPS:
        out["op_p90_s"] = (statistics.quantiles(times, n=10)[-1], f"s, n={len(times)}")
    return out


def per_layer(children: list[dict], wl) -> dict:
    spans = [c["spans"] for c in children]
    traced = [t for c in children for t, f in zip(c["op_times"], c["op_traced"]) if f]
    plain = [t for c in children for t, f in zip(c["op_times"], c["op_traced"]) if not f]
    metrics, called = tracing.layer_metrics(spans, len(traced))
    missing = [name for name in wl.expected_spans if not called.get(name)]
    if missing:
        raise RuntimeError(f"traced run recorded no calls of {', '.join(missing)}; "
                           "the tracer no longer wraps what the workload calls")
    metrics["cli.import_s"] = statistics.median(c["import_s"] for c in children)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def table(args, wl, metrics: dict, units: dict, children: list[dict]) -> None:
    """Readable lines before the JSON result."""
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    rows = {name: (value, units[name]) for name, value in metrics.items()}
    if not args.trace:
        rows.update(raw_times(wl, children))
    attempted = sum(c["attempted"] for c in children)
    rows["failed_ratio"] = (sum(c["failed"] for c in children) / attempted, "ratio")
    for name, (value, unit) in rows.items():
        print(f"#   {name:<26} {value:.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink workload sizes (smoke runs only)")
    args = parser.parse_args()
    if not Path("src/g4vlines/__init__.py").is_file():
        print("error: run from the root of a g4vlines checkout (no src/g4vlines)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.make(args.workload, args.scale)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        children = run_children(args, workdir, deadline)
        if args.trace:
            metrics, units = per_layer(children, wl), LAYER_UNITS
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps([c["spans"] for c in children]), encoding="utf-8")
        else:
            metrics, units = end_to_end(children), END_TO_END_UNITS
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for err in c["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# params " + json.dumps(wl.params, sort_keys=True, default=str))
    table(args, wl, metrics, units, children)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
