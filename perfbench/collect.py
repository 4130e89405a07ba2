#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--traced-seeds 1-3] [--out FILE.json]

Runs perfbench/run.py once per workload of BENCHMARK.json and seed, one
run at a time, with the ``run_seconds`` of BENCHMARK.json: untraced for
``--seeds``, traced for ``--traced-seeds``. For every metric it reports the median, the quartiles
and the spread (interquartile distance over the median, the figure the
end-to-end bounds are checked against), and flags each end-to-end metric
other than setup_s whose spread is not below a third of its bound (exit 1).
With ``--out`` it writes the summaries, the environment stamp and every
run's result as JSON: one point of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()

    def tagged(tag):
        return json.loads(next(line for line in lines if line.startswith(tag))[len(tag):])

    result = json.loads(lines[-1])
    # the readable table holds the raw wall-time figures; keep them too
    result["table"] = {parts[1]: float(parts[2]) for parts in map(str.split, lines)
                       if len(parts) >= 4 and parts[0] == "#" and parts[1] not in result["metrics"]
                       and parts[1] not in ("workload", "env", "params")}
    return result, tagged("# env "), tagged("# params ")


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def collect(names, seeds, seconds, trace) -> tuple[dict, dict]:
    out, env = {}, {}
    for name in names:
        runs = []
        for seed in seeds:
            result, env, params = run_once(name, seed, seconds, trace)
            runs.append(result)
            print(f"{name} trace {trace} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        out[name] = {
            "params": params,
            "summary": {k: summarise([r["metrics"][k]["value"] for r in runs])
                        for k in runs[0]["metrics"]},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": runs}
    return out, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": parse_seeds(args.seeds)}
    report["end_to_end"], report["env"] = collect(names, report["seeds"], seconds, 0)
    if args.traced_seeds:
        report["traced_seeds"] = parse_seeds(args.traced_seeds)
        report["per_layer"], _ = collect(names, report["traced_seeds"], seconds, 1)

    steady = True
    for mode in ("end_to_end", "per_layer"):
        for name, result in report.get(mode, {}).items():
            print(f"{mode} {name}: {result['failed']} of {result['attempted']} ops failed")
            for metric, s in result["summary"].items():
                flag = ""
                # A metric's bound caps both its spread over ten seeds and
                # the shift of its median between two sets of runs; a spread
                # under a third of the bound leaves room for that shift.
                # setup_s is gated on its median shift only: a run sets up
                # just three times, so its spread is shown, not flagged.
                if metric in bounds and metric != "setup_s" and \
                        s["spread"] >= bounds[metric] / 3:
                    flag = f"  NOT STEADY (bound {bounds[metric]})"
                    steady = False
                print(f"  {name:<11} {metric:<24} median {s['median']:.6g}  "
                      f"spread {s['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
