#!/usr/bin/env python3
"""Print one SHA-256 over the fit reports of the benchmark's series_fit scans.

For each seed, in order, the series_fit workload of
``perfbench/workloads.py`` (``make("series_fit")``, read, not changed)
draws its scan series with that seed and fits every scan; the digest covers
each report's JSON (``FitReport.to_dict``, floats at full precision). Two
trees whose fitter gives the same bytes print the same digest:

    PYTHONPATH=src python scripts/report_digest.py --seeds 1-12

The g4vlines package comes from ``PYTHONPATH``, so the same script can
digest another checkout's fitter (``PYTHONPATH=<other>/src``).
"""

import argparse
import hashlib
import importlib.util
import json
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def seed_range(text: str) -> range:
    """``"1-12"`` -> 1..12, ``"7"`` -> 7."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(seeds) -> tuple[str, int]:
    """(SHA-256 hex digest, number of reports) over the seeds' fit reports."""
    workload = load_workloads().make("series_fit")
    workload.setup(seeds[0], None, False)  # series_fit's set-up ignores both
    h = hashlib.sha256()
    n_reports = 0
    for seed in seeds:
        for report in workload.op(seed, 0)[2]:
            h.update(json.dumps(report.to_dict()).encode() + b"\n")
            n_reports += 1
    return h.hexdigest(), n_reports


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-12"),
                        help="inclusive seed range, e.g. 1-12 (default)")
    args = parser.parse_args()
    hexdigest, n_reports = digest(args.seeds)
    print(f"{hexdigest}  {n_reports} reports, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}")


if __name__ == "__main__":
    main()
