#!/usr/bin/env python3
"""Print one SHA-256 over the HBT histograms of the benchmark and criterion 7.

For each seed, in order, the hbt_fine and then the hbt_wide workload of
``perfbench/workloads.py`` (``make(name)``, read, not changed) simulates
its HBT experiment with that seed; criterion 7's experiment
(``tests/test_acceptance.py``, 3e7 photons) comes last. The digest covers
each histogram's ``coincidence_counts``, ``g2`` and ``normalization`` as
bytes. Two trees whose stream and coincidence kernel give the same bytes
print the same digest:

    PYTHONPATH=src python scripts/hbt_digest.py --seeds 1-8

The g4vlines package comes from ``PYTHONPATH``, so the same script can
digest another checkout's kernel (``PYTHONPATH=<other>/src``).
"""

import argparse
import functools
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_digest import load_workloads, seed_range  # noqa: E402

# criterion 7a/7b of tests/test_acceptance.py
CRITERION_7 = dict(rate=4e6, lifetime=4.4, purity_rho=0.959, duration=7.5,
                   bin_width=0.2, tau_max=50.0, seed=20)


def runs(seeds):
    """(label, call) of every histogram the digest covers, in order."""
    from g4vlines import simulate
    workloads = load_workloads()
    for name in ("hbt_fine", "hbt_wide"):
        workload = workloads.make(name)
        for seed in seeds:
            yield f"{name} seed {seed}", functools.partial(workload.op, seed, 0)
    yield "criterion 7", functools.partial(simulate.simulate_hbt, **CRITERION_7)


def digest(runs) -> tuple[str, int]:
    """(SHA-256 hex digest, number of histograms) over the runs' histograms."""
    h = hashlib.sha256()
    n_hists = 0
    for label, run in runs:
        hist = run()
        h.update(label.encode() + b"\n")
        h.update(np.ascontiguousarray(hist.coincidence_counts, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(hist.g2, dtype=np.float64).tobytes())
        h.update(np.float64(hist.normalization).tobytes())
        n_hists += 1
    return h.hexdigest(), n_hists


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-8"),
                        help="inclusive seed range, e.g. 1-8 (default)")
    args = parser.parse_args()
    hexdigest, n_hists = digest(runs(args.seeds))
    print(f"{hexdigest}  {n_hists} histograms, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]} and criterion 7")


if __name__ == "__main__":
    main()
