#!/usr/bin/env python3
"""Print two SHA-256 digests: of the benchmark's series_fit fit reports,
and of the decay, temperature-series and alpha fits.

For each seed, in order, the series_fit workload of
``perfbench/workloads.py`` (``make("series_fit")``, read, not changed)
draws its scan series with that seed and fits every scan; the first digest
covers each report's JSON (``FitReport.to_dict``, floats at full
precision). The second covers the exp1 and exp2 ``fit_decay`` reports of
the cli workload's TRPL trace for each seed, then those of the
``fixtures/`` trace, its temperature series with one and two free
parameters, and its alpha points with ``delta`` and ``equal`` weights. Two
trees whose fitter gives the same bytes print the same digests:

    PYTHONPATH=src python scripts/report_digest.py --seeds 1-12

The g4vlines package comes from ``PYTHONPATH``, so the same script can
digest another checkout's fitter (``PYTHONPATH=<other>/src``).
"""

import argparse
import functools
import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
FIXTURES = ROOT / "fixtures"

# the TRPL trace of the cli workload (Cli.setup in perfbench/workloads.py),
# drawn there with seed op_seed(seed, 0, 2)
CLI_TRPL = dict(lifetime=5.5, counts_total=2_000_000, bin_width=0.1, t_max=60.0)
CLI_TRPL_BACKGROUND = dict(a_fast=6.0, tau_fast=0.5)


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


def other_fits(seeds):
    """(label, call) of every fit the second digest covers, in order."""
    import g4vlines as g
    from g4vlines import dataio
    op_seed = load_workloads().op_seed
    traces = [(f"cli trace seed {seed}", functools.partial(
        g.simulate_trpl, **CLI_TRPL,
        background=g.TrplBackground(**CLI_TRPL_BACKGROUND),
        seed=op_seed(seed, 0, 2))) for seed in seeds]
    traces.append(("fixture trace", functools.partial(
        dataio.load_decay_trace, FIXTURES / "trpl_gev.csv")))
    for label, make_trace in traces:
        trace = make_trace()
        for model in ("exp1", "exp2"):
            yield f"{label} {model}", functools.partial(g.fit_decay, trace, model)
    emitter = dataio.load_emitter_file(FIXTURES / "emitter_pbv.json")
    series = dataio.load_temperature_series(FIXTURES / "tempseries_pbv.csv")
    for free in (("gamma_others",), ("gamma_others", "alpha_gs")):
        yield f"fixture tempseries {len(free)} free", functools.partial(
            g.fit_temperature_series, series, emitter, free=free)
    alpha = dataio.load_alpha_points(FIXTURES / "alpha_points.csv")
    for weights in ("delta", "equal"):
        yield f"fixture alpha {weights}", functools.partial(
            g.fit_cubic_alpha, alpha, weights=weights)


def fits_digest(fits) -> tuple[str, int]:
    """(SHA-256 hex digest, number of reports) over the fits' reports."""
    h = hashlib.sha256()
    n_reports = 0
    for label, fit in fits:
        h.update(label.encode() + b"\n")
        h.update(json.dumps(fit().to_dict()).encode() + b"\n")
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
    hexdigest, n_reports = fits_digest(other_fits(args.seeds))
    print(f"{hexdigest}  {n_reports} decay, temperature-series and alpha "
          f"reports, seeds {args.seeds[0]}-{args.seeds[-1]} and fixtures")


if __name__ == "__main__":
    main()
