#!/usr/bin/env python3
"""Print four SHA-256 digests: of the fit reports and the HBT histograms.

1. For each seed, in order, the series_fit workload of
   ``perfbench/workloads.py`` (``make("series_fit")``, read, not changed)
   draws its scan series with that seed and fits every scan; the digest
   covers each report's JSON (``FitReport.to_dict``, floats at full
   precision); its label adds the reports' total ``n_iterations`` and how
   many did not converge.
2. The exp1 and exp2 ``fit_decay`` reports of the cli workload's TRPL trace
   for each seed, then those of the ``fixtures/`` trace, its temperature
   series with one and two free parameters, its alpha points with
   ``delta`` and ``equal`` weights, and ``fit_lorentzian`` on its PLE scan;
   each report's label, then its JSON; its label adds the reports' total
   ``n_iterations`` and how many did not converge, as line 1's does.
3. For each seed the hbt_fine workload simulates its HBT experiment, a
   stream of one segment. The digest covers each histogram's label, then
   its ``coincidence_counts``, ``g2`` and ``normalization`` as bytes.
4. The same for each seed's hbt_wide experiment and then criterion 7's
   (``tests/test_acceptance.py``, 3e7 photons): streams of many segments,
   whose bytes change with the segment size.

Two trees whose fitter, stream and coincidence kernel give the same bytes
print the same digests:

    PYTHONPATH=src python scripts/digest.py --seeds 1-12

The g4vlines package comes from ``PYTHONPATH``, so the same script can
digest another checkout (``PYTHONPATH=<other>/src``).
"""

import argparse
import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
FIXTURES = ROOT / "fixtures"

# the TRPL trace of the cli workload (Cli.setup in perfbench/workloads.py),
# drawn there with seed op_seed(seed, 0, 2)
CLI_TRPL = dict(lifetime=5.5, counts_total=2_000_000, bin_width=0.1, t_max=60.0)
CLI_TRPL_BACKGROUND = dict(a_fast=6.0, tau_fast=0.5)

# criterion 7a/7b of tests/test_acceptance.py
CRITERION_7 = dict(rate=4e6, lifetime=4.4, purity_rho=0.959, duration=7.5,
                   bin_width=0.2, tau_max=50.0, seed=20)


def seed_range(text: str) -> range:
    """``"1-12"`` -> 1..12, ``"7"`` -> 7; an empty range such as ``"5-3"``
    is an error, which argparse reports as a usage error."""
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(items) -> tuple[str, int]:
    """(SHA-256 hex digest, number of items) over byte strings, in order."""
    h = hashlib.sha256()
    n_items = 0
    for item in items:
        h.update(item)
        n_items += 1
    return h.hexdigest(), n_items


def report_bytes(report) -> bytes:
    return json.dumps(report.to_dict()).encode() + b"\n"


def histogram_bytes(hist) -> bytes:
    return (np.ascontiguousarray(hist.coincidence_counts, dtype=np.int64).tobytes()
            + np.ascontiguousarray(hist.g2, dtype=np.float64).tobytes()
            + np.float64(hist.normalization).tobytes())


def called(calls):
    """(label, call()) of each (label, call), one call at a time."""
    for label, call in calls:
        yield label, call()


def labelled(results, to_bytes):
    """Each (label, result)'s label and a newline, then the result's bytes."""
    for label, result in results:
        yield label.encode() + b"\n" + to_bytes(result)


def totals(reports) -> str:
    """The reports' total ``n_iterations`` and unconverged count."""
    return (f"{sum(report.n_iterations for report in reports)} iterations, "
            f"{sum(not report.converged for report in reports)} unconverged")


def series_fit_reports(seeds):
    """The series_fit op's fit reports for each seed, in order."""
    workload = load_workloads().make("series_fit")
    workload.setup(seeds[0], None, False)  # series_fit's set-up ignores both
    for seed in seeds:
        yield from workload.op(seed, 0)[2]


def other_fits(seeds):
    """(label, call) of every fit of line 2, in order."""
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
    yield "fixture ple", functools.partial(
        g.fit_lorentzian, dataio.load_spectrum(FIXTURES / "ple_pbv.csv"))


def runs(seeds, name):
    """(label, call) of the named workload's histogram for each seed."""
    workload = load_workloads().make(name)
    for seed in seeds:
        yield f"{name} seed {seed}", functools.partial(workload.op, seed, 0)


def long_runs(seeds):
    """(label, call) of every histogram of line 4, in order."""
    from g4vlines import simulate
    yield from runs(seeds, "hbt_wide")
    yield "criterion 7", functools.partial(simulate.simulate_hbt, **CRITERION_7)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-12"),
                        help="inclusive seed range, e.g. 1-12 (default)")
    seeds = parser.parse_args().seeds
    span = f"seeds {seeds[0]}-{seeds[-1]}"
    reports = list(series_fit_reports(seeds))
    fits = list(called(other_fits(seeds)))
    lines = [
        (map(report_bytes, reports), f"reports, {span}, {totals(reports)}"),
        (labelled(fits, report_bytes),
         f"decay, temperature-series, alpha and PLE reports, {span} and "
         f"fixtures, {totals(report for _, report in fits)}"),
        (labelled(called(runs(seeds, "hbt_fine")), histogram_bytes),
         f"hbt_fine histograms, {span}"),
        (labelled(called(long_runs(seeds)), histogram_bytes),
         f"hbt_wide histograms, {span}, and criterion 7")]
    for items, what in lines:
        hexdigest, n_items = digest(items)
        print(f"{hexdigest}  {n_items} {what}")


if __name__ == "__main__":
    main()
