"""Command-line front end.

Exit codes: 0 success, 2 usage or input error, 3 model-domain error
(threshold never reached), 4 fit did not converge.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, dataio, fitting, physics, simulate
from .dataio import _boolean, _fields, _integer, _nested, _real, _text
from .emitters import PRESET_NOTES, REGISTRY, EmitterParams
from .records import FitReport

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NOT_CONVERGED = 4

OUTDIR_ENV = "G4VLINES_OUTDIR"

EVENTS_HEADER = "scan_index,point_index,time_s,kind,center_mhz"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _resolve_emitter(spec) -> EmitterParams:
    """An inline JSON object, else a file path when one exists, else a preset."""
    if isinstance(spec, dict):
        return dataio._emitter(spec)
    if os.path.exists(_text(spec)):
        return dataio.load_emitter_file(spec)
    return REGISTRY.get(spec)


def _print_rows(rows, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(key for key, _ in rows))
        print(",".join(str(val) for _, val in rows))
    else:
        width = max(len(key) for key, _ in rows)
        for key, val in rows:
            print(f"{key:<{width}}  {val}")


# ---------------------------------------------------------------------------
# predict / threshold / emitters

def _cmd_predict(args) -> int:
    emitter = _resolve_emitter(args.emitter)
    b = physics.linewidth_breakdown(emitter, args.temp, args.transition)
    rows = [
        ("emitter", b.emitter),
        ("transition", b.transition.upper()),
        ("temperature_k", b.temperature_k),
        ("gamma0_mhz", b.gamma0_mhz),
        ("gamma_others_mhz", b.gamma_others_mhz),
        ("gs_phonon_mhz", b.gs_phonon_mhz),
        ("es_phonon_mhz", b.es_phonon_mhz),
        ("total_mhz", b.total_mhz),
        ("validity", "+".join(b.flags) if b.flags else "ok"),
    ]
    _print_rows(rows, args.format)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    emitter = _resolve_emitter(args.emitter)
    t_star = physics.temperature_threshold(emitter, args.ratio)
    if math.isinf(t_star):
        print("criterion never violated: linewidth stays below "
              f"{args.ratio} x gamma0 at all temperatures", file=sys.stderr)
        return EXIT_DOMAIN
    rows = [("emitter", emitter.name), ("ratio", args.ratio),
            ("threshold_k", round(t_star, 4))]
    _print_rows(rows, args.format)
    return EXIT_OK


def _cmd_emitters(args) -> int:
    if args.action == "list":
        print(f"{'name':<6} {'f_gs_ghz':>9} {'f_es_ghz':>9} {'lifetime_ns':>12} "
              f"{'gamma0_mhz':>11} {'alpha_gs':>10} {'alpha_es':>10} "
              f"{'gamma_others_mhz':>17}")
        for name in REGISTRY.names():
            p = REGISTRY.get(name)
            print(f"{p.name:<6} {p.f_gs:>9g} {p.f_es:>9g} {p.lifetime:>12.4f} "
                  f"{p.gamma0:>11.4g} {p.alpha_gs:>10.3g} {p.alpha_es:>10.3g} "
                  f"{p.gamma_others:>17g}")
        return EXIT_OK
    p = REGISTRY.get(args.name)
    for key, val in p.to_dict().items():
        print(f"{key:<13} {val}")
    note = PRESET_NOTES.get(p.name)
    if note:
        print(f"{'note':<13} {note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit

def _print_fit_summary(report: FitReport) -> None:
    print(f"model      {report.model}")
    print(f"converged  {report.converged}  ({report.n_iterations} iterations)")
    for name, value in report.params.items():
        unit = report.units.get(name, "")
        if report.std_errors is not None:
            print(f"{name:<10} {value:.6g} +/- {report.std_errors[name]:.3g} {unit}")
        else:
            print(f"{name:<10} {value:.6g} {unit}")
    print(f"reduced_chi2 {report.reduced_chi2:.4g}")
    for name, value in report.derived.items():
        print(f"{name:<10} {value:.6g}")
    for w in report.warnings:
        print(f"warning: {w}")


def _finish_fit(report: FitReport, out_path) -> int:
    dataio.emit_fit_report(report, out_path)
    _print_fit_summary(report)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_fit(args) -> int:
    if args.what == "ple":
        spectrum = dataio.load_spectrum(args.infile)
        report = fitting.fit_lorentzian(spectrum, max_iter=args.max_iter)
    elif args.what == "lifetime":
        trace = dataio.load_decay_trace(args.infile)
        report = fitting.fit_decay(trace, args.model, max_iter=args.max_iter)
    elif args.what == "alpha":
        points = dataio.load_alpha_points(args.infile)
        report = fitting.fit_cubic_alpha(points, weights=args.weights)
    else:  # tempseries
        if args.emitter is None:
            return _fail("fit tempseries requires --emitter")
        emitter = _resolve_emitter(args.emitter)
        points = dataio.load_temperature_series(args.infile)
        free = tuple(args.free.split(","))
        report = fitting.fit_temperature_series(points, emitter, free=free,
                                                max_temp=args.max_temp)
    return _finish_fit(report, args.out)


# ---------------------------------------------------------------------------
# simulate

_SCAN_KEYS = {
    "emitter": ("emitter", _resolve_emitter),
    "temperature_k": ("temperature", _real),
    "grid_mhz": ("grid", _fields(simulate.FrequencyGrid)),
    "dwell_s": ("dwell", _real), "peak_rate": ("peak_rate", _real),
    "background_rate": ("background_rate", _real), "n_scans": ("n_scans", _integer),
    "center0_mhz": ("center0", _real),
    "diffusion_sigma_mhz": ("diffusion_sigma", _real),
    "jump_prob": ("jump_prob", _real), "jump_sigma_mhz": ("jump_sigma", _real),
    "ionization_coeff": ("ionization_coeff", _real),
    "repump": ("repump", _text), "repump_rate": ("repump_rate", _real),
    "seed": ("seed", _integer), "noiseless": ("noiseless", _boolean),
}

# simulate kind -> (name of its target in `simulate`, JSON key -> (keyword,
# caster)), read by dataio._object_kwargs. The target is looked up per
# call, not bound here, so that a wrapper put on it is the one called.
CONFIG_KEYS = {
    "ple": ("ScanSeriesConfig", _SCAN_KEYS),
    "series": ("ScanSeriesConfig", _SCAN_KEYS),
    "trpl": ("simulate_trpl", {
        "lifetime_ns": ("lifetime", _real), "counts_total": ("counts_total", _integer),
        "bin_width_ns": ("bin_width", _real), "t_max_ns": ("t_max", _real),
        "background": ("background", _nested(simulate.TrplBackground, {
            "a_fast": ("a_fast", _real), "tau_fast_ns": ("tau_fast", _real)})),
        "seed": ("seed", _integer)}),
    "hbt": ("simulate_hbt", {
        "rate": ("rate", _real), "lifetime_ns": ("lifetime", _real),
        "purity_rho": ("purity_rho", _real), "duration_s": ("duration", _real),
        "bin_width_ns": ("bin_width", _real), "tau_max_ns": ("tau_max", _real),
        "seed": ("seed", _integer)}),
}


def _write_events(events, path) -> None:
    lines = [EVENTS_HEADER]
    for ev in events:
        lines.append(f"{ev.scan_index},{ev.point_index},{ev.time_s!r},"
                     f"{ev.kind},{ev.center_mhz!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _svg_lineplot(path, x, y, xlabel, ylabel) -> None:
    """Minimal self-contained SVG polyline plot (no external renderer)."""
    width, height, margin = 640, 420, 56
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (width - 2 * margin) / (x1 - x0)
    sy = (height - 2 * margin) / (y1 - y0)
    pts = " ".join(f"{margin + (a - x0) * sx:.2f},{height - margin - (b - y0) * sy:.2f}"
                   for a, b in zip(x, y))
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="{width}" height="{height}" fill="white"/>
<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" height="{height - 2 * margin}"
 fill="none" stroke="black"/>
<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.2"/>
<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="13">{xlabel}</text>
<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="13"
 transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>
<text x="{margin}" y="{height - margin + 16}" font-size="11">{x0:.6g}</text>
<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" font-size="11">{x1:.6g}</text>
<text x="{margin - 4}" y="{height - margin}" text-anchor="end" font-size="11">{y0:.6g}</text>
<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" font-size="11">{y1:.6g}</text>
</svg>
"""
    Path(path).write_text(svg, encoding="utf-8")


def _cmd_simulate(args) -> int:
    out_dir = args.out or os.environ.get(OUTDIR_ENV)
    if not out_dir:
        return _fail(f"no output directory: pass --out or set {OUTDIR_ENV}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target_name, keys = CONFIG_KEYS[args.what]
    target = getattr(simulate, target_name)
    cfg, kwargs = dataio._read_object(
        args.config, lambda obj: (obj, dataio._object_kwargs(obj, keys, target)))
    if args.seed is not None:
        kwargs["seed"] = args.seed
    seed = kwargs.get("seed", inspect.signature(target).parameters["seed"].default)
    outputs: list[str] = []
    plots: list[tuple] = []
    if args.what == "ple":
        spectrum = simulate.simulate_ple_scan(target(**kwargs))
        dataio.save_spectrum(spectrum, out / "scan.csv")
        outputs.append("scan.csv")
        plots.append(("scan.svg", spectrum.detunings, spectrum.counts,
                      "detuning (MHz)", "counts"))
    elif args.what == "series":
        spectra, events = simulate.simulate_scan_series(target(**kwargs))
        for spec in spectra:
            name = f"scan_{spec.meta['scan_index']:03d}.csv"
            dataio.save_spectrum(spec, out / name)
            outputs.append(name)
        _write_events(events, out / "events.csv")
        outputs.append("events.csv")
        stacked = np.mean([s.counts for s in spectra], axis=0)
        plots.append(("scan_mean.svg", spectra[0].detunings, stacked,
                      "detuning (MHz)", "mean counts"))
    elif args.what == "trpl":
        trace = target(**kwargs)
        dataio.save_decay_trace(trace, out / "trace.csv")
        outputs.append("trace.csv")
        plots.append(("trace.svg", trace.bin_centers, trace.counts,
                      "time (ns)", "counts"))
    else:  # hbt
        hist = target(**kwargs)
        dataio.save_correlation(hist, out / "g2.csv")
        outputs.append("g2.csv")
        plots.append(("g2.svg", hist.tau_bins, hist.g2, "tau (ns)", "g2"))

    if args.svg:
        for name, x, y, xl, yl in plots:
            _svg_lineplot(out / name, x, y, xl, yl)
            outputs.append(name)

    manifest = {"subcommand": f"simulate {args.what}", "config": cfg,
                "seed": seed, "toolkit_version": __version__, "outputs": outputs}
    dataio._write_json(manifest, out / "manifest.json")
    print(f"wrote {', '.join(outputs)} and manifest.json to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g4vlines",
        description="Phonon-limited linewidths, lineshape fits and photon "
                    "statistics for group-IV vacancy centers in diamond.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="linewidth terms at a temperature")
    p.add_argument("--emitter", required=True, help="preset name or JSON file")
    p.add_argument("--temp", type=float, required=True, help="temperature in K")
    p.add_argument("--transition", choices=("c", "d"), default="c")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("threshold",
                       help="temperature where the C-line reaches ratio x gamma0")
    p.add_argument("--emitter", required=True)
    p.add_argument("--ratio", type=float, default=1.2)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("fit", help="fit a data file, write a JSON report")
    p.add_argument("what", choices=("ple", "lifetime", "alpha", "tempseries"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--model", choices=("exp1", "exp2"), default="exp1",
                   help="decay model (fit lifetime)")
    p.add_argument("--weights", choices=("delta", "equal"), default="delta",
                   help="weighting of the cubic-law fit (fit alpha)")
    p.add_argument("--emitter", help="emitter for fit tempseries")
    p.add_argument("--free", default="gamma_others",
                   help="comma list: gamma_others[,alpha_gs]")
    p.add_argument("--max-temp", type=float, default=None,
                   help="ignore tempseries points above this temperature")
    p.add_argument("--max-iter", type=int, default=fitting.MAX_ITERATIONS)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="run a seeded synthetic experiment")
    p.add_argument("what", choices=("ple", "series", "trpl", "hbt"))
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV})")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--svg", action="store_true", help="also render line plots")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("emitters", help="list or show builtin presets")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", help="emitter name (show)")
    p.set_defaults(func=_cmd_emitters)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "emitters" and args.action == "show" and not args.name:
        return _fail("emitters show requires a name")
    try:
        return args.func(args)
    except (dataio.DataFormatError, ValueError, KeyError) as exc:
        return _fail(dataio._message(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
