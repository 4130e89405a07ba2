"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload draws every input from the run seed, runs one operation
("op") per call and checks the op's output against an oracle that does not
depend on how the program computes it: the analytic g2 for HBT histograms,
the model linewidth for fitted PLE scans, and exit codes, parsed reports,
closed-form physics and rerun determinism for the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# Standard-normal quantile of the one-sided false-alarm probability (1e-6)
# allowed to a statistical check on a correct program.
FALSE_ALARM_Z = 4.753


def op_seed(seed: int, stream: int, index: int) -> int:
    """Seed of op ``index`` in process ``stream`` of a run with ``seed``."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1, np.uint64)
    return int(state[0])


def chi2_limit_per_dof(dof: int) -> float:
    """chi2/dof exceeded with probability 1e-6 (Wilson-Hilferty)."""
    c = 2.0 / (9.0 * dof)
    return (1.0 - c + FALSE_ALARM_Z * math.sqrt(c)) ** 3


def analytic_chi2_per_dof(hist, rate, lifetime_ns, rho, bin_width) -> float:
    """Pearson chi2/dof of HBT coincidences against the bin-averaged g2.

    g2 = 1 + rho^2 (g2_src - 1) with g2_src = 1 - exp(-|tau|/tau_c) and
    tau_c = 1/(W + 1/lifetime), averaged over each bin.
    """
    excitation = 1.0 / (1.0 / (rho * rate) - lifetime_ns * 1e-9)
    tau_c = 1e9 / (excitation + 1e9 / lifetime_ns)
    tau = hist.tau_bins
    lo = np.maximum(np.abs(tau) - bin_width / 2.0, 0.0)
    hi = np.abs(tau) + bin_width / 2.0
    avg_exp = np.where(
        np.abs(tau) < bin_width / 4.0,
        (2.0 * tau_c / bin_width) * (1.0 - np.exp(-bin_width / (2.0 * tau_c))),
        (tau_c / bin_width) * (np.exp(-lo / tau_c) - np.exp(-hi / tau_c)))
    expected = (1.0 - rho ** 2 * avg_exp) * hist.normalization
    return float(np.sum((hist.coincidence_counts - expected) ** 2 / expected)) / len(tau)


class Workload:
    """Base class: ``setup`` once per process, then ``op`` and ``check``."""

    name = ""
    unit = ""                # what ``work`` counts, for the rate metric
    ops_per_round = 1        # the timed loop stops only at round boundaries
    expected_spans: tuple = ()

    def setup(self, seed: int, workdir: Path, traced: bool) -> None:
        pass

    def op(self, seed: int, index: int):
        raise NotImplementedError

    def check(self, result) -> str | None:
        """Return a description of what is wrong, or None."""
        raise NotImplementedError

    def work(self, result) -> float:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that ran g4vlines code (this one)."""
        return vm_hwm_kb(Path("/proc/self/status").read_text(encoding="utf-8"))


def vm_hwm_kb(status: str) -> int:
    """VmHWM of a /proc/<pid>/status text, in kB.

    Unlike ru_maxrss it covers only the process's own address space: on
    exec Linux folds the parent's peak into ru_maxrss of the new process.
    """
    line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
    return int(line.split()[1])


# Runs ``python -m g4vlines`` and reports its own peak RSS on stderr.
CLI_RUNNER = """\
import runpy, sys
try:
    runpy.run_module("g4vlines", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\n" + open("/proc/self/status").read())
"""


class Hbt(Workload):
    unit = "photons"
    expected_spans = ("simulate.simulate_hbt", "kernels.coincidence_histogram")

    def __init__(self, name, scale, **params):
        self.name = name
        self.params = dict(params, duration_s=params["duration_s"] * scale)

    def op(self, seed, index):
        from g4vlines import simulate
        p = self.params
        return simulate.simulate_hbt(
            p["rate"], p["lifetime_ns"], p["purity_rho"], p["duration_s"],
            bin_width=p["bin_width_ns"], tau_max=p["tau_max_ns"], seed=seed)

    def check(self, hist):
        p = self.params
        chi2 = analytic_chi2_per_dof(hist, p["rate"], p["lifetime_ns"],
                                     p["purity_rho"], p["bin_width_ns"])
        limit = chi2_limit_per_dof(len(hist))
        if not chi2 < limit:
            return f"chi2/dof = {chi2:.3f} >= {limit:.3f} against the analytic g2"
        return None

    def work(self, hist):
        return self.params["rate"] * self.params["duration_s"]


class SeriesFit(Workload):
    name = "series_fit"
    unit = "scan_points"
    expected_spans = ("simulate.simulate_scan_series", "fitting.fit_lorentzian")
    FWHM_TOLERANCE = 0.05

    def __init__(self, scale, **params):
        self.params = dict(params, n_scans=max(int(params["n_scans"] * scale), 20))

    def setup(self, seed, workdir, traced):
        import g4vlines as g
        p = self.params
        self.base = dict(
            emitter=g.REGISTRY.get(p["emitter"]), temperature=p["temperature_k"],
            grid=g.FrequencyGrid(*p["grid_mhz"]), dwell=p["dwell_s"],
            peak_rate=p["peak_rate"], background_rate=p["background_rate"],
            n_scans=p["n_scans"], diffusion_sigma=p["diffusion_sigma_mhz"],
            jump_prob=p["jump_prob"], jump_sigma=p["jump_sigma_mhz"],
            ionization_coeff=p["ionization_coeff"], repump=p["repump"],
            repump_rate=p["repump_rate"])
        self.fwhm = g.physics.linewidth_c(self.base["emitter"], p["temperature_k"])

    def op(self, seed, index):
        from g4vlines import fitting, simulate
        cfg = simulate.ScanSeriesConfig(seed=seed, **self.base)
        spectra, events = simulate.simulate_scan_series(cfg)
        return spectra, events, [fitting.fit_lorentzian(s) for s in spectra]

    def bright_throughout(self, n_scans, events) -> list[bool]:
        """Scans that start bright and log no charge event, from the event log.

        A dark scan with no events stays dark throughout, so the charge
        state is carried from scan to scan as the repump policy says.
        """
        kinds: dict[int, list[str]] = {}
        for ev in events:
            if ev.kind != "scan_start":
                kinds.setdefault(ev.scan_index, []).append(ev.kind)
        bright = True
        clean = []
        for k in range(n_scans):
            if self.params["repump"] == "between_scans":
                bright = True
            clean.append(bright and k not in kinds)
            for kind in kinds.get(k, ()):
                bright = kind == "repump"
        return clean

    def check(self, result):
        spectra, events, reports = result
        clean = self.bright_throughout(len(spectra), events)
        if sum(clean) < len(spectra) / 2:
            return f"only {sum(clean)} of {len(spectra)} scans stayed bright"
        for k, (ok, rep) in enumerate(zip(clean, reports)):
            if not ok:
                continue
            err = abs(rep.params["fwhm"] - self.fwhm) / self.fwhm
            if not rep.converged or not err <= self.FWHM_TOLERANCE:
                return (f"scan {k}: converged={rep.converged}, fwhm "
                        f"{rep.params['fwhm']:.3f} vs model {self.fwhm:.3f} MHz")
        return None

    def work(self, result):
        return sum(len(s) for s in result[0])


class Cli(Workload):
    """Every subcommand as a fresh interpreter, or in-process when traced."""

    name = "cli"
    unit = "commands"
    expected_spans = (
        "cli.main", "physics.linewidth_breakdown", "physics.temperature_threshold",
        "fitting.fit_lorentzian", "fitting.fit_decay", "fitting.fit_cubic_alpha",
        "fitting.fit_temperature_series", "dataio.load_spectrum",
        "dataio.emit_fit_report", "simulate.simulate_hbt",
        "simulate.simulate_scan_series", "kernels.coincidence_histogram")

    def __init__(self, **params):
        self.params = params

    def setup(self, seed, workdir, traced):
        import g4vlines as g
        from g4vlines import dataio
        rng = np.random.default_rng(op_seed(seed, 0, 0))
        self.traced = traced
        self.command_rss_kb = 0
        pbv = g.REGISTRY.get("PbV")

        ple = g.ScanSeriesConfig(
            emitter=pbv, temperature=6.2, grid=g.FrequencyGrid(-150.0, 150.0, 2.0),
            dwell=0.2, peak_rate=5000.0, background_rate=50.0,
            seed=op_seed(seed, 0, 1))
        dataio.save_spectrum(g.simulate_ple_scan(ple), workdir / "scan.csv")
        trace = g.simulate_trpl(
            5.5, 2_000_000, bin_width=0.1, t_max=60.0,
            background=g.TrplBackground(a_fast=6.0, tau_fast=0.5),
            seed=op_seed(seed, 0, 2))
        dataio.save_decay_trace(trace, workdir / "trace.csv")
        alpha = 7.51e-9 * rng.uniform(0.9, 1.1)
        rows = [f"{f!r},{alpha * f ** 3 * 1e3 * rng.uniform(0.97, 1.03)!r}"
                for f in (200.0, 821.0, 3870.0)]
        (workdir / "alpha.csv").write_text(
            "splitting_ghz,delta_mhz\n" + "\n".join(rows) + "\n", encoding="utf-8")
        temps = np.arange(6.0, 19.0, 2.0)
        widths = g.linewidth_c(pbv, temps) + rng.normal(0.0, 0.2, temps.size)
        rows = [f"{float(t)!r},{float(w)!r}" for t, w in zip(temps, widths)]
        (workdir / "tempseries.csv").write_text(
            "temperature_k,linewidth_mhz\n" + "\n".join(rows) + "\n", encoding="utf-8")

        temp = float(rng.uniform(4.0, 12.0))
        ratio = float(rng.uniform(1.1, 1.5))
        emitter = str(rng.choice(["SnV", "PbV"]))
        self.expect_total = g.linewidth_c(pbv, temp)
        self.expect_threshold = round(g.temperature_threshold(g.REGISTRY.get(emitter), ratio), 4)

        configs = {kind: dict(cfg, seed=op_seed(seed, 0, 3 + i))
                   for i, (kind, cfg) in enumerate(self.params["simulate"].items())}
        for kind, cfg in configs.items():
            (workdir / f"{kind}.json").write_text(json.dumps(cfg), encoding="utf-8")

        w = str(workdir)
        self.commands = [
            ("emitters", ["emitters", "list"]),
            ("emitters", ["emitters", "show", "PbV"]),
            ("predict", ["predict", "--emitter", "PbV", "--temp", repr(temp),
                         "--format", "csv"]),
            ("threshold", ["threshold", "--emitter", emitter, "--ratio", repr(ratio),
                           "--format", "csv"]),
            ("fit", ["fit", "ple", "--in", f"{w}/scan.csv", "--out", f"{w}/report_ple.json"]),
            ("fit", ["fit", "lifetime", "--in", f"{w}/trace.csv", "--model", "exp2",
                     "--out", f"{w}/report_lifetime.json"]),
            ("fit", ["fit", "alpha", "--in", f"{w}/alpha.csv", "--out", f"{w}/report_alpha.json"]),
            ("fit", ["fit", "tempseries", "--in", f"{w}/tempseries.csv",
                     "--emitter", "PbV", "--out", f"{w}/report_tempseries.json"]),
        ] + [("simulate", ["simulate", kind, "--config", f"{w}/{kind}.json",
                           "--out", f"{w}/out_{kind}"]) for kind in configs]
        self.ops_per_round = len(self.commands)
        self.reference: dict[str, dict] = {}
        if traced:
            self.import_s = self.measure_import()

    def measure_import(self, repeats: int = 5) -> float:
        """Median time to import g4vlines.cli in a fresh interpreter."""
        code = ("import time; t0 = time.perf_counter(); import g4vlines.cli; "
                "print(time.perf_counter() - t0)")
        times = []
        for _ in range(repeats):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True, timeout=60)
            times.append(float(out.stdout))
        return statistics.median(times)

    def op(self, seed, index):
        kind, argv = self.commands[index % len(self.commands)]
        if kind == "simulate":  # no output of an earlier run may pass the check
            shutil.rmtree(argv[-1], ignore_errors=True)
        elif kind == "fit":
            Path(argv[-1]).unlink(missing_ok=True)
        if self.traced:
            from g4vlines import cli
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            stdout = out.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-c", CLI_RUNNER, *argv],
                                  capture_output=True, text=True, timeout=60)
            code, stdout = proc.returncode, proc.stdout
            self.command_rss_kb = max(self.command_rss_kb, vm_hwm_kb(proc.stderr))
        return kind, argv, code, stdout

    def check(self, result):
        kind, argv, code, stdout = result
        if code != 0:
            return f"{' '.join(argv[:2])}: exit code {code}"
        if kind == "emitters":
            return None if "PbV" in stdout else "emitters: PbV missing from output"
        if kind in ("predict", "threshold"):
            header, values = stdout.strip().splitlines()[-2:]
            row = dict(zip(header.split(","), values.split(",")))
            if kind == "predict":
                got, want = float(row["total_mhz"]), self.expect_total
                ok = abs(got - want) <= 1e-9 * abs(want)
            else:
                got, want = float(row["threshold_k"]), self.expect_threshold
                ok = got == want
            return None if ok else f"{kind}: {got!r} != closed form {want!r}"
        if kind == "fit":
            report = json.loads(Path(argv[-1]).read_text(encoding="utf-8"))
            return None if report["converged"] else f"{argv[1]} fit not converged"
        outputs = {p.name: p.read_bytes() for p in Path(argv[-1]).iterdir()}
        ref = self.reference.setdefault(argv[1], outputs)
        if "manifest.json" not in outputs:
            return f"simulate {argv[1]}: no manifest.json"
        if outputs != ref:
            return f"simulate {argv[1]}: output differs from the first run"
        return None

    def work(self, result):
        return 1.0

    def peak_rss_kb(self):
        """In-process when traced, else the largest command interpreter."""
        return super().peak_rss_kb() if self.traced else self.command_rss_kb


# Criterion-8 configs of the CLI test suite; seeds come from the run seed.
CLI_SIMULATE = {
    "ple": {"emitter": "PbV", "temperature_k": 6.2,
            "grid_mhz": {"start": -120.0, "stop": 120.0, "step": 4.0},
            "dwell_s": 0.1, "peak_rate": 5000.0, "background_rate": 100.0},
    "series": {"emitter": "PbV", "temperature_k": 6.2,
               "grid_mhz": {"start": -120.0, "stop": 120.0, "step": 4.0},
               "dwell_s": 0.1, "peak_rate": 5000.0, "background_rate": 100.0,
               "n_scans": 3, "diffusion_sigma_mhz": 4.0,
               "ionization_coeff": 1e-3, "repump": "between_scans"},
    "trpl": {"lifetime_ns": 4.4, "counts_total": 100000,
             "bin_width_ns": 0.2, "t_max_ns": 60.0},
    "hbt": {"rate": 2e5, "lifetime_ns": 4.4, "purity_rho": 0.9,
            "duration_s": 1.0, "bin_width_ns": 2.0, "tau_max_ns": 50.0},
}


def make(name: str, scale: float = 1.0) -> Workload:
    """The named workload; ``scale`` shrinks its sizes for smoke runs."""
    if name == "hbt_fine":
        # criterion-7 physics: 501 bins, few pairs per photon; 0.025 s of
        # stream (~1e5 photons) so that a run times about 20 ops
        return Hbt(name, scale, rate=4e6, lifetime_ns=4.4, purity_rho=0.959,
                   duration_s=0.025, bin_width_ns=0.2, tau_max_ns=50.0)
    if name == "hbt_wide":
        # blinking/bunching scale: 21 bins, ~1e6 photons, ~50 pairs per photon
        return Hbt(name, scale, rate=1e6, lifetime_ns=4.4, purity_rho=0.9,
                   duration_s=1.0, bin_width_ns=1e4, tau_max_ns=1e5)
    if name == "series_fit":
        # 125 scans of 151 points, so that a run times about 60 ops; a
        # +-300 MHz window keeps the drifting line inside the grid and 5000
        # peak counts per point keep the FWHM scatter near 0.6 %, far
        # inside the 5 % check
        return SeriesFit(scale, emitter="PbV", temperature_k=6.2,
                         grid_mhz=(-300.0, 300.0, 4.0), dwell_s=0.2,
                         peak_rate=25000.0, background_rate=50.0, n_scans=125,
                         diffusion_sigma_mhz=1.0, jump_prob=0.005,
                         jump_sigma_mhz=15.0, ionization_coeff=2.2e-6,
                         repump="resonant", repump_rate=3e-5)
    if name == "cli":
        return Cli(simulate=CLI_SIMULATE)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("hbt_fine", "hbt_wide", "series_fit", "cli")
