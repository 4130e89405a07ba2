"""Synthetic experiments: PLE scans, decay histograms, photon correlations.

Every generator takes a 64-bit seed and is bit-reproducible for a fixed
configuration. Independent substreams are derived from (seed, index) through
numpy's SeedSequence, one per scan, so scan k of a series does not depend on
how many draws earlier scans consumed:

    Generator(PCG64(SeedSequence((seed, index))))

A PLE scan is scan 0 of a series: simulate_ple_scan and
simulate_scan_series draw every scan through one function, and scan k
takes from its substream, in this order:

1. for k > 0, a diffusion step of the center when diffusion_sigma > 0, then
   a jump test and, on success, a jump when jump_prob > 0;
2. only when ionization_coeff > 0, one uniform u_i per point. With
   s_i = dwell * peak_rate * L_i the expected signal at point i, a bright
   emitter goes dark at the first point with u_i < min(1, ionization_coeff
   * s_i); a dark one, under repump="resonant", turns bright at the first
   later point with u_i < min(1, repump_rate * s_i), and so on. A point's
   counts take the state from before its own switch;
3. one Poisson draw per point, all at once, of mean
   dwell * background_rate + (s_i while bright, else 0); with noiseless
   the counts are that mean itself and nothing is drawn.

Scans without charge dynamics therefore take only Poisson draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import physics
from ._kernels import MAX_BINS, coincidence_histogram
from .emitters import EmitterParams, _require_finite
from .records import CorrelationHistogram, DecayTrace, Spectrum

__all__ = [
    "FrequencyGrid", "ScanSeriesConfig", "ScanEvent", "TrplBackground",
    "simulate_ple_scan", "simulate_scan_series", "simulate_trpl",
    "simulate_hbt", "correlate_stream", "substream",
]

_MASK64 = (1 << 64) - 1

# Memory budget of one simulated photon stream, and the largest streams
# that fit it at the traced peak bytes per photon (measured at 1e6 photons;
# see simulate_hbt and simulate_trpl).
_STREAM_BUDGET = 1 << 30
_MAX_STREAM_PHOTONS = _STREAM_BUDGET // 17  # simulate_hbt: ~6.3e7 photons
_MAX_TRPL_COUNTS = _STREAM_BUDGET // 9      # simulate_trpl: ~1.2e8 counts

# The largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

REPUMP_POLICIES = ("none", "between_scans", "resonant")


def substream(seed: int, index: int) -> np.random.Generator:
    """Documented split function: independent generator for (seed, index)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((int(seed) & _MASK64, int(index)))))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform detuning grid in MHz: start, start+step, ..., <= stop."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        _require_finite(start=self.start, stop=self.stop, step=self.step)
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.stop <= self.start:
            raise ValueError("grid stop must exceed start")
        if self._steps() >= MAX_BINS:  # overflows to inf for a tiny step
            raise ValueError(f"grid (stop - start) / step gives more than "
                             f"{MAX_BINS} points")

    def _steps(self) -> float:
        return (self.stop - self.start) / self.step + 1e-9

    def size(self) -> int:
        return int(math.floor(self._steps())) + 1

    def centers(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size())


@dataclass(frozen=True)
class TrplBackground:
    """Fast background component of a decay: amplitude ratio and lifetime.

    a_fast is the t=0 amplitude of the fast exponential relative to the
    (unit) amplitude of the signal component; tau_fast in ns.
    """

    a_fast: float
    tau_fast: float

    def __post_init__(self):
        _require_finite(a_fast=self.a_fast, tau_fast=self.tau_fast)
        if self.a_fast <= 0 or self.tau_fast <= 0:
            raise ValueError("background a_fast and tau_fast must be positive")


@dataclass(frozen=True)
class ScanSeriesConfig:
    """Inputs for simulate_ple_scan / simulate_scan_series.

    The line center starts at center0 and random-walks by diffusion_sigma
    (MHz) per scan, with a probability jump_prob per scan of an extra jump
    of scale jump_sigma. A two-state charge variable turns the emitter dark
    with per-point hazard ionization_coeff x expected signal counts; the
    repump policy controls recovery ("none", "between_scans", or "resonant"
    with per-point probability repump_rate x expected signal counts).
    """

    emitter: EmitterParams
    temperature: float
    grid: FrequencyGrid
    dwell: float
    peak_rate: float
    background_rate: float
    n_scans: int = 1
    center0: float = 0.0
    diffusion_sigma: float = 0.0
    jump_prob: float = 0.0
    jump_sigma: float = 0.0
    ionization_coeff: float = 0.0
    repump: str = "none"
    repump_rate: float = 0.0
    seed: int = 0
    noiseless: bool = False

    def __post_init__(self):
        _require_finite(**{f.name: getattr(self, f.name) for f in fields(self)
                           if f.type == "float"})
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.dwell <= 0:
            raise ValueError("dwell must be positive")
        if self.peak_rate < 0 or self.background_rate < 0:
            raise ValueError("rates must be >= 0")
        if self.n_scans < 1:
            raise ValueError("n_scans must be >= 1")
        if self.n_scans * self.grid.size() > MAX_BINS:
            raise ValueError(f"n_scans x grid points = {self.n_scans} x "
                             f"{self.grid.size()} exceeds {MAX_BINS} points")
        # the time axis of the event log, as simulate_scan_series computes it
        _require_finite(**{"n_scans x grid points x dwell":
                           self.n_scans * (self.grid.size() * self.dwell)})
        if not 0.0 <= self.jump_prob <= 1.0:
            raise ValueError("jump_prob must be in [0, 1]")
        if self.diffusion_sigma < 0 or self.jump_sigma < 0:
            raise ValueError("diffusion_sigma and jump_sigma must be >= 0")
        if self.ionization_coeff < 0:
            raise ValueError("ionization_coeff must be >= 0")
        if self.repump not in REPUMP_POLICIES:
            raise ValueError(
                f"repump must be one of {REPUMP_POLICIES}, got {self.repump!r}")
        if self.repump_rate < 0:
            raise ValueError("repump_rate must be >= 0")

    def fwhm(self) -> float:
        """Model linewidth used for the scan shape (MHz)."""
        width = physics.linewidth_c(self.emitter, self.temperature)
        if width <= 0:
            raise ValueError(
                f"model linewidth is not positive ({width:.3g} MHz); "
                "check gamma_others")
        # below this, (w/2)^2 + detuning^2 overflows only where L < 2^-53
        if (width / 2.0) * (width / 2.0) > np.finfo(float).max * 2.0 ** -53:
            raise ValueError(f"model linewidth {width:.3g} MHz is too wide to scan")
        return width


@dataclass(frozen=True)
class ScanEvent:
    """One entry of the scan-series event log."""

    scan_index: int
    point_index: int   # -1 for scan_start
    time_s: float
    kind: str          # scan_start | ionization | repump
    center_mhz: float


def _scan(cfg: ScanSeriesConfig, rng, grid, fwhm, center, bright):
    """One scan drawn from ``rng`` as the module docstring says: (counts,
    charge state after it, [(point_index, "ionization" | "repump"), ...])."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is named below
        signal = cfg.dwell * cfg.peak_rate \
            * physics.lorentzian(grid, center, fwhm, 1.0, 0.0)
    background = cfg.dwell * cfg.background_rate
    peak = background + signal.max()
    if not peak < (math.inf if cfg.noiseless else _POISSON_LAM_MAX):  # NaN too
        raise ValueError(f"expected_counts must be finite and, to be Poisson-drawn, "
                         f"below {_POISSON_LAM_MAX:g}; got {peak:g}")
    switches, flips = [], np.zeros(grid.size + 1, bool)  # flips[i + 1]: switch at i
    if cfg.ionization_coeff > 0:
        u = rng.random(grid.size)  # u < 1: u < c * s is u < min(1, c * s)
        repump_rate = cfg.repump_rate if cfg.repump == "resonant" else 0.0
        with np.errstate(over="ignore"):  # an overflowing hazard is a certain switch
            hits = {True: u < cfg.ionization_coeff * signal,  # bright -> dark
                    False: u < repump_rate * signal}          # dark -> bright
        state, i = bright, 0
        while i < grid.size:
            i += int(np.argmax(hits[state][i:]))  # argmax stops at the first hit
            if not hits[state][i]:
                break
            switches.append((i, "ionization" if state else "repump"))
            state, i = not state, i + 1
            flips[i] = True
    lit = np.logical_xor.accumulate(flips[:-1]) != bright
    expected = background + np.where(lit, signal, 0.0)
    counts = expected if cfg.noiseless else rng.poisson(expected).astype(float)
    return counts, bright != (len(switches) % 2 == 1), switches


def simulate_ple_scan(cfg: ScanSeriesConfig) -> Spectrum:
    """One PLE scan: scan 0 of simulate_scan_series (requires n_scans == 1)."""
    if cfg.n_scans != 1:
        raise ValueError("simulate_ple_scan needs n_scans == 1; "
                         "use simulate_scan_series")
    grid = cfg.grid.centers()
    counts = _scan(cfg, substream(cfg.seed, 0), grid, cfg.fwhm(), cfg.center0,
                   True)[0]
    meta = {"temperature_k": cfg.temperature, "emitter": cfg.emitter.name,
            "scan_index": 0, "seed": cfg.seed}
    return Spectrum(grid, counts, meta)


def simulate_scan_series(cfg: ScanSeriesConfig):
    """Scan series with spectral diffusion and charge-state telegraphing.

    Returns (spectra, events). The line center random-walks between scans
    and the charge state carries over as the repump policy says. Events log
    scan starts (with the realized center), ionizations and repumps."""
    fwhm, grid = cfg.fwhm(), cfg.grid.centers()
    scan_time = grid.size * cfg.dwell
    spectra, events = [], []
    center, bright = cfg.center0, True
    for k in range(cfg.n_scans):
        rng = substream(cfg.seed, k)
        if k > 0:
            if cfg.diffusion_sigma > 0:
                center += rng.normal(0.0, cfg.diffusion_sigma)
            if cfg.jump_prob > 0 and rng.random() < cfg.jump_prob:
                center += rng.normal(0.0, cfg.jump_sigma)
            _require_finite(**{f"center_mhz at scan {k}": center})
        if cfg.repump == "between_scans":
            bright = True
        events.append(ScanEvent(k, -1, k * scan_time, "scan_start", center))
        counts, bright, switches = _scan(cfg, rng, grid, fwhm, center, bright)
        events += [ScanEvent(k, i, k * scan_time + (i + 1) * cfg.dwell, kind,
                             center) for i, kind in switches]
        meta = {"temperature_k": cfg.temperature, "emitter": cfg.emitter.name,
                "scan_index": k, "seed": cfg.seed, "center_mhz": center}
        spectra.append(Spectrum(grid, counts, meta))
    return spectra, events


def _bin_count(bin_width: float, span: float, name: str, max_ratio: float) -> int:
    """round(span / bin_width), checked before anything is allocated."""
    _require_finite(bin_width=bin_width, **{name: span})
    if bin_width <= 0 or span < bin_width:
        raise ValueError(f"need bin_width > 0 and {name} >= bin_width")
    ratio = span / bin_width  # overflows to inf for a subnormal bin_width
    if ratio >= max_ratio:  # the histogram would have more than MAX_BINS bins
        raise ValueError(f"{name} / bin_width = {ratio:g} gives more than "
                         f"{MAX_BINS} bins")
    return int(round(ratio))


def simulate_trpl(lifetime: float, counts_total: int, *, bin_width: float,
                  t_max: float, background: TrplBackground | None = None,
                  seed: int = 0) -> DecayTrace:
    """Histogram of photon arrival times after pulsed excitation.

    Arrivals are drawn from exp(-t/lifetime), optionally mixed with a fast
    background component; arrivals beyond t_max fall outside the histogram.
    All times in ns. Both components are drawn into one array, so the
    traced peak is about 9 B per count with or without a background, and
    counts_total is capped at _MAX_TRPL_COUNTS, the counts that fit
    _STREAM_BUDGET at 9 B each.
    """
    _require_finite(lifetime=lifetime)
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if not 0 <= counts_total <= _MAX_TRPL_COUNTS:
        raise ValueError(f"counts_total must be in [0, {_MAX_TRPL_COUNTS:g}], "
                         f"got {counts_total}")
    n_bins = _bin_count(bin_width, t_max, "t_max", MAX_BINS + 0.5)
    if n_bins < 2:
        raise ValueError("t_max must cover at least two bins")
    if t_max < 10.0 * lifetime:
        warnings.warn(f"t_max = {t_max} ns is below 10 lifetimes; "
                      "the tail will be clipped", stacklevel=2)

    rng = substream(seed, 0)
    n = int(counts_total)
    n_fast = 0
    if background is not None:
        # amplitude ratio -> count fraction of the fast component
        fast = background.a_fast * background.tau_fast
        if fast + lifetime < math.inf:
            frac_fast = fast / (fast + lifetime)
        else:  # the sum overflows
            frac_fast = 1.0 / (1.0 + lifetime / fast)
        n_fast = rng.binomial(n, frac_fast) if n else 0
    # same draws as exponential(tau_fast, n_fast), then exponential(lifetime, n - n_fast)
    times = rng.standard_exponential(n)
    with np.errstate(over="ignore"):  # an arrival at inf is past t_max
        if n_fast:
            times[:n_fast] *= background.tau_fast
        times[n_fast:] *= lifetime
    edges = bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(times, edges)
    centers = edges[:-1] + bin_width / 2.0
    meta = {"bin_width_ns": bin_width, "seed": seed}
    return DecayTrace(centers, counts.astype(float), meta)


def simulate_hbt(rate: float, lifetime: float, purity_rho: float,
                 duration: float, *, bin_width: float, tau_max: float,
                 seed: int = 0) -> CorrelationHistogram:
    """HBT experiment on a two-level emitter mixed with Poisson background.

    ``rate`` is the total detected count rate (counts/s) of the combined
    stream; a fraction ``purity_rho`` of it comes from the emitter, the rest
    is uncorrelated background. Emitter photons follow a
    ground -> excited -> photon cycle, so consecutive emissions are
    separated by an excitation wait plus a decay wait; the resulting ideal
    autocorrelation is g2(tau) = 1 - exp(-|tau|/tau_c) with
    tau_c = 1/(W + 1/lifetime) -> lifetime at low excitation rate W.

    The merged stream is split 50:50 and all pairs within +-tau_max are
    histogrammed (full correlation); ``bin_width``/``tau_max``/``lifetime``
    in ns, others in s.

    Memory: the stream is built in place, one emitter batch and the
    background at a time, and dropped once split, so the traced peak is
    about 17 B per photon (the sorted stream, one uniform draw per photon
    and its 1-byte detector choice) and 8 B per photon stay live while the
    kernel runs. ``rate * duration`` is capped at _MAX_STREAM_PHOTONS, the
    photons that fit _STREAM_BUDGET at that peak.
    """
    _require_finite(rate=rate, lifetime=lifetime, purity_rho=purity_rho,
                    duration=duration)
    if not 0.0 <= purity_rho <= 1.0:
        raise ValueError("purity_rho must be in [0, 1]")
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if duration * 1e9 == math.inf:
        raise ValueError(f"duration = {duration:g} s overflows in ns")
    m_max = _bin_count(bin_width, tau_max, "tau_max", MAX_BINS / 2)
    if rate * duration > _MAX_STREAM_PHOTONS:
        raise ValueError(f"stream too large: rate * duration = {rate * duration:g} "
                         f"photons exceeds {_MAX_STREAM_PHOTONS:g}; reduce rate "
                         "or duration")

    lifetime_s = lifetime * 1e-9
    if lifetime_s == 0.0:
        raise ValueError(f"lifetime = {lifetime:g} ns underflows in s")
    emitter_rate = purity_rho * rate
    bg_rate = (1.0 - purity_rho) * rate
    if emitter_rate > 0:
        if emitter_rate >= 0.5 / lifetime_s:
            raise ValueError("emitter rate too high for the given lifetime "
                             "(needs rate * purity_rho << 1/lifetime)")
        excitation_rate = 1.0 / (1.0 / emitter_rate - lifetime_s)
        if not 0.0 < excitation_rate < math.inf:
            raise ValueError(f"rate * purity_rho = {emitter_rate:g} /s is out "
                             "of range")

    rng = substream(seed, 0)
    parts = []
    if emitter_rate > 0:
        t = 0.0
        mean_wait = 1.0 / excitation_rate + lifetime_s
        while t < duration:
            n = int((duration - t) / mean_wait * 1.05) + 16
            ts = rng.exponential(1.0 / excitation_rate, n)
            with np.errstate(over="ignore"):  # inf is past duration
                ts += rng.exponential(lifetime_s, n)
                np.cumsum(ts, out=ts)
                ts += t
            parts.append(ts[:np.searchsorted(ts, duration)])  # ts is sorted
            t = ts[-1]
        del ts  # parts holds the only references to the batches
    if bg_rate > 0:
        n_bg = rng.poisson(bg_rate * duration)
        parts.append(rng.uniform(0.0, duration, n_bg))
        parts[-1].sort()

    if len(parts) == 1:  # sorted already
        stream = parts.pop()
    else:
        stream = np.concatenate(parts) if parts else np.empty(0)
        parts.clear()
        stream.sort(kind="stable")  # a merge of the sorted runs
    if stream.size < 2:
        raise ValueError("stream contains fewer than 2 photons; "
                         "increase rate or duration")
    to_b = rng.random(stream.size) < 0.5
    det_b = stream[to_b]
    np.logical_not(to_b, out=to_b)
    det_a = stream[to_b]
    del stream, to_b
    det_a *= 1e9
    det_b *= 1e9
    normalization = _normalization(det_a.size, det_b.size, duration * 1e9,
                                   bin_width)

    counts = coincidence_histogram(det_a, det_b, bin_width, m_max)
    return _histogram(counts, normalization, bin_width)


def _normalization(n_a: int, n_b: int, duration: float,
                   bin_width: float) -> float:
    """The pairs per bin that two uncorrelated streams of n_a and n_b photons
    over duration would give: positive and finite, and so is every g2 value
    (at most n_a * n_b pairs over it), or ValueError."""
    normalization = (n_a / duration) * (n_b / duration) * duration * bin_width
    if not (0.0 < normalization < math.inf
            and n_a * n_b / normalization < math.inf):
        raise ValueError(f"g2 normalization = {normalization:g} is out of range "
                         f"for {n_a} and {n_b} photons; change rate, duration "
                         "or bin_width")
    return normalization


def _histogram(counts, normalization: float,
               bin_width: float) -> CorrelationHistogram:
    """g2 of the counts of 2 m_max + 1 bins: each bin over the normalization."""
    m_max = counts.size // 2
    tau_bins = bin_width * np.arange(-m_max, m_max + 1)
    return CorrelationHistogram(tau_bins, counts / normalization, counts,
                                normalization)


def correlate_stream(arrival_times, *, bin_width: float, tau_max: float,
                     duration: float | None = None) -> CorrelationHistogram:
    """Full autocorrelation histogram of one sorted photon stream (ns).

    All ordered pairs within +-tau_max are counted with a sliding window
    (self-pairs excluded); the per-bin normalization is
    rate^2 * duration * bin_width with rate = n_photons / duration.
    ``duration`` defaults to the last arrival time.
    """
    t = np.asarray(arrival_times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two arrival times")
    if not np.all(np.isfinite(t)):
        raise ValueError("arrival times must be finite")
    if t[0] < 0:
        raise ValueError("arrival times must be >= 0")
    if np.any(np.diff(t) < 0):
        raise ValueError("arrival times must be sorted ascending")
    m_max = _bin_count(bin_width, tau_max, "tau_max", MAX_BINS / 2)
    if duration is None:
        duration = float(t[-1])
    if duration <= 0:
        raise ValueError("duration must be positive")
    normalization = _normalization(t.size, t.size, duration, bin_width)

    counts = coincidence_histogram(t, t, bin_width, m_max)
    counts[m_max] -= t.size  # drop self-pairs
    return _histogram(counts, normalization, bin_width)
