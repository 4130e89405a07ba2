"""Synthetic experiments: PLE scans, decay histograms, photon correlations.

Every generator takes a 64-bit seed and is bit-reproducible for a fixed
configuration. Independent substreams are derived from (seed, index) through
numpy's SeedSequence, one per scan, so scan k of a series does not depend on
how many draws earlier scans consumed:

    Generator(PCG64(SeedSequence((seed, index))))

A PLE scan is scan 0 of a series: simulate_ple_scan returns scan 0 of
simulate_scan_series, and scan k takes from its substream, in this order:

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
from dataclasses import dataclass

import numpy as np

from . import _checks, physics
from ._kernels import _CHUNK, MAX_BINS, _Buffers, _Counter, coincidence_histogram
from .emitters import EmitterParams
from .records import CorrelationHistogram, DecayTrace, Spectrum

__all__ = [
    "FrequencyGrid", "ScanSeriesConfig", "ScanEvent", "TrplBackground",
    "simulate_ple_scan", "simulate_scan_series", "simulate_trpl",
    "simulate_hbt", "correlate_stream", "substream",
]

_MASK64 = (1 << 64) - 1

# Memory budget of one simulated photon stream, and the largest streams
# that fit it at the traced peak bytes per photon (measured at 1e6 photons).
# simulate_hbt's memory, built in segments, no longer grows with the
# stream; its cap keeps the value of 17 B per photon, where the whole
# stream was built first, and now bounds the run time (see simulate_hbt).
_STREAM_BUDGET = 1 << 30
_MAX_STREAM_PHOTONS = _STREAM_BUDGET // 17  # simulate_hbt: ~6.3e7 photons
_MAX_TRPL_COUNTS = _STREAM_BUDGET // 9      # simulate_trpl: ~1.2e8 counts

# Expected photons of one segment of an HBT stream: rate * duration photons
# are built and counted in max(1, floor(rate * duration / _SEGMENT_PHOTONS))
# segments of equal duration, each of 1 to 2 times this many.
_SEGMENT_PHOTONS = 1 << 17

# The largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

REPUMP_POLICIES = ("none", "between_scans", "resonant")

# Points of a scan series profiled at once: 27 scans of 151 points. The
# work arrays of a chunk (32 KB each) fit the heap that the fits reuse; with
# chunks of _CHUNK points, series_fit's VmHWM read 0.16 MB above the
# scan-by-scan loop's, with these about the same.
_SERIES_CHUNK = 1 << 12


def substream(seed: int, index: int) -> np.random.Generator:
    """Documented split function: independent generator for (seed, index).

    A ValueError names a seed or index that is not an integer (2.0 counts
    as 2), or an index below 0.
    """
    seed = _checks.integral(seed, "seed") & _MASK64
    index = _checks.integral(index, "index")
    _checks.non_negative(index=index)
    return _substream(seed, index)


def _substream(seed: int, index: int) -> np.random.Generator:
    """``substream`` of an int seed in [0, 2**64) and an int index >= 0,
    without the checks (about 2.5 of its 12.7 us)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, index))))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform detuning grid in MHz: start, start+step, ..., <= stop."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        _checks.float_fields(self)
        _checks.positive(**{"step": self.step, "stop - start": self.stop - self.start})
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
        _checks.float_fields(self)
        _checks.positive(a_fast=self.a_fast, tau_fast=self.tau_fast)


@dataclass(frozen=True)
class ScanSeriesConfig:
    """Inputs for simulate_ple_scan / simulate_scan_series.

    The line center starts at center0 and random-walks by diffusion_sigma
    (MHz) per scan, with a probability jump_prob per scan of an extra jump
    of scale jump_sigma. A two-state charge variable turns the emitter dark
    with per-point hazard ionization_coeff x expected signal counts; the
    repump policy controls recovery ("none", "between_scans", or "resonant"
    with per-point probability repump_rate x expected signal counts).
    seed must be an integer (kept as given) and noiseless a bool.
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
        _checks.record(self.emitter, "emitter", EmitterParams)
        _checks.record(self.grid, "grid", FrequencyGrid)
        object.__setattr__(self, "n_scans", _checks.integral(self.n_scans, "n_scans"))
        _checks.integral(self.seed, "seed")  # kept as given: the scan meta holds it
        _checks.record(self.noiseless, "noiseless", (bool, np.bool_))
        _checks.float_fields(self)
        _checks.positive(dwell=self.dwell, n_scans=self.n_scans)
        _checks.non_negative(**{name: getattr(self, name) for name in (
            "temperature", "peak_rate", "background_rate", "diffusion_sigma",
            "jump_sigma", "ionization_coeff", "repump_rate")})
        if self.n_scans * self.grid.size() > MAX_BINS:
            raise ValueError(f"n_scans x grid points = {self.n_scans} x "
                             f"{self.grid.size()} exceeds {MAX_BINS} points")
        # the time axis of the event log, as simulate_scan_series computes it
        _checks.finite(**{"n_scans x grid points x dwell":
                          self.n_scans * (self.grid.size() * self.dwell)})
        if not 0.0 <= self.jump_prob <= 1.0:
            raise ValueError("jump_prob must be in [0, 1]")
        if self.repump not in REPUMP_POLICIES:
            raise ValueError(
                f"repump must be one of {REPUMP_POLICIES}, got {self.repump!r}")

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


def _scan(cfg: ScanSeriesConfig, rng, signal, bright):
    """One scan drawn from ``rng`` as the module docstring says, given its
    expected signal per point: (counts, charge state after it,
    [(point_index, "ionization" | "repump"), ...])."""
    background = cfg.dwell * cfg.background_rate
    peak = background + signal.max()
    if not peak < (math.inf if cfg.noiseless else _POISSON_LAM_MAX):  # NaN too
        raise ValueError(f"expected_counts must be finite and, to be Poisson-drawn, "
                         f"below {_POISSON_LAM_MAX:g}; got {peak:g}")
    switches, lit, state = [], np.full(signal.size, bright), bright
    if cfg.ionization_coeff > 0:
        u = rng.random(signal.size)  # u < 1: u < c * s is u < min(1, c * s)
        repump_rate = cfg.repump_rate if cfg.repump == "resonant" else 0.0
        # an overflowing hazard is a certain switch
        hits = {True: u < cfg.ionization_coeff * signal,  # bright -> dark
                False: u < repump_rate * signal}          # dark -> bright
        i = 0
        while i < signal.size:
            i += int(np.argmax(hits[state][i:]))  # argmax stops at the first hit
            if not hits[state][i]:
                break
            switches.append((i, "ionization" if state else "repump"))
            state, i = not state, i + 1
            lit[i:] = state  # the points after the switch
    expected = background + np.where(lit, signal, 0.0)
    counts = expected if cfg.noiseless else rng.poisson(expected).astype(float)
    return counts, state, switches


def simulate_ple_scan(cfg: ScanSeriesConfig) -> Spectrum:
    """One PLE scan: scan 0 of simulate_scan_series, without center_mhz."""
    _checks.record(cfg, "cfg", ScanSeriesConfig)
    if cfg.n_scans != 1:
        raise ValueError("simulate_ple_scan needs n_scans == 1; "
                         "use simulate_scan_series")
    scan = simulate_scan_series(cfg)[0][0]
    del scan.meta["center_mhz"]
    return scan


def simulate_scan_series(cfg: ScanSeriesConfig):
    """Scan series with spectral diffusion and charge-state telegraphing.

    Returns (spectra, events). The line center random-walks between scans
    and the charge state carries over as the repump policy says. Events log
    scan starts (with the realized center), ionizations and repumps.

    The scans are drawn a chunk of about ``_SERIES_CHUNK`` points at a
    time, so memory does not grow with n_scans: first each scan's center
    from its own substream, then the expected signal of the whole chunk in
    one profile, then each scan's charge and Poisson draws from the same
    substream. Each substream gives the draws it gave scan by scan, and an
    error names the scan that raised first scan by scan."""
    _checks.record(cfg, "cfg", ScanSeriesConfig)
    fwhm, grid = cfg.fwhm(), cfg.grid.centers()
    scan_time = grid.size * cfg.dwell
    seed = int(cfg.seed) & _MASK64  # checked integral by the config
    per_chunk = max(1, _SERIES_CHUNK // grid.size)
    spectra, events = [], []
    center, bright = cfg.center0, True
    # the grid, centers and width were checked where they entered
    # (FrequencyGrid, here, cfg.fwhm()); inf or NaN is named in _scan
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, cfg.n_scans, per_chunk):
            rngs, centers = [], []
            for k in range(first, min(first + per_chunk, cfg.n_scans)):
                rng = _substream(seed, k)
                if k > 0:
                    if cfg.diffusion_sigma > 0:
                        center += rng.normal(0.0, cfg.diffusion_sigma)
                    if cfg.jump_prob > 0 and rng.random() < cfg.jump_prob:
                        center += rng.normal(0.0, cfg.jump_sigma)
                if not math.isfinite(center):
                    break  # named below, once the scans before it are drawn
                rngs.append(rng)
                centers.append(center)
            # the profile is in [0, 1]
            signals = cfg.dwell * cfg.peak_rate * physics._profile(
                grid, np.array(centers)[:, None], fwhm, 1.0, 0.0)
            for scan, (rng, mhz, signal) in enumerate(zip(rngs, centers, signals),
                                                     first):
                if cfg.repump == "between_scans":
                    bright = True
                start = scan * scan_time
                events.append(ScanEvent(scan, -1, start, "scan_start", mhz))
                counts, bright, switches = _scan(cfg, rng, signal, bright)
                events += [ScanEvent(scan, i, start + (i + 1) * cfg.dwell, kind, mhz)
                           for i, kind in switches]
                meta = {"temperature_k": cfg.temperature, "emitter": cfg.emitter.name,
                        "scan_index": scan, "seed": cfg.seed, "center_mhz": mhz}
                spectra.append(Spectrum(grid, counts, meta))
            _checks.finite(**{f"center_mhz at scan {k}": center})
    return spectra, events


def _bin_count(bin_width: float, span: float, name: str,
               max_ratio: float) -> tuple[int, float]:
    """(round(span / bin_width), bin_width as a float), checked before
    anything is allocated."""
    bin_width, span = _checks.finite_floats(bin_width=bin_width, **{name: span})
    _checks.positive(bin_width=bin_width)
    if span < bin_width:
        raise ValueError(f"{name} must be >= bin_width, got {span:g} < {bin_width:g}")
    ratio = span / bin_width  # overflows to inf for a subnormal bin_width
    if ratio >= max_ratio:  # the histogram would have more than MAX_BINS bins
        raise ValueError(f"{name} / bin_width = {ratio:g} gives more than "
                         f"{MAX_BINS} bins")
    return int(round(ratio)), bin_width


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
    lifetime, = _checks.finite_floats(lifetime=lifetime)
    _checks.positive(lifetime=lifetime)
    if background is not None:
        _checks.record(background, "background", TrplBackground)
    n = _checks.integral(counts_total, "counts_total")
    if not 0 <= n <= _MAX_TRPL_COUNTS:
        raise ValueError(f"counts_total must be in [0, {_MAX_TRPL_COUNTS:g}], "
                         f"got {counts_total}")
    n_bins, bin_width = _bin_count(bin_width, t_max, "t_max", MAX_BINS + 0.5)
    if n_bins < 2:
        raise ValueError("t_max must cover at least two bins")
    if t_max < 10.0 * lifetime:
        warnings.warn(f"t_max = {t_max} ns is below 10 lifetimes; "
                      "the tail will be clipped", stacklevel=2)

    rng = substream(seed, 0)
    n_fast = 0
    if background is not None:
        # amplitude ratio -> count fraction of the fast component
        fast = background.a_fast * background.tau_fast
        if fast + lifetime < math.inf:
            frac_fast = fast / (fast + lifetime)
        else:  # the sum overflows
            frac_fast = 1.0 / (1.0 + lifetime / fast)
        n_fast = rng.binomial(n, frac_fast)  # binomial(0, p) draws nothing
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

    Stream: the n = max(1, floor(rate * duration / _SEGMENT_PHOTONS))
    segments [duration * k/n, duration * (k+1)/n) are built one after the
    other, each from the substream in this order: the emitter's waits (in
    batches from its last emission until one passes the segment's end; the
    photons past it go to the next segment, and past duration they are
    dropped), then a Poisson number of background photons of mean
    (1 - purity_rho) * rate * segment duration, uniform on the segment;
    they are merged, scaled to ns, and one uniform per photon, below 0.5,
    sends it to detector b. A stream of one segment (below 2 x 131072
    expected photons) is the stream cut at duration in one piece.

    Memory: each segment is built in place in one work array and split
    into the coincidence counter's arrays, which counts every whole block
    of 65536 rows whose pair windows the segment has closed and carries
    the rest, with the partners they need, into the next segment; one
    ``coincidence_histogram`` call counts what the last segment leaves (a
    stream of one segment is that one call). The work arrays are made
    once per call. So memory does not grow with the stream: the traced
    peak is about 8.7 MB on an hbt_wide stream of 1e6 photons and of 4e6
    (it was 17 B per photon with the whole stream built first), and
    criterion 7's 3e7 photons peak at 40 MB of RSS instead of 531 MB.
    ``rate * duration`` is still capped at _MAX_STREAM_PHOTONS, which now
    bounds the run time (criterion 7 takes about 2.5 s on a 2-core Xeon VM).
    """
    rate, lifetime, purity_rho, duration = _checks.finite_floats(
        rate=rate, lifetime=lifetime, purity_rho=purity_rho, duration=duration)
    if not 0.0 <= purity_rho <= 1.0:
        raise ValueError("purity_rho must be in [0, 1]")
    _checks.positive(rate=rate, duration=duration, lifetime=lifetime)
    if duration * 1e9 == math.inf:
        raise ValueError(f"duration = {duration:g} s overflows in ns")
    m_max, bin_width = _bin_count(bin_width, tau_max, "tau_max", MAX_BINS / 2)
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
    n_segments = max(1, int(rate * duration / _SEGMENT_PHOTONS))
    emitter = _Emitter(rng, excitation_rate, lifetime_s) \
        if emitter_rate > 0 else None
    counter = _Counter(bin_width, m_max)
    buffers = _Buffers()
    n_a = n_b = 0
    start = 0.0
    for k in range(n_segments):
        end = duration * ((k + 1) / n_segments)
        stream = _segment(rng, buffers, emitter, bg_rate, start, end)
        stream *= 1e9
        to_b = _choices(rng, stream.size)
        picked = int(np.count_nonzero(to_b))
        det_a, det_b = counter.space(stream.size - picked, picked)
        _split(stream, to_b, det_a, det_b)
        del stream, to_b
        n_a, n_b = n_a + det_a.size, n_b + det_b.size
        # one segment is counted below, once its work arrays are freed:
        # through add, the CLI's 2e5-photon stream counted a 65536-row block
        # beside them, and its peak RSS read 1.3 MB higher
        if n_segments > 1:
            counter.add(det_a, det_b, end * 1e9)
            det_a, det_b = counter.rows, counter.partners  # what is left
        start = end
    del emitter, buffers
    if n_a + n_b < 2:
        raise ValueError("stream contains fewer than 2 photons; "
                         "increase rate or duration")
    normalization = _normalization(n_a, n_b, duration * 1e9, bin_width)

    # the rows within reach of the end, and those short of a whole block
    counted = counter.hist
    del counter  # its work arrays, before the last count makes its own
    counts = coincidence_histogram(det_a, det_b, bin_width, m_max)
    counts += counted
    return _histogram(counts, normalization, bin_width)


def _segment(rng, buffers, emitter, bg_rate, start, end):
    """The photons of the segment [start, end) in s, sorted, as a view of
    the work array "stream" of buffers: the emitter's, then a Poisson number
    of background photons, uniform over the segment (drawn as
    ``rng.uniform(start, end, n)`` draws them: start + (end - start) * u),
    merged by a stable sort, which finds the two sorted runs. Where bg_rate
    is 0, poisson(0.0) is 0 and neither draw moves the generator."""
    n = emitter.fill(buffers, end) if emitter else 0
    n_bg = int(rng.poisson(bg_rate * (end - start)))
    background = buffers.get("stream", n + n_bg, keep=n)[n:]
    rng.random(out=background)
    background *= end - start
    background += start
    background.sort()
    n += n_bg
    stream = buffers.get("stream", n)
    stream.sort(kind="stable")
    return stream


class _Emitter:
    """The emitter's photons in s, a renewal process from t = 0: each wait
    is an excitation wait plus a decay wait.

    ``fill`` writes the photons from the last end it was given (from 0, the
    first time) up to the next. Waits are drawn in batches, from the last
    emission on, until one passes the end; the batch's photons at or past
    it carry over to the next call. So one call with end = duration draws
    the batches of a stream cut at duration.
    """

    def __init__(self, rng, excitation_rate, lifetime_s):
        self.rng, self.lifetime_s = rng, lifetime_s
        self.scale = 1.0 / excitation_rate
        self.mean_wait = self.scale + lifetime_s
        self.t, self.carry = 0.0, np.empty(0)
        self.decay = np.empty(_CHUNK)  # the decay waits of one chunk of a batch

    def fill(self, buffers, end):
        """Write the photons below end, sorted, to the front of the work
        array "stream" of buffers; return their number."""
        n = int(np.searchsorted(self.carry, end))
        buffers.get("stream", n)[:] = self.carry[:n]
        self.carry = self.carry[n:]
        while self.t < end:
            size = int((end - self.t) / self.mean_wait * 1.05) + 16
            ts = buffers.get("stream", n + size, keep=n)[n:]
            self._draw(ts)
            cut = int(np.searchsorted(ts, end))  # ts is sorted
            self.carry, self.t = ts[cut:].copy(), float(ts[-1])
            n += cut
        return n

    def _draw(self, ts):
        """Fill ts with the emissions after the one at t: the running sum of
        excitation waits, drawn as ``rng.exponential(scale, ts.size)`` draws
        them (scale * standard_exponential), and decay waits, drawn
        ``_CHUNK`` at a time into decay and added in place. One batch-size
        draw of the decay waits leaves the traced peak where it is but
        raises VmHWM (by about 2 MB on an hbt_wide stream)."""
        self.rng.standard_exponential(out=ts)
        with np.errstate(over="ignore"):  # inf is past every end
            ts *= self.scale
            for i in range(0, ts.size, _CHUNK):
                part = ts[i:i + _CHUNK]
                wait = self.rng.standard_exponential(out=self.decay[:part.size])
                wait *= self.lifetime_s
                part += wait
            np.cumsum(ts, out=ts)
            ts += self.t


def _choices(rng, n):
    """``rng.random(n) < 0.5``, the detector of each of n photons: the same
    uniforms, drawn ``_CHUNK`` at a time into one buffer."""
    to_b = np.empty(n, dtype=bool)
    u = np.empty(min(n, _CHUNK))
    for s in range(0, n, _CHUNK):
        part = u[:min(_CHUNK, n - s)]
        rng.random(out=part)
        np.less(part, 0.5, out=to_b[s:s + part.size])
    return to_b


def _split(stream, to_b, det_a, det_b):
    """stream[~to_b] into det_a and stream[to_b] into det_b, a chunk of
    ``_CHUNK`` photons at a time.

    Each chunk's photons are taken by index into the detectors' arrays:
    boolean indexing with a random mask branches on every photon. The
    indices are in range, so mode "clip" only skips the buffered bounds
    check of ``np.take``.
    """
    i_a = i_b = 0
    for s in range(0, stream.size, _CHUNK):
        run, pick = stream[s:s + _CHUNK], to_b[s:s + _CHUNK]
        idx = np.flatnonzero(pick)
        np.take(run, idx, out=det_b[i_b:i_b + idx.size], mode="clip")
        i_b += idx.size
        idx = np.flatnonzero(~pick)
        np.take(run, idx, out=det_a[i_a:i_a + idx.size], mode="clip")
        i_a += idx.size


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
    ``duration`` defaults to the last arrival time and may not end before
    it. A bin_width whose half rounds away when added to an arrival time
    (below the float resolution of the tags) is a ValueError.
    """
    t = _checks.floats(arrival_times, "arrival_times")
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two arrival times")
    _checks.finite(arrival_times=t)
    _checks.non_negative(arrival_times=t)
    if np.any(np.diff(t) < 0):
        raise ValueError("arrival times must be sorted ascending")
    m_max, bin_width = _bin_count(bin_width, tau_max, "tau_max", MAX_BINS / 2)
    duration, = _checks.finite_floats(
        duration=float(t[-1]) if duration is None else duration)
    _checks.positive(duration=duration)
    if duration < t[-1]:
        raise ValueError(f"duration {duration} is before the last arrival "
                         f"time {t[-1]}")
    normalization = _normalization(t.size, t.size, duration, bin_width)
    # a photon pairs with itself in the centre bin, t - w/2 <= t < t + w/2,
    # unless w/2 rounds away at t's magnitude
    coarse = np.flatnonzero(t + 0.5 * bin_width <= t)
    if coarse.size:
        raise ValueError(f"bin_width {bin_width:g} is below the resolution of "
                         f"the arrival time {float(t[coarse[0]])!r}: t + "
                         "bin_width/2 rounds to t")

    counts = coincidence_histogram(t, t, bin_width, m_max)
    counts[m_max] -= t.size  # drop self-pairs
    return _histogram(counts, normalization, bin_width)
