"""Simulation engines: determinism, statistics, and fit-closure checks.

``hbt_reference`` is the earlier stream builder of ``simulate_hbt``, which
kept every stage of the photon stream as its own array, taken segment by
segment in the documented order, and counted the concatenated detectors in
one ``coincidence_histogram`` call: ``simulate_hbt`` builds the stream in
place, counts it as it goes and must agree with it bit for bit.

``series_reference`` is the earlier point-by-point loop of
``simulate_scan_series``. Without ionization it draws only Poisson counts,
one per point, so the per-scan draw must agree with it bit for bit.
``documented_series`` follows the draw order of the ``simulate`` module
docstring point by point, so it pins the stream with ionization on.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import g4vlines as g
from g4vlines._kernels import MAX_BINS, coincidence_histogram

PBV = g.REGISTRY.get("PbV")


def reference_detectors(rate, lifetime, purity_rho, duration, seed,
                        segment_photons=1 << 17):
    """(det_a, det_b) in ns of simulate_hbt's earlier stream builder, which
    sorts the concatenated parts with numpy's default sort, taken segment by
    segment: max(1, floor(rate * duration / segment_photons)) segments of
    equal duration, each drawing the emitter's waits (its photons past the
    segment's end carry over), then its background, then its detectors."""
    lifetime_s = lifetime * 1e-9
    emitter_rate = purity_rho * rate
    bg_rate = (1.0 - purity_rho) * rate
    rng = g.substream(seed, 0)
    n_segments = max(1, int(rate * duration / segment_photons))
    t, carry, start = 0.0, np.empty(0), 0.0
    det_a, det_b = [], []
    for k in range(n_segments):
        end = duration * ((k + 1) / n_segments)
        parts = [carry[carry < end]]
        carry = carry[carry >= end]
        if emitter_rate > 0:
            excitation_rate = 1.0 / (1.0 / emitter_rate - lifetime_s)
            mean_wait = 1.0 / excitation_rate + lifetime_s
            while t < end:
                n = int((end - t) / mean_wait * 1.05) + 16
                waits = rng.exponential(1.0 / excitation_rate, n) \
                    + rng.exponential(lifetime_s, n)
                ts = t + np.cumsum(waits)
                parts.append(ts[ts < end])
                carry = ts[ts >= end]
                t = ts[-1]
        if bg_rate > 0:
            n_bg = rng.poisson(bg_rate * (end - start))
            parts.append(np.sort(rng.uniform(start, end, n_bg)))
        stream = np.sort(np.concatenate(parts))
        to_b = rng.random(stream.size) < 0.5
        det_a.append(stream[~to_b] * 1e9)
        det_b.append(stream[to_b] * 1e9)
        start = end
    return np.concatenate(det_a), np.concatenate(det_b)


def hbt_reference(rate, lifetime, purity_rho, duration, *, bin_width,
                  tau_max, seed, segment_photons=1 << 17):
    """(counts, g2, normalization) of simulate_hbt's earlier stream builder."""
    m_max = int(round(tau_max / bin_width))
    det_a, det_b = reference_detectors(rate, lifetime, purity_rho, duration,
                                       seed, segment_photons)
    counts = coincidence_histogram(det_a, det_b, bin_width, m_max)
    duration_ns = duration * 1e9
    normalization = (det_a.size / duration_ns) * (det_b.size / duration_ns) \
        * duration_ns * bin_width
    return counts, counts / normalization, normalization


def bin_rule_counts(t, bin_width, m_max):
    """Ordered pairs i != j of the stream t in each bin m = -m_max..m_max,
    straight from the bin rule a + (m - 0.5)*w <= b < a + (m + 0.5)*w."""
    m = np.arange(-m_max, m_max + 1)
    a, b = t[:, None, None], t[None, :, None]
    inside = (a + (m - 0.5) * bin_width <= b) & (b < a + (m + 0.5) * bin_width)
    inside[np.arange(t.size), np.arange(t.size)] = False
    return inside.sum(axis=(0, 1))


def series_reference(cfg):
    """(spectra, events) of simulate_scan_series's earlier per-point loop."""
    fwhm = cfg.fwhm()
    grid = cfg.grid.centers()
    n_points = grid.size
    scan_time = n_points * cfg.dwell
    spectra, events = [], []
    center = cfg.center0
    bright = True
    for k in range(cfg.n_scans):
        rng = g.substream(cfg.seed, k)
        if k > 0:
            if cfg.diffusion_sigma > 0:
                center += rng.normal(0.0, cfg.diffusion_sigma)
            if cfg.jump_prob > 0 and rng.random() < cfg.jump_prob:
                center += rng.normal(0.0, cfg.jump_sigma)
        if cfg.repump == "between_scans":
            bright = True
        events.append(g.ScanEvent(k, -1, k * scan_time, "scan_start", center))
        expected_signal = cfg.dwell * cfg.peak_rate \
            * g.lorentzian(grid, center, fwhm, 1.0, 0.0)
        bg = cfg.dwell * cfg.background_rate
        counts = np.empty(n_points)
        for i in range(n_points):
            lam = bg + (expected_signal[i] if bright else 0.0)
            counts[i] = lam if cfg.noiseless else rng.poisson(lam)
            t_point = k * scan_time + (i + 1) * cfg.dwell
            if bright:
                if cfg.ionization_coeff > 0 and \
                        rng.random() < min(1.0, cfg.ionization_coeff * expected_signal[i]):
                    bright = False
                    events.append(g.ScanEvent(k, i, t_point, "ionization", center))
            elif cfg.repump == "resonant" and cfg.repump_rate > 0:
                if rng.random() < min(1.0, cfg.repump_rate * expected_signal[i]):
                    bright = True
                    events.append(g.ScanEvent(k, i, t_point, "repump", center))
        meta = {"temperature_k": cfg.temperature, "emitter": cfg.emitter.name,
                "scan_index": k, "seed": cfg.seed, "center_mhz": center}
        spectra.append(g.Spectrum(grid, counts, meta))
    return spectra, events


def documented_series(cfg):
    """(counts per scan, events) drawn in the documented per-scan order."""
    grid = cfg.grid.centers()
    scan_time = grid.size * cfg.dwell
    counts, events = [], []
    center, bright = cfg.center0, True
    for k in range(cfg.n_scans):
        rng = g.substream(cfg.seed, k)
        if k > 0:
            if cfg.diffusion_sigma > 0:
                center += rng.normal(0.0, cfg.diffusion_sigma)
            if cfg.jump_prob > 0 and rng.random() < cfg.jump_prob:
                center += rng.normal(0.0, cfg.jump_sigma)
        if cfg.repump == "between_scans":
            bright = True
        events.append(g.ScanEvent(k, -1, k * scan_time, "scan_start", center))
        s = cfg.dwell * cfg.peak_rate \
            * g.lorentzian(grid, center, cfg.fwhm(), 1.0, 0.0)
        lit = np.full(grid.size, bright)
        if cfg.ionization_coeff > 0:
            u = rng.random(grid.size)
            for i in range(grid.size):
                lit[i] = bright
                if bright:
                    p = min(1.0, cfg.ionization_coeff * s[i])
                else:
                    p = min(1.0, cfg.repump_rate * s[i]) \
                        if cfg.repump == "resonant" else 0.0
                if u[i] < p:
                    t_point = k * scan_time + (i + 1) * cfg.dwell
                    kind = "ionization" if bright else "repump"
                    events.append(g.ScanEvent(k, i, t_point, kind, center))
                    bright = not bright
        expected = cfg.dwell * cfg.background_rate + np.where(lit, s, 0.0)
        counts.append(expected if cfg.noiseless
                      else rng.poisson(expected).astype(float))
    return counts, events


def _stream_reached(*args):
    raise AssertionError("random stream drawn")


def _cfg(**overrides):
    base = dict(emitter=PBV, temperature=6.2,
                grid=g.FrequencyGrid(-150.0, 150.0, 3.0),
                dwell=0.1, peak_rate=5000.0, background_rate=100.0, seed=1)
    base.update(overrides)
    return g.ScanSeriesConfig(**base)


class TestConfigValidation:
    def test_grid(self):
        with pytest.raises(ValueError):
            g.FrequencyGrid(0.0, 10.0, -1.0)
        with pytest.raises(ValueError):
            g.FrequencyGrid(10.0, 0.0, 1.0)
        assert g.FrequencyGrid(-10.0, 10.0, 5.0).centers().tolist() == \
            [-10.0, -5.0, 0.0, 5.0, 10.0]

    @pytest.mark.parametrize("start, stop, step, error", [
        (-150.0, 150.0, 1e-320, "points"), (0.0, 1e6, 0.5, "points"),
        (-1e308, 1e308, 1.0, "points"), (float("-inf"), 0.0, 1.0, "finite"),
        (0.0, float("inf"), 1.0, "finite"), (0.0, 1.0, float("nan"), "finite"),
        (None, 1.0, 0.1, "^start must be a finite number, got None$"),
        (0.0, "1", 0.1, "^stop must be a finite number, got '1'$")])
    def test_grid_size_checked_at_construction(self, start, stop, step, error):
        # centers() of the first three would size many GiB, or overflow;
        # None and "1" ended in np.isfinite's TypeError
        with pytest.raises(ValueError, match=error):
            g.FrequencyGrid(start, stop, step)

    @pytest.mark.parametrize("field, value", [
        ("emitter", "PbV"), ("emitter", None), ("grid", (-10.0, 10.0, 1.0)),
        ("grid", None)])
    def test_record_field_named(self, field, value):
        # an emitter "PbV" was accepted and failed in fwhm() with an
        # AttributeError; a tuple grid raised one here
        with pytest.raises(ValueError, match=f"^{field} must be of type "):
            _cfg(**{field: value})

    def test_grid_at_point_limit(self):
        assert g.FrequencyGrid(0.0, MAX_BINS - 1.0, 1.0).centers().size == MAX_BINS
        with pytest.raises(ValueError, match="points"):
            g.FrequencyGrid(0.0, float(MAX_BINS), 1.0)

    @pytest.mark.parametrize("bad", [
        dict(dwell=0.0), dict(peak_rate=-1.0), dict(temperature=-1.0),
        dict(jump_prob=1.5), dict(ionization_coeff=-0.1),
        dict(repump="sometimes"), dict(n_scans=0), dict(repump_rate=-1.0),
    ])
    def test_bad_fields(self, bad):
        with pytest.raises(ValueError):
            _cfg(**bad)

    @pytest.mark.parametrize("field", [
        "temperature", "dwell", "peak_rate", "background_rate", "center0",
        "diffusion_sigma", "jump_prob", "jump_sigma", "ionization_coeff",
        "repump_rate"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_fields(self, field, bad):
        # each `< 0` test lets NaN through, and center0=inf would write a
        # background-only series
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            _cfg(**{field: bad})

    def test_array_temperature_named(self):
        # it was stored as an array and written into each scan's meta
        with pytest.raises(ValueError,
                           match=r"^temperature must be a scalar, got shape \(1,\)$"):
            _cfg(temperature=np.array([6.2]))
        assert type(_cfg(temperature=np.array(6.2)).temperature) is float

    def test_array_center_named(self):
        # it ended in numpy's unnamed broadcast error in the first scan
        with pytest.raises(ValueError,
                           match=r"^center0 must be a scalar, got shape \(2,\)$"):
            _cfg(center0=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
    def test_non_integral_n_scans(self, bad):
        # 2.5 used to construct, and simulate_scan_series then ended in a
        # TypeError from range()
        with pytest.raises(ValueError, match=f"^n_scans must be an integer, got {bad}$"):
            _cfg(n_scans=bad)

    def test_integral_float_n_scans(self):
        cfg = _cfg(n_scans=2.0)
        assert type(cfg.n_scans) is int
        spectra, events = g.simulate_scan_series(cfg)
        expected, expected_events = g.simulate_scan_series(_cfg(n_scans=2))
        assert [s.counts.tolist() for s in spectra] \
            == [s.counts.tolist() for s in expected]
        assert events == expected_events

    def test_scan_points_capped(self):
        # 101 points per scan: the series may hold at most MAX_BINS points
        limit = MAX_BINS // 101
        assert _cfg(n_scans=limit).n_scans == limit
        for n_scans in (limit + 1, 10**12):
            with pytest.raises(ValueError, match="n_scans x grid points"):
                _cfg(n_scans=n_scans)
        wide = g.FrequencyGrid(0.0, MAX_BINS - 1.0, 1.0)
        assert _cfg(grid=wide).grid.size() == MAX_BINS
        with pytest.raises(ValueError, match="n_scans x grid points"):
            _cfg(grid=wide, n_scans=2)

    def test_fails_before_sampling_on_bad_linewidth(self):
        p = g.EmitterParams("bad", f_gs=100.0, f_es=500.0, gamma0=30.0,
                            gamma_others=-100.0)
        with pytest.warns(g.NegativeLinewidthWarning):
            with pytest.raises(ValueError, match="linewidth"):
                g.simulate_ple_scan(_cfg(emitter=p))


class TestPleScan:
    def test_deterministic(self):
        s1 = g.simulate_ple_scan(_cfg(seed=7))
        s2 = g.simulate_ple_scan(_cfg(seed=7))
        assert np.array_equal(s1.counts, s2.counts)
        s3 = g.simulate_ple_scan(_cfg(seed=8))
        assert not np.array_equal(s1.counts, s3.counts)
        s4 = g.simulate_ple_scan(_cfg(seed=7.0))
        assert np.array_equal(s1.counts, s4.counts)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
    def test_non_integral_seed(self, bad):
        # seed 2.5 used to draw the stream of seed 2 and write 2.5 into the
        # meta; every generator takes its seed through substream
        for draw in (lambda: g.substream(bad, 0),
                     lambda: g.simulate_ple_scan(_cfg(seed=bad)),
                     lambda: g.simulate_scan_series(_cfg(seed=bad)),
                     lambda: g.simulate_trpl(4.4, 100, bin_width=0.5, t_max=50.0,
                                             seed=bad),
                     lambda: g.simulate_hbt(2e5, 4.4, 0.9, 0.01, bin_width=2.0,
                                            tau_max=60.0, seed=bad)):
            with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad}$"):
                draw()

    @pytest.mark.parametrize("index, message", [
        (1.5, "index must be an integer, got 1.5"),
        (math.nan, "index must be an integer, got nan"),
        (None, "index must be an integer, got None"),
        (-1, "index must be >= 0, got -1")])
    def test_bad_substream_index(self, index, message):
        # 1.5 used to draw the stream of index 1, -1 ended in numpy's
        # unnamed "expected non-negative integer" and None in int()'s
        # TypeError
        with pytest.raises(ValueError, match=f"^{message}$"):
            g.substream(1, index)

    def test_integral_float_substream_index(self):
        assert g.substream(1, 2.0).random(4).tobytes() \
            == g.substream(1, 2).random(4).tobytes()

    def test_flat_background_when_peak_rate_zero(self):
        cfg = _cfg(peak_rate=0.0, background_rate=2000.0, seed=3)
        spec = g.simulate_ple_scan(cfg)
        mean = cfg.dwell * cfg.background_rate
        n = len(spec)
        assert abs(spec.counts.mean() - mean) < 3.0 * np.sqrt(mean / n)

    def test_noiseless_closure_with_fit(self):
        spec = g.simulate_ple_scan(_cfg(noiseless=True))
        report = g.fit_lorentzian(spec)
        assert report.params["fwhm"] == pytest.approx(
            g.linewidth_c(PBV, 6.2), rel=1e-6)
        assert report.params["center"] == pytest.approx(0.0, abs=1e-6)

    def test_poisson_fidelity(self):
        # per-point sample mean over 1e4 repetitions within 3 sigma
        cfg0 = _cfg(grid=g.FrequencyGrid(-40.0, 40.0, 20.0), dwell=0.05)
        n_rep = 10_000
        total = np.zeros(len(cfg0.grid.centers()))
        for rep in range(n_rep):
            total += g.simulate_ple_scan(_cfg(
                grid=cfg0.grid, dwell=cfg0.dwell, seed=rep)).counts
        expected = g.simulate_ple_scan(_cfg(
            grid=cfg0.grid, dwell=cfg0.dwell, noiseless=True)).counts
        sample_mean = total / n_rep
        tol = 3.0 * np.sqrt(expected / n_rep)
        assert np.all(np.abs(sample_mean - expected) < tol)

    def test_requires_single_scan(self):
        with pytest.raises(ValueError, match="n_scans"):
            g.simulate_ple_scan(_cfg(n_scans=3))


class TestScanSeries:
    def test_deterministic(self):
        kw = dict(n_scans=10, diffusion_sigma=4.0, ionization_coeff=3e-4,
                  repump="between_scans", seed=12)
        a_spectra, a_events = g.simulate_scan_series(_cfg(**kw))
        b_spectra, b_events = g.simulate_scan_series(_cfg(**kw))
        assert all(np.array_equal(x.counts, y.counts)
                   for x, y in zip(a_spectra, b_spectra))
        assert a_events == b_events

    def test_first_scan_matches_single_scan(self):
        # with charge dynamics too: a PLE scan is scan 0 of the series
        charge = dict(ionization_coeff=2e-3, repump="resonant", repump_rate=2e-3)
        for kw in ({}, charge, dict(charge, noiseless=True)):
            spectra, events = g.simulate_scan_series(_cfg(n_scans=5, seed=9, **kw))
            single = g.simulate_ple_scan(_cfg(seed=9, **kw))
            assert np.array_equal(spectra[0].counts, single.counts)
            meta = dict(spectra[0].meta)
            del meta["center_mhz"]
            assert single.meta == meta
        kinds = [ev.kind for ev in events if ev.scan_index == 0]
        assert "ionization" in kinds and "repump" in kinds

    @pytest.mark.parametrize("kw", [
        dict(), dict(noiseless=True), dict(diffusion_sigma=4.0),
        dict(jump_prob=0.4, jump_sigma=20.0),
        dict(diffusion_sigma=2.0, jump_prob=0.3, jump_sigma=15.0, noiseless=True),
        dict(diffusion_sigma=3.0, repump="between_scans"),
        dict(jump_prob=0.5, jump_sigma=10.0, repump="resonant", repump_rate=2e-3),
        dict(diffusion_sigma=3.0, repump="resonant", repump_rate=0.5,
             noiseless=True)],
        ids=["plain", "noiseless", "diffusion", "jumps", "both_noiseless",
             "between_scans", "resonant", "resonant_noiseless"])
    def test_matches_reference_without_ionization(self, kw):
        # the same counts, meta and events, bit for bit, as the per-point loop
        for seed in range(20):
            cfg = _cfg(grid=g.FrequencyGrid(-60.0, 60.0, 4.0), n_scans=4,
                       seed=seed * 7919 + 1, **kw)
            spectra, events = g.simulate_scan_series(cfg)
            ref_spectra, ref_events = series_reference(cfg)
            for spec, ref in zip(spectra, ref_spectra, strict=True):
                assert spec.counts.tobytes() == ref.counts.tobytes()
                assert spec.meta == ref.meta
            assert events == ref_events
            assert [repr(ev.time_s) for ev in events] == \
                [repr(ev.time_s) for ev in ref_events]

    @pytest.mark.parametrize("kw", [
        dict(repump="none"), dict(repump="between_scans", noiseless=True),
        dict(repump="between_scans", diffusion_sigma=3.0),
        dict(repump="resonant", repump_rate=2e-3, jump_prob=0.4, jump_sigma=20.0),
        dict(repump="resonant", repump_rate=5e-3, noiseless=True)],
        ids=["none", "between_scans_noiseless", "between_scans", "resonant",
             "resonant_noiseless"])
    def test_matches_documented_stream(self, kw):
        # with ionization on: the draw order of the module docstring, bit for bit
        switches = set()
        for seed in range(20):
            cfg = _cfg(grid=g.FrequencyGrid(-60.0, 60.0, 4.0), n_scans=4,
                       ionization_coeff=2e-3, seed=seed * 7919 + 1, **kw)
            spectra, events = g.simulate_scan_series(cfg)
            counts, ref_events = documented_series(cfg)
            assert [spec.counts.tobytes() for spec in spectra] == \
                [c.tobytes() for c in counts]
            assert events == ref_events
            switches |= {ev.kind for ev in events} - {"scan_start"}
        assert switches == ({"ionization", "repump"} if kw["repump"] == "resonant"
                            else {"ionization"})

    def test_no_ionization_probability_oracle(self):
        # independent of draw order: with every scan starting bright, a scan
        # sees no ionization with probability prod(1 - min(1, c s_i)); the
        # count over many scans is binomial, checked at 4.753 sigma (1e-6)
        cfg = _cfg(grid=g.FrequencyGrid(-60.0, 60.0, 4.0), n_scans=3000,
                   ionization_coeff=1e-4, repump="between_scans",
                   noiseless=True, seed=17)
        s = cfg.dwell * cfg.peak_rate * g.lorentzian(
            cfg.grid.centers(), 0.0, cfg.fwhm(), 1.0, 0.0)
        hazard = np.minimum(1.0, cfg.ionization_coeff * s)
        p_none = float(np.prod(1.0 - hazard))
        # the first ionization at or before the line center
        p_early = 1.0 - float(np.prod(1.0 - hazard[cfg.grid.centers() <= 0.0]))
        assert 0.2 < p_none < 0.8 and 0.2 < p_early < 0.8
        _, events = g.simulate_scan_series(cfg)
        first = {}
        for ev in events:
            if ev.kind == "ionization":
                first.setdefault(ev.scan_index, ev.point_index)
        grid = cfg.grid.centers()
        observed = {"none": cfg.n_scans - len(first),
                    "early": sum(grid[i] <= 0.0 for i in first.values())}
        for key, p in (("none", p_none), ("early", p_early)):
            n = cfg.n_scans
            assert abs(observed[key] - n * p) < 4.753 * math.sqrt(n * p * (1 - p)), key

    def test_static_series_identical_in_expectation(self):
        spectra, events = g.simulate_scan_series(
            _cfg(n_scans=6, noiseless=True))
        for spec in spectra[1:]:
            assert np.array_equal(spec.counts, spectra[0].counts)
        assert all(ev.kind == "scan_start" for ev in events)
        assert all(ev.center_mhz == 0.0 for ev in events)

    def test_center_scatter_consistent_with_shot_noise(self):
        spectra, _ = g.simulate_scan_series(_cfg(n_scans=30, seed=21))
        centers, errors = [], []
        for spec in spectra:
            rep = g.fit_lorentzian(spec)
            centers.append(rep.params["center"])
            errors.append(rep.std_errors["center"])
        scatter = np.std(centers, ddof=1)
        assert scatter < 2.5 * np.mean(errors)

    def test_diffusion_broadens_average(self):
        spectra, events = g.simulate_scan_series(
            _cfg(n_scans=50, diffusion_sigma=5.0, peak_rate=20000.0, seed=31))
        grid = spectra[0].detunings
        avg = g.Spectrum(grid, np.mean([s.counts for s in spectra], axis=0))
        fwhm_avg = g.fit_lorentzian(avg).params["fwhm"]
        singles = [g.fit_lorentzian(s).params["fwhm"] for s in spectra]
        assert fwhm_avg > np.median(singles)

        # oracle: superpose noiseless profiles at the realized centers
        width = g.linewidth_c(PBV, 6.2)
        centers = [ev.center_mhz for ev in events if ev.kind == "scan_start"]
        profile = np.mean([g.lorentzian(grid, c, width, 1.0, 0.0)
                           for c in centers], axis=0)
        oracle = g.fit_lorentzian(
            g.Spectrum(grid, 2000.0 * profile / profile.max() + 10.0))
        assert fwhm_avg == pytest.approx(oracle.params["fwhm"], rel=0.10)

    def test_ionization_extinction_and_recovery(self):
        kw = dict(n_scans=12, ionization_coeff=5e-4, repump="between_scans",
                  noiseless=True, seed=5)
        spectra, events = g.simulate_scan_series(_cfg(**kw))
        ionizations = [ev for ev in events if ev.kind == "ionization"]
        assert ionizations, "expected at least one ionization event"
        # extinction clusters near resonance where the absorption is strongest
        grid = spectra[0].detunings
        offsets = [abs(grid[ev.point_index]) for ev in ionizations]
        assert np.median(offsets) < 60.0
        # the scan after an ionization starts bright again
        ev = ionizations[0]
        if ev.scan_index + 1 < len(spectra):
            nxt = spectra[ev.scan_index + 1]
            assert nxt.counts.max() > 5.0 * _cfg().dwell * _cfg().background_rate
        # mid-scan extinction: points after the event show only background
        bg = _cfg().dwell * _cfg().background_rate
        struck = spectra[ev.scan_index]
        assert np.allclose(struck.counts[ev.point_index + 1:], bg)

    def test_repump_none_stays_dark(self):
        kw = dict(n_scans=12, ionization_coeff=2e-3, repump="none",
                  noiseless=True, seed=5)
        spectra, events = g.simulate_scan_series(_cfg(**kw))
        first_ion = next(ev for ev in events if ev.kind == "ionization")
        bg = _cfg().dwell * _cfg().background_rate
        for spec in spectra[first_ion.scan_index + 1:]:
            assert np.allclose(spec.counts, bg)

    def test_resonant_repump_recovers(self):
        kw = dict(n_scans=12, ionization_coeff=2e-3, repump="resonant",
                  repump_rate=2e-3, noiseless=True, seed=5)
        _, events = g.simulate_scan_series(_cfg(**kw))
        kinds = [ev.kind for ev in events]
        assert "ionization" in kinds and "repump" in kinds

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kw, error", [
        (dict(center0=1e200, noiseless=True), None),  # L = 0: background only
        (dict(diffusion_sigma=1e308), None),          # far, finite centers
        (dict(jump_prob=1.0, jump_sigma=1e308),
         r"^center_mhz at scan \d must be finite, got inf"),
        (dict(ionization_coeff=1e308), None),         # a certain switch
        (dict(dwell=1e300, peak_rate=1e10),
         r"^expected_counts must be finite.*; got inf$"),
        (dict(peak_rate=1e306),
         r"^expected_counts .* below 9\.22337e\+18; got 1e\+305$"),
        (dict(dwell=1e308, peak_rate=0.0, background_rate=0.0),
         r"^n_scans x grid points x dwell must be finite"),
        (dict(temperature=1e142), None),              # w = 9.8e145 MHz
        (dict(temperature=1e143), "^model linewidth 9.84e"),  # above 2.8e146
    ], ids=["center0", "diffusion_sigma", "jump_sigma", "ionization_coeff",
            "dwell_peak_rate", "peak_rate", "dwell", "wide_line", "too_wide_line"])
    def test_edge_of_float_range(self, kw, error):
        # a finite answer or a ValueError naming the value, and no warning
        def both():
            spectra, events = g.simulate_scan_series(_cfg(n_scans=3, **kw))
            return spectra, events, g.simulate_ple_scan(_cfg(**kw))

        if error is not None:
            with pytest.raises(ValueError, match=error):
                both()
            return
        spectra, events, single = both()
        assert np.array_equal(single.counts, spectra[0].counts)
        for spec in spectra:
            assert np.all(np.isfinite(spec.counts))
            assert math.isfinite(spec.meta["center_mhz"])
        assert all(math.isfinite(ev.time_s) and math.isfinite(ev.center_mhz)
                   for ev in events)
        if "center0" in kw:
            assert np.all(spectra[0].counts == _cfg().dwell * _cfg().background_rate)
        if "ionization_coeff" in kw:
            assert (events[1].kind, events[1].point_index) == ("ionization", 0)

    def test_bright_fraction_monotone_in_ionization(self):
        def bright_fraction(coeff):
            fractions = []
            for seed in (2, 3, 4):
                spectra, _ = g.simulate_scan_series(_cfg(
                    n_scans=20, ionization_coeff=coeff,
                    repump="between_scans", noiseless=True, seed=seed))
                bg = _cfg().dwell * _cfg().background_rate
                points = np.concatenate([s.counts for s in spectra])
                fractions.append(np.mean(points > bg))
            return np.mean(fractions)

        values = [bright_fraction(c) for c in (0.0, 5e-4, 2e-3, 1e-2)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


class TestTrpl:
    def test_deterministic(self):
        t1 = g.simulate_trpl(4.4, 100_000, bin_width=0.2, t_max=60.0, seed=4)
        t2 = g.simulate_trpl(4.4, 100_000, bin_width=0.2, t_max=60.0, seed=4)
        assert np.array_equal(t1.counts, t2.counts)
        t3 = g.simulate_trpl(4.4, 1e5, bin_width=0.2, t_max=60.0, seed=4)
        assert np.array_equal(t1.counts, t3.counts)

    def test_non_integral_counts_total(self, monkeypatch):
        # 2.5 used to draw 2 counts
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        with pytest.raises(ValueError, match=r"^counts_total must be an integer, got 2\.5$"):
            g.simulate_trpl(4.4, 2.5, bin_width=0.5, t_max=50.0)

    def test_exp1_closure(self):
        trace = g.simulate_trpl(4.4, 1_000_000, bin_width=0.2, t_max=60.0, seed=3)
        report = g.fit_decay(trace, "exp1")
        assert report.params["tau"] == pytest.approx(4.4, rel=0.01)

    def test_exp2_closure(self):
        trace = g.simulate_trpl(
            5.5, 2_000_000, bin_width=0.1, t_max=60.0,
            background=g.TrplBackground(a_fast=6.0, tau_fast=0.5), seed=11)
        report = g.fit_decay(trace, "exp2")
        assert report.params["tau_slow"] == pytest.approx(5.5, rel=0.02)
        assert report.derived["transform_limit_mhz"] == pytest.approx(28.9, abs=0.8)

    def test_zero_counts_total(self):
        trace = g.simulate_trpl(4.4, 0, bin_width=0.5, t_max=50.0, seed=1)
        assert trace.counts.sum() == 0
        with pytest.raises(ValueError, match="no decay"):
            g.fit_decay(trace)

    def test_zero_counts_total_with_background(self):
        # the fast share of no counts is binomial(0, p), which draws nothing
        trace = g.simulate_trpl(4.4, 0, bin_width=0.5, t_max=50.0,
                                background=g.TrplBackground(6.0, 0.5))
        assert trace.counts.size == 100 and not trace.counts.any()

    def test_short_window_warns(self):
        with pytest.warns(UserWarning, match="10 lifetimes"):
            g.simulate_trpl(10.0, 1000, bin_width=0.5, t_max=50.0, seed=1)

    def test_total_counts_conserved_up_to_clipping(self):
        trace = g.simulate_trpl(4.4, 50_000, bin_width=0.2, t_max=80.0, seed=2)
        clipped = 50_000 * np.exp(-80.0 / 4.4)
        assert 50_000 - trace.counts.sum() <= max(10 * clipped, 10)

    @pytest.mark.parametrize("lifetime, background, in_window", [
        (1.7e308, None, 0),
        (4.4, g.TrplBackground(a_fast=1e200, tau_fast=1e200), 0),
        (1e308, g.TrplBackground(a_fast=1e308, tau_fast=1.5), 600)])
    def test_weights_and_arrivals_past_float_range(self, lifetime, background,
                                                   in_window):
        # arrivals that overflow to inf fall outside the histogram, and the
        # fast share is right where its weights overflow (inf: all fast;
        # 1.5e308 against 1e308, whose sum overflows: 0.6), with no numpy
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "t_max = .* below 10 lifetimes")
            trace = g.simulate_trpl(lifetime, 1000, bin_width=0.5, t_max=50.0,
                                    background=background, seed=1)
        assert abs(trace.counts.sum() - in_window) <= 50

    def test_errors(self):
        with pytest.raises(ValueError):
            g.simulate_trpl(-1.0, 100, bin_width=0.5, t_max=50.0)
        with pytest.raises(ValueError):
            g.simulate_trpl(4.4, -5, bin_width=0.5, t_max=50.0)
        with pytest.raises(ValueError):
            g.TrplBackground(a_fast=-1.0, tau_fast=0.5)

    @pytest.mark.parametrize("bin_width, t_max, error", [
        (0.2, float("inf"), "finite"), (float("nan"), 60.0, "finite"),
        (0.2, float("nan"), "finite"), (float("inf"), 60.0, "finite"),
        (1e-7, 60.0, "bins"), (1e-320, 60.0, "bins"),
        (0.5, 0.5, "t_max must cover at least two bins")])
    def test_bin_count_checked_before_drawing(self, monkeypatch, bin_width,
                                              t_max, error):
        # the huge cases would size arrays of many GiB; the check must come
        # before the random stream, which therefore must not be reached
        def stream_reached(*args):
            raise AssertionError("random stream drawn")

        monkeypatch.setattr(g.simulate, "substream", stream_reached)
        with pytest.raises(ValueError, match=error):
            g.simulate_trpl(4.4, 1000, bin_width=bin_width, t_max=t_max)


    @pytest.mark.parametrize("lifetime", [float("inf"), float("nan")])
    @pytest.mark.parametrize("background", [None, g.TrplBackground(6.0, 0.5)])
    def test_non_finite_lifetime_before_drawing(self, monkeypatch, lifetime,
                                                background):
        # an infinite or NaN lifetime used to give an all-zero histogram
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        with pytest.raises(ValueError, match="^lifetime must be finite"):
            g.simulate_trpl(lifetime, 1000, bin_width=0.2, t_max=60.0,
                            background=background)

    @pytest.mark.parametrize("lifetime, counts_total, message", [
        ("4.4", 10, "lifetime must be a finite number, got '4.4'"),
        (4.4, None, "counts_total must be an integer, got None")])
    def test_non_numeric_argument_named(self, monkeypatch, lifetime,
                                        counts_total, message):
        # np.isfinite and the range check's comparison raised TypeErrors
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            g.simulate_trpl(lifetime, counts_total, bin_width=0.5, t_max=50.0)

    @pytest.mark.parametrize("background", [
        (6.0, 0.5), {"a_fast": 6.0, "tau_fast": 0.5}])
    def test_background_not_a_record_named(self, monkeypatch, background):
        # background.a_fast raised an AttributeError after the first draw
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        with pytest.raises(ValueError, match=f"^background must be of type "
                                             f"TrplBackground, got {re.escape(repr(background))}$"):
            g.simulate_trpl(4.4, 10, bin_width=0.5, t_max=50.0,
                            background=background)

    @pytest.mark.parametrize("field", ["a_fast", "tau_fast"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_background(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            g.TrplBackground(**{"a_fast": 6.0, "tau_fast": 0.5, field: bad})

    def test_counts_cap_from_memory_budget(self, monkeypatch):
        # counts_total fits the stream budget at 9 B per count
        cap = g.simulate._MAX_TRPL_COUNTS
        assert cap * 9 <= g.simulate._STREAM_BUDGET < (cap + 1) * 9
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        with pytest.raises(AssertionError, match="random stream drawn"):
            g.simulate_trpl(4.4, cap, bin_width=0.2, t_max=60.0)
        with pytest.raises(ValueError, match="counts_total"):
            g.simulate_trpl(4.4, cap + 1, bin_width=0.2, t_max=60.0)

    def test_peak_memory_per_count_with_background(self):
        # both components are drawn into one array and scaled in place, so
        # a background adds nothing to the ~9 B per count of the plain decay
        background = g.TrplBackground(6.0, 0.5)
        g.simulate_trpl(4.4, 1000, bin_width=0.2, t_max=60.0,
                        background=background)  # warm-up
        tracemalloc.start()
        try:
            g.simulate_trpl(4.4, 1_000_000, bin_width=0.2, t_max=60.0,
                            background=background, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 1e6, f"peak {peak / 1e6:.1f} B per count"

    @pytest.mark.parametrize("counts_total", [2e8 + 1, 1e12, float("nan")])
    def test_counts_total_checked_before_drawing(self, monkeypatch, counts_total):
        # 1e12 arrivals would need 8 TB; the cap is the HBT stream's
        def stream_reached(*args):
            raise AssertionError("random stream drawn")

        monkeypatch.setattr(g.simulate, "substream", stream_reached)
        with pytest.raises(ValueError, match="counts_total"):
            g.simulate_trpl(4.4, counts_total, bin_width=0.2, t_max=60.0)


class TestHbt:
    def test_deterministic(self):
        h1 = g.simulate_hbt(2e5, 4.4, 0.9, 2.0, bin_width=2.0, tau_max=60.0, seed=6)
        h2 = g.simulate_hbt(2e5, 4.4, 0.9, 2.0, bin_width=2.0, tau_max=60.0, seed=6)
        assert np.array_equal(h1.coincidence_counts, h2.coincidence_counts)

    def test_pure_background_is_flat(self):
        hist = g.simulate_hbt(3e5, 4.4, 0.0, 5.0, bin_width=2.0, tau_max=60.0,
                              seed=1)
        sigma = 1.0 / np.sqrt(hist.normalization)
        assert np.all(np.abs(hist.g2 - 1.0) < 4.0 * sigma)
        assert abs(hist.g2.mean() - 1.0) < 3.0 * sigma / np.sqrt(len(hist))

    def test_pure_emitter_antibunches(self):
        hist = g.simulate_hbt(3e5, 4.4, 1.0, 5.0, bin_width=1.0, tau_max=50.0,
                              seed=2)
        m = len(hist) // 2
        assert hist.g2[m] < 0.2
        assert abs(hist.g2[0] - 1.0) < 0.3  # flat far from zero delay

    def test_mixture_matches_analytic_curve(self):
        rate, lifetime, rho, bw = 1e6, 4.4, 0.959, 1.0
        hist = g.simulate_hbt(rate, lifetime, rho, 5.0, bin_width=bw,
                              tau_max=60.0, seed=14)
        # independent oracle: two-level renewal autocorrelation mixed with
        # flat background, averaged over each bin
        excitation = 1.0 / (1.0 / (rho * rate) - lifetime * 1e-9)
        tau_c = 1e9 / (excitation + 1e9 / lifetime)
        tau = hist.tau_bins
        lo = np.maximum(np.abs(tau) - bw / 2.0, 0.0)
        hi = np.abs(tau) + bw / 2.0
        avg_exp = np.where(
            np.abs(tau) < bw / 4.0,
            (2.0 * tau_c / bw) * (1.0 - np.exp(-bw / (2.0 * tau_c))),
            (tau_c / bw) * (np.exp(-lo / tau_c) - np.exp(-hi / tau_c)))
        expected = (1.0 - rho ** 2 * avg_exp) * hist.normalization
        chi2 = float(np.sum((hist.coincidence_counts - expected) ** 2 / expected))
        assert chi2 / len(tau) < 2.0

    def test_symmetry_within_statistics(self):
        hist = g.simulate_hbt(5e5, 4.4, 0.8, 4.0, bin_width=2.0, tau_max=80.0,
                              seed=9)
        fwd = hist.g2[len(hist) // 2 + 1:]
        bwd = hist.g2[:len(hist) // 2][::-1]
        sigma = 1.0 / np.sqrt(hist.normalization)
        assert np.all(np.abs(fwd - bwd) < 6.0 * sigma)

    def test_errors(self):
        with pytest.raises(ValueError):
            g.simulate_hbt(1e5, 4.4, 1.5, 1.0, bin_width=1.0, tau_max=50.0)
        with pytest.raises(ValueError):
            g.simulate_hbt(-1e5, 4.4, 0.5, 1.0, bin_width=1.0, tau_max=50.0)
        with pytest.raises(ValueError, match="too high"):
            g.simulate_hbt(3e8, 4.4, 1.0, 0.1, bin_width=1.0, tau_max=50.0)

    @pytest.mark.parametrize("bin_width, tau_max, error", [
        (1.0, float("inf"), "finite"), (float("nan"), 50.0, "finite"),
        (1.0, float("nan"), "finite"), (1.0, 1e10, "bins"),
        (1e-320, 50.0, "bins")])
    def test_histogram_size_checked_before_kernel(self, monkeypatch,
                                                  bin_width, tau_max, error):
        # the huge cases would size a histogram of many GiB; the check must
        # come before the kernel, which therefore must not be reached
        def kernel_reached(*args):
            raise AssertionError("coincidence kernel called")

        monkeypatch.setattr(g.simulate, "coincidence_histogram", kernel_reached)
        with pytest.raises(ValueError, match=error):
            g.simulate_hbt(1e5, 4.4, 0.5, 1e-3, bin_width=bin_width,
                           tau_max=tau_max)
        with pytest.raises(ValueError, match=error):
            g.correlate_stream(np.array([0.0, 1.0, 2.0]), bin_width=bin_width,
                               tau_max=tau_max)


    @pytest.mark.parametrize("field", ["rate", "lifetime", "purity_rho",
                                       "duration"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_before_drawing(self, monkeypatch, field, bad):
        # NaN used to fail by accident ("cannot convert float NaN to
        # integer", "fewer than 2 photons", "lam < 0 or lam is NaN")
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        kw = dict(rate=1e5, lifetime=4.4, purity_rho=0.5, duration=1e-3)
        kw[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            g.simulate_hbt(**kw, bin_width=1.0, tau_max=50.0)

    @pytest.mark.parametrize("field", ["rate", "lifetime", "purity_rho",
                                       "duration", "bin_width", "tau_max"])
    def test_none_named_before_drawing(self, monkeypatch, field):
        # np.isfinite of None raised a TypeError
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        kw = dict(rate=1e5, lifetime=4.4, purity_rho=0.5, duration=1e-3,
                  bin_width=1.0, tau_max=50.0)
        kw[field] = None
        with pytest.raises(ValueError,
                           match=f"^{field} must be a finite number, got None$"):
            g.simulate_hbt(**kw)

    @pytest.mark.parametrize("rate, lifetime, rho, duration, bin_width, seed, error", [
        # every photon at detector b: a g2 of 0/0
        (3.0, 4.4, 0.5, 1.0, 2.0, 18, "normalization = 0 .* 0 and 4 photons"),
        (1e5, 4.4, 0.5, 0.01, 5e-324, 0, "normalization = 0 "),
        (1e-300, 4.4, 0.0, 3e300, 2.0, 0, "overflows in ns"),
        (1e5, 1e-320, 0.5, 0.01, 2.0, 0, "underflows in s"),
        (5e-324, 4.4, 0.9, 1.0, 2.0, 0, "purity_rho = 4.94066e-324 /s is out")])
    def test_out_of_range_named(self, rate, lifetime, rho, duration,
                                bin_width, seed, error):
        # each gave a NaN or inf g2, a numpy warning or a ZeroDivisionError
        with warnings.catch_warnings(), pytest.raises(ValueError, match=error):
            warnings.simplefilter("error")
            g.simulate_hbt(rate, lifetime, rho, duration, bin_width=bin_width,
                           tau_max=bin_width, seed=seed)

    @pytest.mark.parametrize("bin_width", [5e-324, 1e-320])
    def test_subnormal_bin_width_across_segments(self, monkeypatch, bin_width):
        # the counter reaches (m_max + 1/2) * bin_width past a segment end,
        # a subnormal or 0; 10 segments are counted before the normalization
        # is named, with no numpy warning and no ZeroDivisionError
        monkeypatch.setattr(g.simulate, "_SEGMENT_PHOTONS", 100)
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match="normalization = .* is out of range"):
            warnings.simplefilter("error")
            g.simulate_hbt(1e5, 4.4, 0.5, 0.01, bin_width=bin_width,
                           tau_max=bin_width)

    def test_emitter_waits_past_float_range(self):
        # rate * purity_rho = 4.5e-308 /s: the emitter's waits overflow to
        # inf, past duration, with no numpy warning; the background remains
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = g.simulate_hbt(2e5, 4.4, 2.2250738585e-313, 0.05,
                                  bin_width=2.0, tau_max=50.0)
        assert hist.coincidence_counts.sum() > 0

    @pytest.mark.parametrize("rate, duration, accepted", [
        (4e6, 7.5, True),      # criterion 7: 3e7 photons
        (1e6, 63.0, True), (1e6, 64.0, False), (1e8, 2.0, False)])
    def test_stream_cap_from_memory_budget(self, monkeypatch, rate,
                                           duration, accepted):
        # rate * duration fits the stream budget at 17 B per photon; the
        # cap is checked before anything is drawn or allocated
        cap = g.simulate._MAX_STREAM_PHOTONS
        assert cap * 17 <= g.simulate._STREAM_BUDGET < (cap + 1) * 17
        monkeypatch.setattr(g.simulate, "substream", _stream_reached)
        expected = (AssertionError, "random stream drawn") if accepted \
            else (ValueError, "stream too large")
        with pytest.raises(expected[0], match=expected[1]):
            g.simulate_hbt(rate, 4.4, 0.959, duration, bin_width=0.2,
                           tau_max=50.0)

    @pytest.mark.parametrize(
        "rate, rho, duration, bin_width, tau_max, seed, batches", [
            (4e6, 0.0, 0.025, 0.2, 50.0, 1, 0),   # fine bins: pair branch
            (4e6, 0.5, 0.025, 0.2, 50.0, 2, 1),
            (4e6, 1.0, 0.025, 0.2, 50.0, 3, 1),
            (1e6, 0.0, 0.1, 1e4, 1e5, 4, 0),      # wide bins: per-edge branch
            (1e6, 0.5, 0.1, 1e4, 1e5, 5, 1),
            (1e6, 1.0, 0.1, 1e4, 1e5, 6, 1),
            (1e4, 1.0, 0.01, 1e5, 1e6, 29, 2),    # the first batch falls short
            (1e4, 1.0, 0.01, 1e5, 1e6, 37, 2),
            (1e4, 0.5, 0.02, 1e5, 1e6, 81, 2)])
    def test_stream_matches_reference(self, monkeypatch, rate, rho, duration,
                                      bin_width, tau_max, seed, batches):
        # streams of one segment
        assert rate * duration < 2 * g.simulate._SEGMENT_PHOTONS
        self.assert_matches_reference(monkeypatch, rate, rho, duration,
                                      bin_width, tau_max, seed, 1 << 17,
                                      batches)

    @pytest.mark.parametrize(
        "rate, rho, duration, bin_width, tau_max, seed, segment, batches", [
            # two segments of the real size
            (1e6, 0.0, 0.3, 1e4, 1e5, 7, 1 << 17, 0),
            (1e6, 0.5, 0.3, 1e4, 1e5, 8, 1 << 17, 2),
            (1e6, 1.0, 0.3, 1e4, 1e5, 9, 1 << 17, 2),
            # 33 segments, blocks of 3000 rows that span segment ends
            (4e6, 0.0, 0.025, 0.2, 50.0, 10, 3000, 0),
            (4e6, 0.5, 0.025, 0.2, 50.0, 11, 3000, 33),
            (4e6, 1.0, 0.025, 0.2, 50.0, 12, 3000, 33),
            # tau_max of 4 segments (2e7 ns each), a window of ~400 rows
            (1e4, 0.5, 0.5, 2e5, 8e7, 13, 200, 26),
            # 60 segments of one expected photon: many hold none
            (30.0, 0.5, 2.0, 1e8, 5e8, 14, 1, 2),
            (30.0, 1.0, 2.0, 1e8, 5e8, 15, 1, 4)])
    def test_segmented_stream_matches_reference(
            self, monkeypatch, rate, rho, duration, bin_width, tau_max, seed,
            segment, batches):
        # the histogram is coincidence_histogram of the concatenated
        # detectors: every pair across a segment end is counted once
        self.assert_matches_reference(monkeypatch, rate, rho, duration,
                                      bin_width, tau_max, seed, segment,
                                      batches)
        if segment == 1:
            ends = [duration * (k / 60) * 1e9 for k in range(61)]
            stream = np.concatenate(reference_detectors(
                rate, 4.4, rho, duration, seed, segment))
            assert 0 in np.histogram(stream, ends)[0]

    @staticmethod
    def assert_matches_reference(monkeypatch, rate, rho, duration, bin_width,
                                 tau_max, seed, segment, batches):
        """simulate_hbt with segments of ``segment`` expected photons and
        kernel blocks of at most as many rows gives hbt_reference's
        histogram, bit for bit, from ``batches`` emitter batches."""
        drawn = []  # the size of each emitter batch
        draw = g.simulate._Emitter._draw

        def counting_draw(emitter, ts):
            drawn.append(ts.size)
            draw(emitter, ts)

        monkeypatch.setattr(g.simulate._Emitter, "_draw", counting_draw)
        monkeypatch.setattr(g.simulate, "_SEGMENT_PHOTONS", segment)
        monkeypatch.setattr(g._kernels, "_BLOCK_ROWS", min(segment, 1 << 16))
        hist = g.simulate_hbt(rate, 4.4, rho, duration, bin_width=bin_width,
                              tau_max=tau_max, seed=seed)
        counts, g2, normalization = hbt_reference(
            rate, 4.4, rho, duration, bin_width=bin_width, tau_max=tau_max,
            seed=seed, segment_photons=segment)
        assert np.array_equal(hist.coincidence_counts, counts)
        assert np.array_equal(hist.g2, g2)
        assert hist.normalization == normalization
        assert counts.sum() > 0
        assert len(drawn) == batches

    @pytest.mark.parametrize("rho", [0.0, 1.0, 0.5, 0.959],
                             ids=["background", "emitter", "mixed", "crit7"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_merged_stream_equals_default_sort(self, monkeypatch, rho, seed):
        # the sorted emitter and background runs are merged by a stable
        # sort; the stream is positive floats, so it is the default sort's
        detectors = []
        split = g.simulate._split

        def capture(stream, to_b, det_a, det_b):
            split(stream, to_b, det_a, det_b)
            detectors.append((det_a.copy(), det_b.copy()))

        monkeypatch.setattr(g.simulate, "_split", capture)
        g.simulate_hbt(4e6, 4.4, rho, 2e-3, bin_width=0.2, tau_max=50.0,
                       seed=seed)
        (det_a, det_b), = detectors
        ref_a, ref_b = reference_detectors(4e6, 4.4, rho, 2e-3, seed)
        assert det_a.size + det_b.size > 7000
        assert det_a.tobytes() == ref_a.tobytes()
        assert det_b.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 100_000])
    @pytest.mark.parametrize("p_b", [0.0, 0.5, 1.0])
    def test_split_equals_mask_indexing(self, n, p_b):
        rng = np.random.default_rng(n)
        stream = np.sort(rng.uniform(0.0, 0.025, n))
        to_b = rng.random(n) < p_b
        mask = to_b.copy()
        det_a, det_b = np.empty(n - np.count_nonzero(mask)), np.empty(np.count_nonzero(mask))
        g.simulate._split(stream, to_b, det_a, det_b)
        assert det_a.tobytes() == stream[~mask].tobytes()
        assert det_b.tobytes() == stream[mask].tobytes()
        assert np.array_equal(to_b, mask)

    @pytest.mark.parametrize("rho", [0.0, 0.9, 1.0])
    def test_peak_memory_flat_in_stream_length(self, rho):
        # hbt_wide-like streams of 1e6 and 4e6 photons: built and counted a
        # segment (~1.4e5 photons) at a time, so the traced peak (~8.7 MB)
        # does not grow with the stream; at 17 B per photon it grew by 51 MB
        g.simulate_hbt(1e5, 4.4, rho, 1e-2, bin_width=1e4, tau_max=1e5)  # warm-up
        peaks = []
        for duration in (1.0, 4.0):
            tracemalloc.start()
            try:
                g.simulate_hbt(1e6, 4.4, rho, duration, bin_width=1e4,
                               tau_max=1e5, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1e6, f"peaks {peaks[0] / 1e6:.1f} MB " \
            f"at 1e6 photons, {peaks[1] / 1e6:.1f} MB at 4e6"
        assert peaks[0] < 12e6, f"peak {peaks[0] / 1e6:.1f} MB at 1e6 photons"


class TestCorrelateStream:
    def test_poisson_stream_flat(self):
        rng = np.random.default_rng(23)
        duration = 2e9  # 2 s in ns
        times = np.sort(rng.uniform(0.0, duration, 200_000))
        hist = g.correlate_stream(times, bin_width=20.0, tau_max=400.0,
                                  duration=duration)
        sigma = 1.0 / np.sqrt(hist.normalization)
        assert np.all(np.abs(hist.g2 - 1.0) < 4.5 * sigma)

    def test_pulse_train_comb(self):
        period, n = 100.0, 2000
        times = period * np.arange(n, dtype=float)
        hist = g.correlate_stream(times, bin_width=5.0, tau_max=350.0,
                                  duration=period * n)
        m = len(hist) // 2
        per_bin = dict(zip(np.rint(hist.tau_bins).astype(int),
                           hist.coincidence_counts))
        assert per_bin[0] == 0  # self pairs removed
        for k in (1, 2, 3):
            assert per_bin[100 * k] == n - k
            assert per_bin[-100 * k] == n - k
        others = [c for t, c in per_bin.items() if t % 100 != 0]
        assert max(others) == 0

    @pytest.mark.parametrize("kw", [dict(duration=1e308),
                                    dict(bin_width=5e-324, tau_max=5e-324)],
                             ids=["duration", "bin_width"])
    def test_normalization_out_of_range_named(self, kw):
        # a normalization that underflows to 0, or so small that a g2 value
        # overflows, used to give a NaN or inf g2 with a numpy warning
        kw = dict(dict(bin_width=1.0, tau_max=5.0), **kw)
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match="normalization .* out of range"):
            warnings.simplefilter("error")
            g.correlate_stream(np.array([0.0, 1.0, 2.0]), **kw)

    def test_duration_before_last_arrival_rejected(self):
        # arrivals up to 3.0 normalized over 0.5 gave a g2 of a stream
        # shorter than its own data
        t = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="duration 0.5 is before the last "
                                             "arrival time 3.0"):
            g.correlate_stream(t, bin_width=1.0, tau_max=5.0, duration=0.5)
        at_last = g.correlate_stream(t, bin_width=1.0, tau_max=5.0, duration=3.0)
        default = g.correlate_stream(t, bin_width=1.0, tau_max=5.0)
        assert np.array_equal(at_last.g2, default.g2)

    def test_bin_width_below_tag_resolution_rejected(self):
        # 2**50 + 0.1 rounds to 2**50: that photon's pair with itself fell
        # outside the centre bin, which still subtracted it, and the centre
        # bin read 8 instead of its 9 pairs of distinct photons
        t = 2.0 ** 50 + np.array([-0.125] * 3 + [0.0])
        with pytest.raises(ValueError, match=r"bin_width 0.2 is below the "
                           r"resolution of the arrival time 1125899906842624\.0"):
            g.correlate_stream(t, bin_width=0.2, tau_max=1.0)
        hist = g.correlate_stream(t, bin_width=0.5, tau_max=1.0)
        assert np.array_equal(hist.coincidence_counts, bin_rule_counts(t, 0.5, 2))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            g.correlate_stream(np.array([0.0, 5.0, 3.0]), bin_width=1.0,
                               tau_max=10.0)

    @pytest.mark.parametrize("times", [[], [1.0], [[0.0, 1.0]]])
    def test_fewer_than_two_times_rejected(self, times):
        with pytest.raises(ValueError, match="^need at least two arrival times$"):
            g.correlate_stream(np.array(times), bin_width=1.0, tau_max=10.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            g.correlate_stream(np.array([-1.0, 5.0]), bin_width=1.0,
                               tau_max=10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, monkeypatch, bad):
        # NaN passes the sign and order checks; it must not reach the kernel
        def kernel_reached(*args):
            raise AssertionError("coincidence kernel called")

        monkeypatch.setattr(g.simulate, "coincidence_histogram", kernel_reached)
        for times in ([0.0, bad, 2.0, 3.0], [bad, 1.0, 2.0], [0.0, 1.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                g.correlate_stream(np.array(times), bin_width=1.0, tau_max=5.0)

    @pytest.mark.parametrize("kw, message", [
        (dict(bin_width=None), "bin_width must be a finite number, got None"),
        (dict(tau_max=None), "tau_max must be a finite number, got None"),
        (dict(duration="3"), "duration must be a finite number, got '3'")])
    def test_non_numeric_argument_named(self, kw, message):
        # np.isfinite of None and the comparison "3" <= 0 raised TypeErrors
        kw = dict(dict(bin_width=0.5, tau_max=1.0), **kw)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            g.correlate_stream(np.array([1.0, 2.0, 3.0]), **kw)

    def test_matches_hbt_statistics(self):
        # autocorrelating the merged stream shows the same antibunching dip
        hist = g.simulate_hbt(5e5, 4.4, 1.0, 2.0, bin_width=4.4, tau_max=44.0,
                              seed=3)
        m = len(hist) // 2
        assert hist.g2[m] < 0.5
        assert hist.g2[m] < hist.g2[0]


def test_zero_draws_leave_the_generator():
    # simulate_hbt draws poisson(0.0) and fills an empty array for a stream
    # without background, and simulate_trpl draws binomial(0, p) for no
    # counts; if numpy moved the generator for one of them, the streams
    # after it would change
    draws = {"poisson(0.0)": lambda rng: rng.poisson(0.0),
             "random(out=empty)": lambda rng: rng.random(out=np.empty(0)),
             "binomial(0, 0.3)": lambda rng: rng.binomial(0, 0.3)}
    for name, draw in draws.items():
        rng = g.substream(5, 0)
        state = rng.bit_generator.state
        assert np.size(draw(rng)) in (0, 1), name
        assert rng.bit_generator.state == state, name


@st.composite
def arrival_streams(draw):
    """(times, bin_width, tau_max): sorted arrival times >= 0 near an offset,
    with duplicate tags, clusters narrower than a bin, and gaps of whole or
    half bins that put separations on bin edges."""
    w = draw(st.sampled_from([1e-3, 0.2, 1.0, 4.4, 1e4]))
    tau_max = w * draw(st.floats(1.0, 12.0))
    offset = draw(st.sampled_from([0.0, 3.0, 1e9, 2.0 ** 50]))
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["same", "half_bins", "clusters", "uniform"]))
    if kind == "same":
        t = np.zeros(n)
    elif kind == "half_bins":
        t = np.cumsum(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))) \
            * (w / 2.0)
    elif kind == "clusters":
        centers = draw(st.lists(st.floats(0.0, 3.0 * tau_max), min_size=1,
                                max_size=3))
        t = np.resize(centers, n) + np.array(
            draw(st.lists(st.floats(0.0, w / 4.0), min_size=n, max_size=n)))
    else:
        t = np.array(draw(st.lists(st.floats(0.0, 2.0 * tau_max), min_size=n,
                                   max_size=n)))
    return np.sort(offset + t), w, tau_max


def test_correlate_stream_fuzz():
    # every stream either raises ValueError or counts each ordered pair of
    # distinct photons in the bin its separation falls in by the bin rule
    counted = []

    @settings(max_examples=400, deadline=None)
    @given(stream=arrival_streams())
    @example(stream=(np.array([1.0, 1.0, 1.0]), 1.0, 3.0))   # duplicates only
    @example(stream=(np.array([0.0, 1.0, 2.0, 3.0]), 1.0, 2.0))  # exact edges
    # tags 2 ulps apart (0.25 ns above 2**50, 0.125 below), finer bins
    @example(stream=(2.0 ** 50 + np.array([-0.125] * 3 + [0.0]), 0.2, 1.0))
    def check(stream):
        t, w, tau_max = stream
        try:
            hist = g.correlate_stream(t, bin_width=w, tau_max=tau_max)
        except ValueError:
            return
        expected = bin_rule_counts(t, w, len(hist) // 2)
        assert np.array_equal(hist.coincidence_counts, expected), \
            (t.tolist(), w, tau_max)
        counted.append(int(expected.sum()))

    check()
    assert len(counted) > 100 and sum(counted) > 0


# what a float argument of the simulators must refuse with a ValueError
# that names it: None, text, a list, an array of 1 to 3 floats
NOT_A_FLOAT = st.one_of(
    st.none(), st.text(max_size=3), st.lists(st.floats(), max_size=3),
    st.lists(st.floats(), min_size=1, max_size=3).map(np.array))


@st.composite
def float_fields(draw, ranges):
    """{name: value}: a float in the name's (low, high) range, one time in
    four as a 0-d array (a scalar); in half the draws one value is instead
    any float, a float of its range in a list or a 1-d array, or a value of
    NOT_A_FLOAT."""
    values = {}
    for name, (low, high) in ranges.items():
        value = draw(st.floats(low, high))
        values[name] = np.array(value) if draw(st.integers(0, 3)) == 0 else value
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(ranges)))
        good = st.floats(*ranges[name])
        values[name] = draw(st.one_of(
            st.floats(), NOT_A_FLOAT, good.map(lambda v: [v]),
            good.map(lambda v: np.array([v]))))
    return values


def _finite_or_value_error(call, results):
    """call() with warnings as errors, but for a negative linewidth and a
    clipped decay tail; its result is appended to results, and a
    ValueError ends it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", g.NegativeLinewidthWarning)
        warnings.filterwarnings("ignore", "t_max = .* below 10 lifetimes")
        try:
            results.append(call())
        except ValueError:
            pass


def _assert_float_fields(record):
    """Every float field of a config record is a finite Python float."""
    for name, value in vars(record).items():
        if type(record).__dataclass_fields__[name].type == "float":
            assert type(value) is float and math.isfinite(value), (name, value)


GRID = dict(start=(-200.0, 0.0), stop=(1.0, 200.0), step=(0.5, 50.0))
SERIES = dict(temperature=(0.0, 30.0), dwell=(1e-3, 1.0), peak_rate=(0.0, 1e5),
              background_rate=(0.0, 1e3), center0=(-100.0, 100.0),
              diffusion_sigma=(0.0, 10.0), jump_prob=(0.0, 1.0),
              jump_sigma=(0.0, 50.0), ionization_coeff=(0.0, 1e-3),
              repump_rate=(0.0, 1e-3))
TRPL = dict(lifetime=(0.1, 20.0), bin_width=(0.01, 2.0), t_max=(1.0, 100.0))
BACKGROUND = dict(a_fast=(0.01, 10.0), tau_fast=(0.01, 2.0))
HBT = dict(rate=(1e3, 1e5), lifetime=(0.1, 20.0), purity_rho=(0.0, 1.0),
           duration=(1e-3, 1e-2), bin_width=(0.1, 10.0), tau_max=(1.0, 100.0))
SMALL_GRID = dict(start=-10.0, stop=10.0, step=1.0)


class TestFuzzSimulate:
    """The simulate records and entry points, called as a library: each
    call returns a finite result or raises ValueError. Each test asserts
    that a fair share of its draws reached a result."""

    def test_frequency_grid(self):
        grids = []

        @given(fields=float_fields(GRID))
        @example(fields=dict(SMALL_GRID, start=np.array([-10.0])))
        @settings(max_examples=200, deadline=None)
        def check(fields):
            _finite_or_value_error(lambda: g.FrequencyGrid(**fields), grids)

        check()
        assert len(grids) > 50
        for grid in grids:
            _assert_float_fields(grid)
            centers = grid.centers()
            assert centers.ndim == 1 and np.isfinite(centers).all()

    def test_scan_series(self):
        runs = []

        @given(fields=float_fields(SERIES), grid=float_fields(GRID),
               n_scans=st.integers(1, 3),
               repump=st.sampled_from(["none", "between_scans", "resonant"]),
               noiseless=st.booleans())
        @example(fields=dict(temperature=np.array([6.2])), grid=SMALL_GRID,
                 n_scans=1, repump="none", noiseless=False)
        @example(fields=dict(center0=np.array([1.0, 2.0])), grid=SMALL_GRID,
                 n_scans=2, repump="none", noiseless=True)
        @settings(max_examples=200, deadline=None)
        def check(fields, grid, n_scans, repump, noiseless):
            def series():
                cfg = g.ScanSeriesConfig(**{
                    "temperature": 6.2, "dwell": 0.1, "peak_rate": 1e3,
                    "background_rate": 10.0, **fields},
                    emitter=PBV, grid=g.FrequencyGrid(**grid), n_scans=n_scans,
                    repump=repump, noiseless=noiseless, seed=3)
                return cfg, *g.simulate_scan_series(cfg)

            _finite_or_value_error(series, runs)

        check()
        assert len(runs) > 50
        for cfg, spectra, events in runs:
            _assert_float_fields(cfg)
            assert len(spectra) == cfg.n_scans
            for spectrum in spectra:
                assert np.isfinite(spectrum.counts).all()
                for key in ("temperature_k", "center_mhz"):
                    value = spectrum.meta[key]
                    assert type(value) is float and math.isfinite(value), (key, value)
            assert all(math.isfinite(ev.time_s) and math.isfinite(ev.center_mhz)
                       for ev in events)

    def test_trpl(self):
        traces = []

        @given(args=float_fields(TRPL), background=st.one_of(
                   st.none(), float_fields(BACKGROUND)),
               counts_total=st.integers(0, 1000))
        @example(args=dict(lifetime=np.array([4.4]), bin_width=0.5, t_max=50.0),
                 background=None, counts_total=10)
        @example(args=dict(lifetime=4.4, bin_width=0.5, t_max=50.0),
                 background=dict(a_fast=np.array([6.0]), tau_fast=0.5),
                 counts_total=10)
        @settings(max_examples=200, deadline=None)
        def check(args, background, counts_total):
            def trace():
                bg = None if background is None else g.TrplBackground(**background)
                return bg, counts_total, g.simulate_trpl(
                    counts_total=counts_total, background=bg, seed=4, **args)

            _finite_or_value_error(trace, traces)

        check()
        assert len(traces) > 50
        for bg, counts_total, trace in traces:
            if bg is not None:
                _assert_float_fields(bg)
            assert np.isfinite(trace.bin_centers).all()
            assert trace.counts.sum() <= counts_total
            assert type(trace.meta["bin_width_ns"]) is float

    def test_hbt(self):
        # the same stream cap, at 1000 photons: a fuzzed rate * duration
        # may ask for 6e7, and a fuzzed tau_max may pair every photon
        histograms = []

        @given(args=float_fields(HBT))
        @example(args=dict(rate=np.array([1e4]), lifetime=4.4, purity_rho=0.5,
                           duration=0.01, bin_width=1.0, tau_max=20.0))
        @example(args=dict(rate=1e4, lifetime=4.4, purity_rho=0.5, duration=0.01,
                           bin_width=np.array(1.0), tau_max=[20.0]))
        @settings(max_examples=200, deadline=None)
        def check(args):
            _finite_or_value_error(
                lambda: g.simulate_hbt(**args, seed=5), histograms)

        with mock.patch.object(g.simulate, "_MAX_STREAM_PHOTONS", 1000):
            check()
        assert len(histograms) > 50
        for hist in histograms:
            assert np.isfinite(hist.g2).all() and np.isfinite(hist.tau_bins).all()
            assert (hist.coincidence_counts >= 0).all()
            assert type(hist.normalization) is float
