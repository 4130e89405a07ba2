"""Fit models, optimizer behavior, and recovery against generating oracles.

``lm_reference`` is the earlier damping loop of ``fitting._lm_fit``, which
took the derivatives, and with them the curvature term, anew on every
attempt: ``_lm_fit`` takes them once per accepted point and must give the
same report, byte for byte, on every exit. Both end on the first solved
step that the step test calls small, before the guard and the cost test,
without taking it.
``lorentzian_model_reference`` and ``lorentzian_jacobian_reference`` are the
earlier Lorentzian functions, on numpy scalars, ``lorentzian_jacobian_separate``
and ``lorentzian_curvature_separate`` the earlier separate passes for J and
S, and ``halfmax_width_reference`` the earlier loop of the start width: the
faster ones must give the same bits, and ``fitting._solve`` the bits of
``np.linalg.solve``, or NaN where ``np.linalg.solve`` raises ``LinAlgError``.
``halfmax_width_numpy`` is the earlier numpy form of the start width, and
``math.isfinite(_cholesky(m).sum())`` the earlier test of J^T J - S.
"""

import functools
import json
import math
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import g4vlines as g
from g4vlines import dataio, fitting
from g4vlines.fitting import (
    LAMBDA0, MAX_ITERATIONS, REL_STEP_TOL, _lm_fit,
    exp_jacobian, exp_model, lorentzian_derivatives, lorentzian_model,
)

PBV = g.REGISTRY.get("PbV")
SNV = g.REGISTRY.get("SnV")


def lm_reference(model, derivatives, x, y, sigma, p0, *, guard=None,
                 max_iter=MAX_ITERATIONS, accepted=None, newton=None):
    """The earlier _lm_fit, with the derivatives taken anew on every
    attempt; appends each accepted point to ``accepted``, and for each
    attempt with a curvature whether it stepped on J^T J - S to ``newton``."""
    p = np.array(p0, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)

    def residual(params):
        return (y - model(x, params)) * w

    r = residual(p)
    cost = float(r @ r)
    lam = LAMBDA0
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        jac, curvature = derivatives(x, p, r * w)
        jr = -jac * w[:, None]     # d residual / d p
        grad = jr.T @ r
        hess = jr.T @ jr
        damp = np.diag(hess).copy()
        damp[damp <= 0] = 1.0
        base = hess
        if curvature is not None:
            candidate = hess - curvature
            try:
                if np.isfinite(np.linalg.cholesky(candidate)).all():
                    base = candidate
            except np.linalg.LinAlgError:
                pass
            if newton is not None:
                newton.append(base is candidate)
        try:
            step = np.linalg.solve(base + lam * np.diag(damp), -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        if np.max(np.abs(step) / (np.abs(p) + 1e-300)) < REL_STEP_TOL:
            converged = True
            break
        trial = p + step
        if guard is not None and not guard(trial):
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        r_trial = residual(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial <= cost:
            p, r, cost = trial, r_trial, cost_trial
            if accepted is not None:
                accepted.append(p)
            lam = max(lam / 10.0, 1e-14)
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    jr = -derivatives(x, p, r * w)[0] * w[:, None]
    with np.errstate(**fitting._EDGE):  # a failed Cholesky test is NaN
        cov = fitting._gn_covariance(jr)
    return fitting._LMResult(params=p, cov=cov, n_iterations=n_iter,
                             converged=converged, cost=cost)


def lorentzian_model_reference(x, p):
    c, w, a, b = p
    h2 = (w / 2.0) ** 2
    return b + a * h2 / ((x - c) ** 2 + h2)


def lorentzian_jacobian_reference(x, p):
    c, w, a, b = p
    h = w / 2.0
    d = x - c
    denom = d * d + h * h
    out = np.empty((x.size, 4))
    out[:, 0] = 2.0 * a * h * h * d / denom ** 2
    out[:, 1] = a * h * d * d / denom ** 2
    out[:, 2] = h * h / denom
    out[:, 3] = 1.0
    return out


def lorentzian_jacobian_separate(x, p):
    c, w, a, b = np.asarray(p, dtype=float).tolist()
    h = w / 2.0
    d = x - c
    denom = d * d
    denom += h * h
    denom2 = denom * denom
    out = np.empty((x.size, 4))
    col = out[:, 0]
    np.multiply(d, 2.0 * a * h * h, out=col)
    col /= denom2
    col = out[:, 1]
    np.multiply(d, a * h, out=col)
    col *= d
    col /= denom2
    np.divide(h * h, denom, out=out[:, 2])
    out[:, 3] = 1.0
    return out


def lorentzian_curvature_separate(x, p, rw):
    c, w, a, b = np.asarray(p, dtype=float).tolist()
    h = w / 2.0
    hh = h * h
    d = x - c
    denom = d * d
    denom += hh
    terms = np.empty((5, x.size))  # rw d^k / D^3, a power of d at a time
    np.divide(rw, denom, out=terms[0])
    terms[0] /= denom
    terms[0] /= denom
    for k in range(1, 5):
        np.multiply(terms[k - 1], d, out=terms[k])
    m0, m1, m2, m3, m4 = np.add.reduce(terms, axis=1).tolist()
    s_cc = 2.0 * a * hh * (3.0 * m2 - hh * m0)
    s_cw = 2.0 * a * h * (m3 - hh * m1)
    s_ww = 0.5 * a * (m4 - 3.0 * hh * m2)
    s_ca = 2.0 * hh * (m3 + hh * m1)
    s_wa = h * (m4 + hh * m2)
    return np.array([[s_cc, s_cw, s_ca, 0.0], [s_cw, s_ww, s_wa, 0.0],
                     [s_ca, s_wa, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


def lorentzian_jacobian(x, p):
    """J of ``fitting.lorentzian_derivatives``."""
    return lorentzian_derivatives(x, p, np.zeros(x.size))[0]


def lorentzian_gauss_newton(x, p, rw):
    """``fitting.lorentzian_derivatives`` without its curvature term."""
    return lorentzian_derivatives(x, p, rw)[0], None


def halfmax_width_reference(x, y, i_peak, level):
    left = right = None
    for i in range(i_peak, 0, -1):
        if y[i - 1] < level <= y[i]:
            frac = (level - y[i - 1]) / (y[i] - y[i - 1])
            left = x[i - 1] + frac * (x[i] - x[i - 1])
            break
    for i in range(i_peak, x.size - 1):
        if y[i + 1] < level <= y[i]:
            frac = (y[i] - level) / (y[i] - y[i + 1])
            right = x[i] + frac * (x[i + 1] - x[i])
            break
    if left is None or right is None or right <= left:
        return (x[-1] - x[0]) / 4.0
    return right - left


def halfmax_width_numpy(x, y, i_peak, level):
    left = right = None
    hits = np.flatnonzero((y[:i_peak] < level) & (level <= y[1:i_peak + 1]))
    if hits.size:
        i = int(hits[-1]) + 1
        frac = (level - y[i - 1]) / (y[i] - y[i - 1])
        left = x[i - 1] + frac * (x[i] - x[i - 1])
    hits = np.flatnonzero((y[i_peak + 1:] < level) & (level <= y[i_peak:-1]))
    if hits.size:
        i = i_peak + int(hits[0])
        frac = (y[i] - level) / (y[i] - y[i + 1])
        right = x[i] + frac * (x[i + 1] - x[i])
    if left is None or right is None or right <= left:
        return (x[-1] - x[0]) / 4.0
    return right - left


def gn_covariance_reference(jac):
    """The earlier _gn_covariance, through np.linalg."""
    hess = jac.T @ jac
    try:
        np.linalg.cholesky(hess)
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    return cov if np.all(np.diag(cov) > 0) else None


def _nan_solve(a, b):
    """``fitting._solve`` of a singular system."""
    return np.full_like(b, np.nan)


def _same_bits(a, b):
    """Equal shapes and bytes; any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _noiseless_spectrum(center=0.0, fwhm=38.8, amp=1000.0, offset=10.0,
                        span=200.0, n=201):
    x = np.linspace(-span, span, n)
    return g.Spectrum(x, g.lorentzian(x, center, fwhm, amp, offset))


def _fd_jacobian(model, x, p, rel_step=1e-6):
    p = np.asarray(p, dtype=float)
    out = np.empty((x.size, p.size))
    for j in range(p.size):
        h = rel_step * max(abs(p[j]), 1e-8)
        hi, lo = p.copy(), p.copy()
        hi[j] += h
        lo[j] -= h
        out[:, j] = (model(x, hi) - model(x, lo)) / (2.0 * h)
    return out


class TestLorentzianFit:
    def test_noiseless_recovery(self):
        report = g.fit_lorentzian(_noiseless_spectrum())
        assert report.converged
        assert report.params["center"] == pytest.approx(0.0, abs=1e-6)
        for key, true in (("fwhm", 38.8), ("amplitude", 1000.0), ("offset", 10.0)):
            assert report.params[key] == pytest.approx(true, rel=1e-6)
        assert report.std_errors is not None
        assert report.reduced_chi2 < 1e-12

    def test_translation_invariance(self):
        base = g.fit_lorentzian(_noiseless_spectrum(center=3.0))
        shifted_spec = _noiseless_spectrum(center=3.0)
        shifted = g.fit_lorentzian(
            g.Spectrum(shifted_spec.detunings + 1000.0, shifted_spec.counts))
        assert shifted.params["center"] - base.params["center"] == \
            pytest.approx(1000.0, abs=1e-6)
        for key in ("fwhm", "amplitude", "offset"):
            assert shifted.params[key] == pytest.approx(base.params[key], rel=1e-9)

    def test_count_scaling_invariance(self):
        spec = _noiseless_spectrum()
        base = g.fit_lorentzian(spec)
        c = 3.5
        scaled = g.fit_lorentzian(g.Spectrum(spec.detunings, spec.counts * c))
        for key in ("center", "fwhm"):
            assert scaled.params[key] == pytest.approx(base.params[key], abs=1e-9)
        assert scaled.params["amplitude"] == pytest.approx(
            c * base.params["amplitude"], rel=1e-9)
        assert scaled.params["offset"] == pytest.approx(
            c * base.params["offset"], rel=1e-9)

    def test_poisson_noise_recovery(self):
        cfg = g.ScanSeriesConfig(
            emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-150, 150, 3),
            dwell=0.1, peak_rate=5000.0, background_rate=100.0, seed=99)
        report = g.fit_lorentzian(g.simulate_ple_scan(cfg))
        assert report.converged
        assert report.params["fwhm"] == pytest.approx(38.9, rel=0.05)
        assert 0.1 < report.std_errors["fwhm"] < 3.0

    def test_rejects_short_and_flat_data(self):
        with pytest.raises(ValueError, match="at least 8"):
            g.fit_lorentzian(g.Spectrum(np.arange(5.0), np.ones(5)))
        with pytest.raises(ValueError, match="no peak"):
            g.fit_lorentzian(g.Spectrum(np.arange(20.0), np.full(20, 7.0)))

    def test_sequence_of_spectra(self):
        # one series_fit op's scans: a list of the per-scan reports; a
        # single-element list used to end in "need at least 8 points"
        spectra = _series(1)
        reports = [g.fit_lorentzian(spectrum) for spectrum in spectra]
        assert all(isinstance(report, g.FitReport) for report in reports)
        assert g.fit_lorentzian(spectra) == reports
        assert g.fit_lorentzian(tuple(spectra)) == reports
        assert g.fit_lorentzian(spectra[:1]) == reports[:1]
        assert g.fit_lorentzian([]) == []
        assert g.fit_lorentzian(spectra[:3], max_iter=2) == [
            g.fit_lorentzian(spectrum, max_iter=2) for spectrum in spectra[:3]]

    def test_sequence_element_named(self, monkeypatch):
        # each check runs before any scan is fitted
        monkeypatch.setattr(fitting, "_solve", _no_iteration)
        s0, s1 = _series(1, n_scans=2)
        shifted = g.Spectrum(s1.detunings + 1.0, s1.counts)
        shorter = g.Spectrum(s1.detunings[:-1], s1.counts[:-1])
        for spectra, message in [
                ([s0, s1, shifted], "spectrum 2 is not on the grid of spectrum 0"),
                ((s0, shorter), "spectrum 1 is not on the grid of spectrum 0"),
                ([s0, "scan"], "spectrum 1 is not a Spectrum: str"),
                ([s0, [s1]], "spectrum 1 is not a Spectrum: list"),
                ([None, s0], "spectrum 0 is not a Spectrum: NoneType")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                g.fit_lorentzian(spectra)

    def test_sequence_scan_error_named(self):
        # a scan's own error did not name its index; an error of max_iter
        # is not one of scan 0
        s0, s1 = _series(1, n_scans=2)
        flat = g.Spectrum(s0.detunings, np.full(len(s0), 7.0))
        with pytest.raises(ValueError,
                           match="^spectrum 2: no peak: all counts are equal$"):
            g.fit_lorentzian([s0, s1, flat])
        with pytest.raises(ValueError, match="^max_iter must be >= 1, got 0$"):
            g.fit_lorentzian([s0, s1], max_iter=0)

    @pytest.mark.parametrize("spectrum", [None, np.ones(20), "scan", {}],
                             ids=["None", "ndarray", "str", "dict"])
    def test_not_a_spectrum_named(self, spectrum):
        name = type(spectrum).__name__
        with pytest.raises(ValueError, match=(
                "^spectrum must be a Spectrum or a list or tuple of them, "
                f"got {name}$")):
            g.fit_lorentzian(spectrum)

    def test_weak_peak_warns_in_report(self):
        x = np.linspace(-100, 100, 51)
        y = g.lorentzian(x, 0.0, 30.0, 10.0, 100.0)  # peak 10% above offset
        report = g.fit_lorentzian(g.Spectrum(x, y))
        assert any("peak" in w for w in report.warnings)

    def test_non_convergence_is_reported_not_raised(self):
        cfg = g.ScanSeriesConfig(
            emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-150, 150, 3),
            dwell=0.1, peak_rate=5000.0, background_rate=100.0, seed=5)
        report = g.fit_lorentzian(g.simulate_ple_scan(cfg), max_iter=1)
        assert report.converged is False

    def test_singular_steps_bail_out(self, monkeypatch):
        # every damped system is singular and solves to NaN: the damping
        # passes 1e12 after 16 tries and the fit stops there instead of at
        # max_iter
        monkeypatch.setattr(fitting, "_solve", _nan_solve)
        report = g.fit_lorentzian(_noiseless_spectrum())
        assert report.converged is False
        assert report.n_iterations < 20

    def test_gradient_zero_and_objective_rises_at_5_sigma(self):
        cfg = g.ScanSeriesConfig(
            emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-150, 150, 3),
            dwell=0.1, peak_rate=5000.0, background_rate=100.0, seed=17)
        spec = g.simulate_ple_scan(cfg)
        report = g.fit_lorentzian(spec)
        assert report.converged
        names = ("center", "fwhm", "amplitude", "offset")
        p_opt = np.array([report.params[k] for k in names])
        sigma = np.sqrt(np.maximum(spec.counts, 1.0))

        def objective(p):
            r = (spec.counts - lorentzian_model(spec.detunings, p)) / sigma
            return float(r @ r)

        # weighted gradient ~ 0 at the optimum
        jac = lorentzian_jacobian(spec.detunings, p_opt) / sigma[:, None]
        resid = (spec.counts - lorentzian_model(spec.detunings, p_opt)) / sigma
        grad = jac.T @ resid
        scale = np.sqrt(np.sum(jac ** 2, axis=0)) * np.sqrt(objective(p_opt))
        assert np.all(np.abs(grad) < 1e-6 * scale)

        s_opt = objective(p_opt)
        for i, name in enumerate(names):
            for sign in (-1.0, 1.0):
                p = p_opt.copy()
                p[i] += sign * 5.0 * report.std_errors[name]
                assert objective(p) > s_opt


class TestDecayFit:
    def test_noiseless_exp1_recovery(self):
        t = np.arange(0.1, 50.0, 0.2)
        trace = g.DecayTrace(t, 5000.0 * np.exp(-t / 4.4) + 40.0)
        report = g.fit_decay(trace, "exp1")
        assert report.converged
        assert report.params["tau"] == pytest.approx(4.4, rel=1e-6)
        assert report.params["amplitude"] == pytest.approx(5000.0, rel=1e-6)
        assert report.params["offset"] == pytest.approx(40.0, rel=1e-6)
        assert report.derived["transform_limit_mhz"] == pytest.approx(
            36.1715779754, rel=1e-6)

    def test_noiseless_exp2_recovery(self):
        t = np.arange(0.05, 60.0, 0.1)
        y = 500.0 * np.exp(-t / 0.5) + 2000.0 * np.exp(-t / 5.5) + 25.0
        report = g.fit_decay(g.DecayTrace(t, y), "exp2")
        assert report.converged
        assert report.params["tau_fast"] == pytest.approx(0.5, rel=1e-6)
        assert report.params["tau_slow"] == pytest.approx(5.5, rel=1e-6)
        assert report.params["amp_fast"] == pytest.approx(500.0, rel=1e-6)
        assert report.params["amp_slow"] == pytest.approx(2000.0, rel=1e-6)
        assert report.derived["transform_limit_mhz"] == pytest.approx(
            28.9372623803, rel=1e-6)

    def test_components_sorted_fast_first(self):
        t = np.arange(0.05, 60.0, 0.1)
        y = 2000.0 * np.exp(-t / 5.5) + 500.0 * np.exp(-t / 0.5) + 25.0
        report = g.fit_decay(g.DecayTrace(t, y), "exp2")
        assert report.params["tau_fast"] < report.params["tau_slow"]

    def test_degeneracy_warning(self):
        t = np.arange(0.05, 30.0, 0.1)
        y = 800.0 * np.exp(-t / 2.0) + 800.0 * np.exp(-t / 2.6) + 20.0
        report = g.fit_decay(g.DecayTrace(t, y), "exp2")
        assert report.params["tau_slow"] / report.params["tau_fast"] < 1.5
        assert any("degenerate" in w for w in report.warnings)

    def test_constant_trace_refused(self):
        with pytest.raises(ValueError, match="no decay"):
            g.fit_decay(g.DecayTrace(np.arange(20.0), np.full(20, 9.0)))

    def test_empty_histogram_refused(self):
        trace = g.simulate_trpl(4.4, 0, bin_width=0.5, t_max=50.0, seed=1)
        with pytest.raises(ValueError, match="no decay"):
            g.fit_decay(trace)

    def test_window_starts_at_maximum(self):
        # fast rise before the peak must not bias the tail fit
        t = np.arange(0.1, 50.0, 0.2)
        y = 5000.0 * np.exp(-t / 4.4) + 40.0
        y[:10] = 100.0  # pre-trigger junk below the peak
        report = g.fit_decay(g.DecayTrace(t, y), "exp1")
        assert report.params["tau"] == pytest.approx(4.4, rel=1e-6)

    def test_explicit_start_index(self):
        t = np.arange(0.1, 50.0, 0.2)
        y = 5000.0 * np.exp(-t / 4.4) + 40.0
        report = g.fit_decay(g.DecayTrace(t, y), "exp1", start_index=30)
        assert report.params["tau"] == pytest.approx(4.4, rel=1e-6)

    def test_start_index_leaving_too_few_bins(self):
        t = np.arange(0.1, 50.0, 0.2)
        trace = g.DecayTrace(t, 5000.0 * np.exp(-t / 4.4) + 40.0)
        with pytest.raises(ValueError, match=f"^fit window start {t.size - 4} "
                                             "leaves too few bins$"):
            g.fit_decay(trace, "exp1", start_index=t.size - 4)

    def test_exp2_components_reordered_with_covariance(self, monkeypatch):
        # a fit that ends with tau_fast > tau_slow is reported with the
        # components swapped, and its covariance permuted the same way
        params = np.array([100.0, 6.0, 300.0, 0.5, 2.0])
        cov = np.arange(1.0, 26.0).reshape(5, 5)
        res = fitting._LMResult(params=params.copy(), cov=cov.copy(),
                                n_iterations=3, converged=True, cost=1.0)
        monkeypatch.setattr(fitting, "_lm_fit", lambda *args, **kwargs: res)
        report = g.fit_decay(_trace(2000, seed=4), "exp2")
        order = [2, 3, 0, 1, 4]
        assert list(report.params.values()) == params[order].tolist()
        assert np.array_equal(res.cov, cov[np.ix_(order, order)])
        assert list(report.std_errors.values()) \
            == np.sqrt(cov.diagonal()[order]).tolist()
        assert report.derived["transform_limit_mhz"] == g.transform_limit(6.0)

    @pytest.mark.parametrize("start_index", [2.7, np.inf, np.nan, []])
    def test_start_index_not_integral(self, start_index):
        # 2.7 used to fit from bin 2, inf to raise OverflowError, [] int()'s
        # TypeError
        t = np.arange(0.1, 50.0, 0.2)
        trace = g.DecayTrace(t, 5000.0 * np.exp(-t / 4.4) + 40.0)
        with pytest.raises(ValueError,
                           match=f"^start_index must be an integer, got "
                                 f"{re.escape(str(start_index))}$"):
            g.fit_decay(trace, "exp1", start_index=start_index)

    @pytest.mark.parametrize("trace", [None, "x", np.ones(20), {}],
                             ids=["None", "str", "ndarray", "dict"])
    def test_not_a_trace_named(self, trace):
        # "x" ended in "need at least 8 bins to fit, got 1", the rest in a
        # TypeError or an AttributeError
        with pytest.raises(ValueError, match="^trace must be of type DecayTrace, got "):
            g.fit_decay(trace)

    def test_bad_model_name(self):
        t = np.arange(0.1, 50.0, 0.2)
        with pytest.raises(ValueError, match="model"):
            g.fit_decay(g.DecayTrace(t, np.exp(-t)), "exp3")


class TestCubicAlpha:
    def test_single_point(self):
        report = g.fit_cubic_alpha([(200.0, 44.7)])
        assert report.params["alpha"] == pytest.approx(5.5875e-9, rel=1e-12)

    def test_two_exact_points(self):
        alpha = 7.51e-9
        pts = [(f, alpha * f ** 3 * 1e3) for f in (200.0, 3870.0)]
        report = g.fit_cubic_alpha(pts)
        assert report.params["alpha"] == pytest.approx(alpha, rel=1e-12)
        assert report.reduced_chi2 < 1e-15

    def test_snv_prediction_range(self):
        alpha = 7.51e-9
        pts = [(f, alpha * f ** 3 * 1e3) for f in (200.0, 3870.0)]
        report = g.fit_cubic_alpha(pts)
        assert 3500.0 <= report.derived["pred_delta_gamma_snv_mhz"] <= 4500.0
        assert report.derived["pred_delta_gamma_siv_mhz"] < 1.0

    def test_weight_modes_frozen_values(self):
        # oracle: through-origin weighted LS on the two measured points
        pts = [(200.0, 44.7), (3870.0, 435300.0)]
        assert g.fit_cubic_alpha(pts, weights="delta").params["alpha"] == \
            pytest.approx(6.2725754e-9, rel=1e-7)
        assert g.fit_cubic_alpha(pts, weights="equal").params["alpha"] == \
            pytest.approx(7.5102738e-9, rel=1e-7)

    def test_explicit_weights(self):
        pts = [(200.0, 44.7), (3870.0, 435300.0)]
        by_mode = g.fit_cubic_alpha(pts, weights="delta").params["alpha"]
        explicit = g.fit_cubic_alpha(
            pts, weights=np.array([1 / 44.7 ** 2, 1 / 435300.0 ** 2]))
        assert explicit.params["alpha"] == pytest.approx(by_mode, rel=1e-14)

    def test_errors(self):
        with pytest.raises(ValueError):
            g.fit_cubic_alpha([])
        with pytest.raises(ValueError):
            g.fit_cubic_alpha([(-1.0, 5.0)])
        with pytest.raises(ValueError):
            g.fit_cubic_alpha([(200.0, 0.0)])
        with pytest.raises(ValueError):
            g.fit_cubic_alpha([(200.0, 44.7)], weights="bogus")
        # inputs at the edge of the float range: f^3 overflows, the sum of
        # weight * f^6 underflows to 0, 1/delta^2 overflows
        with pytest.raises(ValueError, match="^delta_mhz per unit alpha must be finite"):
            g.fit_cubic_alpha([(1e200, 5.0)])
        for pts in ([(1e-120, 5.0)], [(1e-200, 5.0)], [(200.0, 1e300)]):
            with pytest.raises(ValueError, match="^sum of weight"):
                g.fit_cubic_alpha(pts)
        for delta in (1e-200, 1e-170):
            with pytest.raises(ValueError, match=r"^weights 1/delta_mhz\^2 must be finite"):
                g.fit_cubic_alpha([(200.0, delta), (3870.0, 435300.0)])
        for w in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                g.fit_cubic_alpha([(200.0, 44.7), (3870.0, 435300.0)],
                                  weights=np.array([w, 1.0]))

    @pytest.mark.parametrize("points", [
        [{}], object(), [(200.0, 44.7), (3870.0,)], [(200.0, "x")], [],
        np.empty((0, 2))], ids=["dict", "object", "ragged", "text", "empty",
                                "no-rows"])
    def test_not_a_point_table_named(self, points):
        # the first four ended in a TypeError or numpy's ValueError, and an
        # empty table in "no data points given"
        with pytest.raises(ValueError,
                           match=r"^points must be \(f_gs_ghz, delta_mhz\) pairs$"):
            g.fit_cubic_alpha(points)

    @pytest.mark.parametrize("weights", [
        {"a": 1}, [object(), 1.0], [[1.0], [2.0, 3.0]]],
        ids=["dict", "object", "ragged"])
    def test_explicit_weights_not_numbers_named(self, weights):
        # np.asarray raised a TypeError or its own ValueError
        with pytest.raises(ValueError, match="^explicit weights must be finite "
                                             "and positive, one per point$"):
            g.fit_cubic_alpha([(200.0, 44.7), (3870.0, 435300.0)], weights=weights)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 2, 2)])
    def test_three_dimensional_points_rejected(self, shape):
        # these passed the pair check and ended in a TypeError or a matmul
        # ValueError
        pts = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        with pytest.raises(ValueError,
                           match=r"^points must be \(f_gs_ghz, delta_mhz\) pairs$"):
            g.fit_cubic_alpha(pts)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("column", ["f_gs_ghz", "delta_mhz"])
    @pytest.mark.parametrize("weights", ["delta", "equal"])
    def test_non_finite_column_named(self, bad, column, weights):
        # an inf delta_mhz used to end in "alpha must be finite"
        pts = np.array([(200.0, 44.7), (3870.0, 435300.0)])
        pts[1, ["f_gs_ghz", "delta_mhz"].index(column)] = bad
        with pytest.raises(ValueError, match=f"^{column} must be finite"):
            g.fit_cubic_alpha(pts, weights=weights)


class TestTemperatureSeries:
    def _series(self, emitter, temps):
        return np.column_stack([temps, g.linewidth_c(emitter, np.asarray(temps))])

    def test_pbv_recovery(self):
        pts = self._series(PBV, [6.0, 10.0, 14.0, 18.0])
        report = g.fit_temperature_series(pts, PBV)
        assert report.converged
        assert report.params["gamma_others"] == pytest.approx(2.7, abs=1e-8)

    def test_snv_negative_with_warning(self):
        pts = self._series(SNV, [4.0, 6.0, 8.0, 10.0, 12.0])
        report = g.fit_temperature_series(pts, SNV)
        assert report.params["gamma_others"] == pytest.approx(-1.8, abs=1e-8)
        assert any("negative residual broadening" in w for w in report.warnings)

    def test_flat_series_gives_zero(self):
        temps = np.array([0.001, 0.002, 0.003, 0.004])
        pts = np.column_stack([temps, np.full(4, PBV.gamma0)])
        p_clean = g.EmitterParams("clean", f_gs=PBV.f_gs, f_es=PBV.f_es,
                                  gamma0=PBV.gamma0, alpha_gs=PBV.alpha_gs,
                                  alpha_es=PBV.alpha_es)
        report = g.fit_temperature_series(pts, p_clean)
        assert report.params["gamma_others"] == pytest.approx(0.0, abs=1e-9)

    def test_two_free_parameters(self):
        truth = g.EmitterParams("t", f_gs=821.0, f_es=3000.0, gamma0=30.6,
                                alpha_gs=9.0e-9, alpha_es=7.51e-9,
                                gamma_others=1.1)
        pts = self._series(truth, [4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
        start = g.EmitterParams("s", f_gs=821.0, f_es=3000.0, gamma0=30.6,
                                alpha_gs=7.51e-9, alpha_es=7.51e-9)
        report = g.fit_temperature_series(pts, start,
                                          free=("gamma_others", "alpha_gs"))
        assert report.params["gamma_others"] == pytest.approx(1.1, abs=1e-6)
        assert report.params["alpha_gs"] == pytest.approx(9.0e-9, rel=1e-6)

    def test_max_temp_excludes_points(self):
        pts = self._series(PBV, [6.0, 10.0, 14.0, 18.0])
        bad = np.vstack([pts, [30.0, 500.0]])  # way off the model above 20 K
        report = g.fit_temperature_series(bad, PBV, max_temp=20.0)
        assert report.params["gamma_others"] == pytest.approx(2.7, abs=1e-8)

    def test_errors(self):
        with pytest.raises(ValueError, match="points"):
            g.fit_temperature_series([(6.0, 38.9)], PBV)
        with pytest.raises(ValueError, match="distinct"):
            g.fit_temperature_series([(6.0, 38.9), (6.0, 38.9)], PBV)
        with pytest.raises(ValueError, match="free"):
            g.fit_temperature_series([(6.0, 38.9), (8.0, 38.9)], PBV,
                                     free=("alpha_gs",))
        # free=5 ended in a TypeError, emitter None in an AttributeError
        with pytest.raises(ValueError, match=r"^free must be \('gamma_others',\)"):
            g.fit_temperature_series([(6.0, 38.9), (8.0, 38.9)], PBV, free=5)
        with pytest.raises(ValueError,
                           match="^emitter must be of type EmitterParams, got None$"):
            g.fit_temperature_series([(6.0, 38.9), (8.0, 38.9)], None)

    @pytest.mark.parametrize("points", [
        object(), [{}], [(6.0, 38.9), (8.0,)], [(6.0, 38.9), ("x", 39.0)]],
        ids=["object", "dict", "ragged", "text"])
    def test_not_a_point_table_named(self, points):
        # each ended in a TypeError or numpy's ValueError
        with pytest.raises(
                ValueError,
                match=r"^points must be \(temperature_k, linewidth_mhz\) pairs$"):
            g.fit_temperature_series(points, PBV)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 2, 2)])
    def test_three_dimensional_points_rejected(self, shape):
        # these passed the pair check and ended in an IndexError or in
        # numpy's "truth value ... is ambiguous"
        pts = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        with pytest.raises(
                ValueError,
                match=r"^points must be \(temperature_k, linewidth_mhz\) pairs$"):
            g.fit_temperature_series(pts, PBV)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("column", ["temp_k", "linewidth_mhz"])
    def test_non_finite_column_named(self, bad, column):
        # a NaN linewidth used to end in "reduced_chi2 must be finite"
        pts = self._series(PBV, [6.0, 10.0, 14.0, 18.0])
        pts[2, ["temp_k", "linewidth_mhz"].index(column)] = bad
        with pytest.raises(ValueError, match=f"^{column} must be finite"):
            g.fit_temperature_series(pts, PBV)

    def test_nan_temperature_named_with_max_temp(self):
        # a NaN temperature is not above max_temp: it is named, not dropped
        pts = self._series(PBV, [6.0, 10.0, 14.0, 18.0])
        pts[2, 0] = np.nan
        with pytest.raises(ValueError, match="^temp_k must be finite"):
            g.fit_temperature_series(pts, PBV, max_temp=20.0)

    @pytest.mark.parametrize("max_temp", [np.nan, float("nan"), np.float64("nan")])
    def test_nan_max_temp_rejected(self, max_temp):
        # NaN compares false, so every point was kept and fitted
        pts = self._series(PBV, [6.0, 10.0, 14.0, 18.0])
        with pytest.raises(ValueError, match="^max_temp must be a temperature "
                                             "or None, got nan$"):
            g.fit_temperature_series(pts, PBV, max_temp=max_temp)

    @pytest.mark.parametrize("max_temp, message", [
        (np.array([5.0, 6.0]), r"max_temp must be a scalar, got shape \(2,\)"),
        ([5.0], r"max_temp must be a scalar, got shape \(1,\)"),
        ("x", "max_temp must be a number, got 'x'"),
        (object, "max_temp must be a number, got <class 'object'>")])
    def test_max_temp_not_a_real_scalar_named(self, max_temp, message):
        # each ended in a TypeError from math.isnan
        pts = self._series(PBV, [6.0, 10.0, 14.0, 18.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            g.fit_temperature_series(pts, PBV, max_temp=max_temp)

    @pytest.mark.parametrize("max_temp, same_as", [
        ("20", 20.0), (np.float64(20.0), 20.0), (np.array(20.0), 20.0),
        (math.inf, None)])
    def test_max_temp_as_float(self, max_temp, same_as):
        # float(max_temp) is the cut; inf keeps every point
        pts = np.vstack([self._series(PBV, [6.0, 10.0, 14.0, 18.0]),
                         [30.0, 500.0]])
        report = g.fit_temperature_series(pts, PBV, max_temp=max_temp)
        assert report.to_dict() == \
            g.fit_temperature_series(pts, PBV, max_temp=same_as).to_dict()

    def test_duplicate_check_matches_np_unique(self):
        # np.unique counts every NaN as one value, and -0.0 == 0.0
        pool = np.array([0.0, -0.0, 4.0, 6.0, 6.0 + 1e-15, 1e308, np.inf,
                         -np.inf, np.nan, 5e-324])
        cases = [[np.nan, np.nan], [np.nan, 6.0], [0.0, -0.0], [6.0, 4.0, 6.0],
                 [np.inf, np.inf, 4.0]]
        rng = np.random.default_rng(3)
        cases += [rng.choice(pool, rng.integers(2, 8)) for _ in range(2000)]
        for temps in map(np.array, cases):
            assert fitting._has_duplicates(temps) \
                == (np.unique(temps).size != temps.size), temps

    @pytest.mark.parametrize("temps, message", [
        ([np.nan, np.nan], "temp_k must be finite"), ([0.0, -0.0], "distinct"),
        ([np.nan, 6.0], "temp_k must be finite")])
    def test_duplicate_temperatures_rejected(self, temps, message):
        with pytest.raises(ValueError, match=message):
            g.fit_temperature_series([(t, 38.9) for t in temps], PBV)


class TestJacobians:
    @pytest.mark.parametrize("model,jac,p", [
        (lorentzian_model, lorentzian_jacobian, [3.0, 40.0, 900.0, 25.0]),
        (exp_model, exp_jacobian, [1200.0, 4.4, 30.0]),
        (exp_model, exp_jacobian, [800.0, 0.6, 1500.0, 5.2, 12.0]),
    ])
    def test_against_central_differences(self, model, jac, p):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = np.sort(rng.uniform(0.05, 60.0, 80))
            params = np.asarray(p) * rng.uniform(0.6, 1.6, len(p))
            analytic = jac(x, params)
            numeric = _fd_jacobian(model, x, params)
            scale = np.maximum(np.abs(analytic), np.abs(numeric)).max(axis=0)
            err = np.abs(analytic - numeric).max(axis=0)
            assert np.all(err <= 1e-4 * np.maximum(scale, 1e-12))


def _scan(peak_rate, seed):
    cfg = g.ScanSeriesConfig(
        emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-150, 150, 3),
        dwell=0.1, peak_rate=peak_rate, background_rate=100.0, seed=seed)
    return g.simulate_ple_scan(cfg)


def _trace(counts, seed):
    return g.simulate_trpl(4.4, counts, bin_width=0.5, t_max=60.0, seed=seed)


def _series(seed, n_scans=125):
    """The scans of a series_fit op of perfbench/workloads.py with this
    seed (so seeds 1-12 are those of scripts/digest.py), or its first
    n_scans."""
    cfg = g.ScanSeriesConfig(
        emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-300, 300, 4),
        dwell=0.2, peak_rate=25000.0, background_rate=50.0, n_scans=n_scans,
        diffusion_sigma=1.0, jump_prob=0.005, jump_sigma=15.0,
        ionization_coeff=2.2e-6, repump="resonant", repump_rate=3e-5, seed=seed)
    return g.simulate_scan_series(cfg)[0]


# its offset stays near 0, where the relative step test never passes
NOISELESS_DECAY = g.DecayTrace(0.5 * np.arange(8), [
    375833581668.0, 227954590232.0, 138261447999.0, 83859807268.0,
    50863544227.0, 30850299036.0, 18711652227.0, 11349190771.0])


def _no_iteration(*args):
    raise AssertionError("an iteration ran")


def _temp_series(free):
    truth = g.EmitterParams("t", f_gs=821.0, f_es=3000.0, gamma0=30.6,
                            alpha_gs=9.0e-9, alpha_es=7.51e-9, gamma_others=1.1)
    temps = np.array([4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
    return g.fit_temperature_series(
        np.column_stack([temps, g.linewidth_c(truth, temps)]), SNV, free=free)


def _run_counted(monkeypatch, lm, fit):
    """(report JSON, report, counts) of fit() run on lm; counts holds the
    derivative calls and guard refusals."""
    counts = {"jac": 0, "refused": 0}

    def counted_lm(model, derivatives, x, y, sigma, p0, *, guard=None, **kwargs):
        def counted_derivatives(x, p, rw):
            counts["jac"] += 1
            return derivatives(x, p, rw)

        def counted_guard(p):
            ok = guard(p)
            counts["refused"] += not ok
            return ok

        return lm(model, counted_derivatives, x, y, sigma, p0,
                  guard=None if guard is None else counted_guard, **kwargs)

    monkeypatch.setattr(fitting, "_lm_fit", counted_lm)
    report = fit()
    return json.dumps(report.to_dict()), report, counts


class TestDampingLoop:
    """_lm_fit against lm_reference on every exit of the loop."""

    def _compare(self, monkeypatch, fit, newton=None):
        """Same report under both loops, with the derivatives taken
        n_iterations + 1 times by the reference and 1 + accepted steps
        times by _lm_fit: once at the start and once at each accepted
        point, from the loop or at the exit; a small step, which ends the
        fit, is not an accepted point, and the exit after it uses the
        derivatives already taken. The reference's branches go to
        ``newton``."""
        accepted = []
        ref_json, ref, ref_counts = _run_counted(
            monkeypatch, functools.partial(lm_reference, accepted=accepted,
                                           newton=newton), fit)
        new_json, new, new_counts = _run_counted(monkeypatch, _lm_fit, fit)
        assert new_json == ref_json
        assert ref_counts["jac"] == ref.n_iterations + 1
        assert new_counts["jac"] == len(accepted) + 1
        assert new_counts["refused"] == ref_counts["refused"]
        return new, new_counts

    @pytest.mark.parametrize("fit", [
        lambda: g.fit_lorentzian(_noiseless_spectrum()),
        lambda: g.fit_lorentzian(_scan(5000.0, seed=99)),
        lambda: _temp_series(("gamma_others",)),
        lambda: _temp_series(("gamma_others", "alpha_gs")),
    ], ids=["noiseless", "poisson", "tempseries-1", "tempseries-2"])
    def test_step_tolerance(self, monkeypatch, fit):
        report, _ = self._compare(monkeypatch, fit)
        assert report.converged

    @pytest.mark.parametrize("fit,max_iter", [
        (lambda: g.fit_lorentzian(_scan(0.0, seed=2)), MAX_ITERATIONS),
        (lambda: g.fit_lorentzian(_scan(5000.0, seed=5), max_iter=1), 1),
    ], ids=["dark", "max-iter-1"])
    def test_max_iter(self, monkeypatch, fit, max_iter):
        report, _ = self._compare(monkeypatch, fit)
        assert not report.converged
        assert report.n_iterations == max_iter

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        # 0 iterations used to return the start values as a report
        for fit in (lambda: g.fit_lorentzian(_scan(5000.0, seed=5), max_iter=max_iter),
                    lambda: g.fit_decay(_trace(2000, seed=4), "exp2",
                                        max_iter=max_iter)):
            with pytest.raises(ValueError, match=f"^max_iter must be >= 1, got {max_iter}$"):
                fit()

    @pytest.mark.parametrize("max_iter", [2.5, np.nan, np.inf, None])
    def test_non_integral_max_iter_rejected(self, max_iter):
        # range() used to end these in a TypeError, and None int()'s
        for fit in (lambda: g.fit_lorentzian(_scan(5000.0, seed=5), max_iter=max_iter),
                    lambda: g.fit_decay(_trace(2000, seed=4), "exp2",
                                        max_iter=max_iter)):
            with pytest.raises(ValueError,
                               match=f"^max_iter must be an integer, got {max_iter}$"):
                fit()

    @pytest.mark.parametrize("max_iter", [10001, 20000.0, 1e300, 10 ** 400],
                             ids=["10001", "20000.0", "1e300", "10**400"])
    def test_max_iter_above_limit_rejected(self, monkeypatch, max_iter):
        # each was accepted: a fit whose step test never passes (the
        # noiseless decay) ran them all, and 1e300 never returned
        monkeypatch.setattr(fitting, "_solve", _no_iteration)
        message = f"^max_iter must be <= 10000, got {re.escape(str(max_iter))}$"
        for fit in (lambda: g.fit_lorentzian(_scan(5000.0, seed=5), max_iter=max_iter),
                    lambda: g.fit_decay(NOISELESS_DECAY, "exp1", max_iter=max_iter)):
            with pytest.raises(ValueError, match=message):
                fit()

    def test_max_iter_at_limit_accepted(self):
        fit = functools.partial(g.fit_lorentzian, _scan(5000.0, seed=5))
        assert fit(max_iter=10000) == fit()
        report = g.fit_decay(NOISELESS_DECAY, "exp1", max_iter=10000)
        assert report.n_iterations == 10000 and not report.converged

    def test_integral_float_max_iter_accepted(self):
        for fit in (functools.partial(g.fit_lorentzian, _scan(5000.0, seed=5)),
                    functools.partial(g.fit_decay, _trace(2000, seed=4), "exp2")):
            assert fit(max_iter=3.0) == fit(max_iter=3)
            assert fit(max_iter=3.0).n_iterations == 3

    @pytest.mark.parametrize("fit,converged", [
        (lambda: g.fit_decay(_trace(50, seed=17), "exp1"), False),
        (lambda: g.fit_decay(_trace(2000, seed=4), "exp2"), True),
    ], ids=["exp1", "exp2"])
    def test_guard_rejections(self, monkeypatch, fit, converged):
        report, counts = self._compare(monkeypatch, fit)
        assert counts["refused"] > 0
        assert report.converged is converged

    def test_damping_bail_out_after_refusals(self, monkeypatch):
        report, counts = self._compare(
            monkeypatch, lambda: g.fit_decay(_trace(200, seed=9), "exp2"))
        assert counts["refused"] > 0
        assert not report.converged
        assert report.n_iterations < MAX_ITERATIONS

    def test_damping_bail_out_on_singular_steps(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(fitting, "_solve", _nan_solve)
        monkeypatch.setattr(np.linalg, "solve", singular)  # for lm_reference
        report, counts = self._compare(
            monkeypatch, lambda: g.fit_lorentzian(_noiseless_spectrum()))
        assert not report.converged
        assert report.n_iterations == 16
        assert counts["jac"] == 1

    def test_small_step_ends_the_fit(self, monkeypatch):
        """A converged fit makes one attempt from its last point: the small
        step that ends it. On this scan, a loop that tested the step only
        once its cost passed rejected 9 steps there, each at 10 times the
        damping, before it accepted one small enough."""
        events = []
        solve = fitting._solve

        def counted_solve(a, b):
            events.append("S")
            return solve(a, b)

        def counted_derivatives(x, p, rw):
            events.append("D")
            return lorentzian_derivatives(x, p, rw)

        monkeypatch.setattr(fitting, "_solve", counted_solve)
        monkeypatch.setattr(fitting, "lorentzian_derivatives", counted_derivatives)
        report = g.fit_lorentzian(_series(7, n_scans=12)[2])
        assert report.converged
        # the attempts from the last point that made one
        assert "".join(events).rstrip("D").rsplit("D", 1)[1] == "S"
        assert events.count("S") == report.n_iterations

    @pytest.mark.parametrize("fit", [
        lambda: g.fit_lorentzian(_scan(5000.0, seed=99)),
        lambda: g.fit_decay(_trace(2000, seed=4), "exp2"),
        lambda: _temp_series(("gamma_others",)),
        lambda: _temp_series(("gamma_others", "alpha_gs")),
    ], ids=["lorentzian", "exp2", "tempseries-1", "tempseries-2"])
    def test_model_and_jacobian_outputs_only_read(self, monkeypatch, fit):
        # fit_temperature_series's jacobian returns views of one array, so
        # weighting a Jacobian in place would corrupt later iterations
        def read_only(f):
            def wrapped(*args):
                out = f(*args)
                for array in out if isinstance(out, tuple) else (out,):
                    if array is not None:  # no curvature term
                        array.flags.writeable = False
                return out
            return wrapped

        def guarded_lm(model, derivatives, *args, **kwargs):
            return _lm_fit(read_only(model), read_only(derivatives), *args, **kwargs)

        expected = json.dumps(fit().to_dict())
        monkeypatch.setattr(fitting, "_lm_fit", guarded_lm)
        assert json.dumps(fit().to_dict()) == expected

    def test_series_scans(self, monkeypatch):
        """One Jacobian per accepted point over a drifting, blinking series."""
        spectra = _series(7, n_scans=12)
        newton = []
        for spectrum in spectra:
            self._compare(monkeypatch, lambda: g.fit_lorentzian(spectrum), newton)
        # steps on J^T J - S, and on J^T J where that fails the Cholesky test
        assert set(newton) == {True, False}


def _fd_hessians(x, p, rel_step=1e-6):
    """(n, 4, 4) central differences of lorentzian_jacobian: [i, k, j] is
    d J[i, j] / d p[k]. The center and width steps scale with the width."""
    p = np.asarray(p, dtype=float)
    out = np.empty((x.size, 4, 4))
    for k in range(4):
        h = rel_step * max(abs(p[k]), abs(p[1]), 1e-6)
        hi, lo = p.copy(), p.copy()
        hi[k] += h
        lo[k] -= h
        out[:, k] = lorentzian_jacobian(x, hi) - lorentzian_jacobian(x, lo)
        out[:, k] /= 2.0 * h
    return out


# a line that switches off at its center and stays dark: a large residual
# that Gauss-Newton steps crawl towards (reduced chi^2 30)
_X = np.arange(-300.0, 300.01, 4.0)
TRUNCATED = g.Spectrum(_X, np.where(_X < 0.0, np.round(
    g.lorentzian(_X, 0.0, 40.0, 1000.0, 5.0)), 5.0))


class TestCurvature:
    """The curvature term of lorentzian_derivatives and the steps _lm_fit
    takes with it."""

    def test_against_central_differences(self):
        # sum_i rw_i H_i within 1e-5 of sum_i |rw_i H_i|, entry by entry,
        # against the difference of either Jacobian column (d J_j / d p_k
        # or d J_k / d p_j: one of them can underflow, as h^2 at h = 5e-201);
        # a curvature at a point whose Jacobian is not finite is not finite
        # either, so the step there is a Gauss-Newton step
        rng = np.random.default_rng(14)
        grid = np.arange(-300.0, 300.01, 4.0)
        params = np.vstack([TestSameBits.SPECIAL, _random_lorentzian_params(rng, 300)])
        checked = 0
        with np.errstate(all="ignore"):
            for i, p in enumerate(params):
                x = grid if i % 2 else grid + 0.5
                rw = rng.normal(size=x.size)
                jac, analytic = lorentzian_derivatives(x, p, rw)
                assert analytic.shape == (4, 4)
                if not np.isfinite(jac).all():
                    assert not np.isfinite(analytic).all(), p
                    continue
                hessians = _fd_hessians(x, p)
                numeric = np.einsum("i,ikj->kj", rw, hessians)
                scale = np.einsum("i,ikj->kj", np.abs(rw), np.abs(hessians))
                close = np.abs(analytic - numeric) <= 1e-5 * scale + 1e-300
                assert np.array_equal(analytic, analytic.T), p
                assert np.all(close | close.T), p
                checked += 1
        assert checked > 280

    def test_truncated_line_converges(self, monkeypatch):
        report = g.fit_lorentzian(TRUNCATED)
        assert report.converged and report.n_iterations <= 40
        monkeypatch.setattr(fitting, "lorentzian_derivatives", lorentzian_gauss_newton)
        gauss_newton = g.fit_lorentzian(TRUNCATED)
        assert gauss_newton.n_iterations > 100
        assert report.reduced_chi2 <= gauss_newton.reduced_chi2

    @pytest.mark.parametrize("spoil", [
        lambda s: np.full((4, 4), np.nan),
        lambda s: np.full((4, 4), np.inf),
        lambda s: np.full((4, 4), -np.inf),
        lambda s: np.diag([-np.inf] * 4),  # J^T J - S passes Cholesky, with inf
        lambda s: s * 1e308,
    ], ids=["nan", "inf", "-inf", "-inf-diagonal", "overflow"])
    @pytest.mark.parametrize("spectrum", [TRUNCATED, _noiseless_spectrum()],
                             ids=["truncated", "noiseless"])
    def test_non_finite_curvature_gives_gauss_newton(self, monkeypatch, spoil,
                                                     spectrum):
        monkeypatch.setattr(fitting, "lorentzian_derivatives", lorentzian_gauss_newton)
        expected = json.dumps(g.fit_lorentzian(spectrum).to_dict())
        calls = []

        def spoilt(x, p, rw):
            calls.append(p)
            jac, curvature = lorentzian_derivatives(x, p, rw)
            with np.errstate(over="ignore"):
                return jac, spoil(curvature)

        monkeypatch.setattr(fitting, "lorentzian_derivatives", spoilt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert json.dumps(g.fit_lorentzian(spectrum).to_dict()) == expected
        assert calls


def _random_lorentzian_params(rng, n):
    """Centers, widths of either sign, amplitudes and offsets over several
    decades, so that the scalar squares round every way."""
    def spread(lo, hi):
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    return np.column_stack([spread(-3, 3), spread(-2, 3), spread(-1, 6),
                            spread(-1, 4)])


class TestSameBits:
    """The per-iteration code of the fitter against the earlier code."""

    # (38.013 / 2) ** 2 through libm pow is 361.24704224999994, and the
    # product 19.0065 * 19.0065 is 361.24704225 (glibc 2.36): the model
    # keeps its scalar power
    SPECIAL = [[3.0, 38.013, 900.0, 25.0], [0.0, -38.013, 1.0, 0.0],
               [0.0, 1e200, 5.0, 1.0], [0.0, 1e200, 0.0, 1.0],
               [1.0, 1e-200, 5.0, 1.0], [0.0, 0.0, 5.0, 1.0],
               [np.nan, 40.0, 5.0, 1.0], [0.0, 40.0, np.inf, 1.0]]

    def test_lorentzian_functions_match_reference(self):
        rng = np.random.default_rng(12)
        grid = np.arange(-300.0, 300.01, 4.0)
        params = np.vstack([self.SPECIAL, _random_lorentzian_params(rng, 3000)])
        with np.errstate(all="ignore"):
            for i, p in enumerate(params):
                x = grid if i % 2 else np.sort(rng.normal(p[0], 100.0, 50))
                assert _same_bits(lorentzian_model(x, p),
                                  lorentzian_model_reference(x, p)), p
                assert _same_bits(lorentzian_jacobian(x, p),
                                  lorentzian_jacobian_reference(x, p)), p

    def test_derivative_pass_matches_separate_passes(self, monkeypatch):
        # at every point the fits of three series_fit ops take derivatives
        checked = 0

        def checked_pass(x, p, rw):
            nonlocal checked
            jac, curvature = lorentzian_derivatives(x, p, rw)
            assert _same_bits(jac, lorentzian_jacobian_separate(x, p)), p
            assert _same_bits(curvature,
                              lorentzian_curvature_separate(x, p, rw)), p
            checked += 1
            return jac, curvature

        monkeypatch.setattr(fitting, "lorentzian_derivatives", checked_pass)
        for seed in (1, 2, 3):
            g.fit_lorentzian(_series(seed))
        assert checked > 1000

    @settings(max_examples=300, deadline=None)
    @given(p=st.lists(st.floats(), min_size=4, max_size=4),
           shift=st.floats(-1e3, 1e3), rw_seed=st.integers(0, 2 ** 32 - 1),
           rw_scale=st.floats(-300.0, 300.0))
    def test_derivative_pass_matches_separate_passes_drawn(self, p, shift,
                                                          rw_seed, rw_scale):
        x = np.arange(-300.0, 300.01, 4.0) + shift
        rw = np.random.default_rng(rw_seed).normal(size=x.size) * 10.0 ** rw_scale
        with np.errstate(all="ignore"):
            jac, curvature = lorentzian_derivatives(x, p, rw)
            assert _same_bits(jac, lorentzian_jacobian_separate(x, p))
            assert _same_bits(curvature, lorentzian_curvature_separate(x, p, rw))

    def test_halfmax_width_matches_reference(self):
        # small integer counts: plateaus, ties with the level, and peaks at
        # either end
        rng = np.random.default_rng(8)
        for _ in range(3000):
            n = int(rng.integers(2, 40))
            x = np.cumsum(rng.uniform(0.1, 5.0, n))
            y = rng.integers(0, 6, n).astype(float)
            i_peak = int(rng.integers(0, n))
            level = float(y[rng.integers(0, n)] if rng.random() < 0.5
                          else rng.uniform(-1.0, 6.0))
            assert _same_bits(fitting._halfmax_width(x, y, i_peak, level),
                              halfmax_width_reference(x, y, i_peak, level))

    @staticmethod
    def _systems(monkeypatch):
        """Random 1x1 to 5x5 systems, and the damped systems of a fit."""
        rng = np.random.default_rng(5)
        systems = []
        for n in range(1, 6):
            for _ in range(200):
                a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n))
                systems.append((a, rng.normal(size=n)))
                systems.append((a @ a.T, rng.normal(size=n)))
        solve = fitting._solve

        def recording(a, b):
            systems.append((a.copy(), b.copy()))
            return solve(a, b)

        monkeypatch.setattr(fitting, "_solve", recording)
        cfg = g.ScanSeriesConfig(
            emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-300, 300, 4),
            dwell=0.2, peak_rate=25000.0, background_rate=50.0, n_scans=6,
            diffusion_sigma=1.0, ionization_coeff=2.2e-6, repump="resonant",
            repump_rate=3e-5, seed=7)
        for spectrum in g.simulate_scan_series(cfg)[0]:
            g.fit_lorentzian(spectrum)
        g.fit_decay(_trace(2000, seed=4), "exp2")
        monkeypatch.undo()
        return systems

    def test_solve_matches_linalg_solve(self, monkeypatch):
        systems = self._systems(monkeypatch)
        assert len(systems) > 2000 + 100  # the fits recorded their systems
        singular = 0
        for a, b in systems:
            try:
                expected = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                singular += 1
                with np.errstate(invalid="ignore"):
                    got = fitting._solve(a, b)
                assert got.shape == b.shape and np.isnan(got).all()
                continue
            assert _same_bits(fitting._solve(a, b), expected)
        assert singular > 0

    @pytest.mark.parametrize("a", [
        np.zeros((3, 3)), [[1.0, 2.0], [2.0, 4.0]], [[np.nan, 1.0], [1.0, 1.0]],
    ], ids=["zero", "rank-1", "nan"])
    def test_solve_singular_raises(self, a):
        # np.linalg.solve raises; _solve returns NaN under the fitter's
        # error state
        a = np.asarray(a, dtype=float)
        b = np.ones(len(a))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(a, b)
        with np.errstate(**fitting._EDGE):
            got = fitting._solve(a, b)
        assert got.shape == b.shape and np.isnan(got).all()

    def test_solve_all_nan_as_linalg_solve(self):
        # gesv finds no zero pivot here: both return NaN, and the fit
        # rejects the step on its NaN cost
        a, b = np.full((2, 2), np.nan), np.ones(2)
        assert _same_bits(fitting._solve(a, b), np.linalg.solve(a, b))
        assert np.isnan(fitting._solve(a, b)).all()


class TestSameBitsPerFit:
    """The start values, damping and covariance against the numpy calls
    they replace."""

    @staticmethod
    def _median_inputs():
        rng = np.random.default_rng(21)
        yield from ([7.0], [3.0, 1.0], np.zeros(151), np.zeros(150),
                    [0.0, -0.0, 0.0, -0.0], [-0.0, -0.0], [-0.0],
                    [-0.0, 1.0, -0.0], [2.0, 2.0, 1.0, 2.0],
                    [1e308, 1.5e308], [1.7e308, 1.7e308, 0.0, 1.8e308],
                    [np.finfo(float).max] * 4, [5e-324, 5e-324, 0.0])
        for n in range(1, 41):
            yield rng.integers(0, 4, n).astype(float)         # ties
            yield rng.poisson(100.0, n).astype(float)
            yield 10.0 ** rng.uniform(-320, 308, n)           # sums that overflow

    def test_median_matches_np_median(self):
        for y in self._median_inputs():
            y = np.asarray(y, dtype=float)
            before = y.copy()
            with np.errstate(over="ignore"):
                expected = np.median(y)
            got = fitting._median(y)
            assert type(got) is float
            assert _same_bits(got, expected), y
            assert _same_bits(y, before)  # the input is not reordered

    @staticmethod
    def _jacobians():
        rng = np.random.default_rng(13)
        x = np.linspace(-1.0, 1.0, 31)
        for _ in range(300):                                  # positive-definite
            n = int(rng.integers(1, 6))
            yield rng.normal(size=(31, n)) * 10.0 ** rng.uniform(-150, 150, n)
        yield np.column_stack([x, 3.0 * x, np.ones_like(x)])  # dependent columns
        yield np.column_stack([x, np.zeros_like(x)])          # zero column
        yield np.zeros((31, 4))
        yield np.column_stack([x, x])                         # semidefinite
        yield np.column_stack([x, x + 1e-17])                 # singular by rounding
        for bad in (np.nan, np.inf):
            jac = np.column_stack([x, x * x, np.ones_like(x)])
            jac[4, 1] = bad
            yield jac
        yield np.full((31, 2), np.nan)
        yield lorentzian_jacobian(x * 100.0, [3.0, 38.0, 900.0, 25.0])

    def test_gn_covariance_matches_linalg(self):
        outcomes = set()
        with np.errstate(invalid="ignore", over="ignore"):
            for jac in self._jacobians():
                expected = gn_covariance_reference(jac)
                got = fitting._gn_covariance(jac)
                outcomes.add(got is None)
                if expected is None:
                    assert got is None, jac
                else:
                    assert _same_bits(got, expected), jac
        assert outcomes == {True, False}

    def test_cholesky_inv_matches_linalg(self):
        # symmetric matrices, also indefinite ones whose inverse has a
        # positive diagonal: only the Cholesky test refuses those
        rng = np.random.default_rng(4)
        mats = [np.linalg.inv([[1.0, 2.0], [2.0, 1.0]]), [[0.0]], [[-1.0]],
                [[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], np.eye(3)]
        for n in range(1, 6):
            for _ in range(100):
                m = rng.normal(size=(n, n))
                mats.append(m + m.T)
                mats.append(m @ m.T)
        refused = 0
        for a in map(np.asarray, mats):
            try:
                np.linalg.cholesky(a)
                expected = np.linalg.inv(a)
            except np.linalg.LinAlgError:
                refused += 1
                with np.errstate(invalid="ignore"):
                    got = fitting._cholesky_inv(a)
                assert got.shape == a.shape and np.isnan(got).all(), a
                continue
            assert _same_bits(fitting._cholesky_inv(a), expected), a
        assert 0 < refused < len(mats)

    @pytest.mark.parametrize("lam", [1e-14, 1e-3, 1.0, 1e12, 1e13])
    def test_damped_diagonal_matches_where_add(self, lam):
        entries = [np.nan, 0.0, -0.0, np.inf, -np.inf, -2.5, -1e308, 5e-324,
                   1e-300, 3.0, 1e308, float(np.finfo(float).max)]
        rng = np.random.default_rng(2)
        diagonals = [entries] + [rng.choice(entries, 4).tolist()
                                 for _ in range(200)]
        # the base is J^T J itself, or J^T J - S: any other diagonal
        bases = [entries[::-1]] + [rng.choice(entries, 4).tolist()
                                   for _ in range(200)]
        for h, b in zip(diagonals + diagonals, diagonals + bases):
            h_arr, b_arr = np.array(h), np.array(b)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.add(b_arr, lam * np.where(h_arr <= 0, 1.0, h_arr))
            got = fitting._damped_diagonal(b, h, lam)
            assert all(type(v) is float for v in got)
            assert _same_bits(got, expected), (b, h)


@st.composite
def halfmax_inputs(draw):
    """(x, y, i_peak, level): counts on a few levels, so plateaus and ties
    with the level; a peak at either end one time in three; a level that
    is a count, between counts or above them all (no crossing)."""
    n = draw(st.integers(2, 40))
    x = np.cumsum(draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1.0, 0.1, 1e6, 1e300]))
    y = scale * np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                         dtype=float)
    i_peak = draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
    level = draw(st.one_of(st.sampled_from(y.tolist()),
                           st.floats(-1.0, 7.0).map(lambda v: scale * v)))
    return x, y, i_peak, level


def _newton_candidates():
    """4 x 4 matrices as the Lorentzian fit builds J^T J - S, and ones it
    may meet at the edge of the float range: positive-definite,
    indefinite, singular, and with inf or NaN entries."""
    rng = np.random.default_rng(29)
    for _ in range(400):
        m = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-150, 150, 4)
        spd = m @ m.T
        yield spd
        yield m + m.T                                      # indefinite
        low = rng.normal(size=(4, int(rng.integers(1, 4))))
        yield low @ low.T                                  # singular
        for bad in (np.inf, -np.inf, np.nan):
            i, j = rng.integers(0, 4, 2)
            spoilt = spd.copy()
            spoilt[i, j] = bad
            if rng.random() < 0.5:
                spoilt[j, i] = bad
            yield spoilt
            yield spd + np.diag(np.where(rng.random(4) < 0.5, bad, 0.0))
        yield spd * 10.0 ** rng.uniform(150, 308)           # near overflow
    yield np.diag([np.inf, 1.0, 1.0, 1.0])                 # passes, with inf
    yield np.diag([1.0, 1.0, 1.0, np.inf])
    yield np.full((4, 4), np.finfo(float).max)
    yield np.diag([np.finfo(float).max] * 4)
    yield np.zeros((4, 4))


class TestSameBitsDrawn:
    """The start width and the test of J^T J - S against the numpy forms
    they replace."""

    @settings(max_examples=500, deadline=None)
    @given(args=halfmax_inputs())
    def test_halfmax_width_matches_numpy(self, args):
        x, y, i_peak, level = args
        with np.errstate(**fitting._EDGE):
            expected = halfmax_width_numpy(x, y, i_peak, level)
            got = fitting._halfmax_width(x, y, i_peak, level)
        assert _same_bits(got, expected)

    def test_newton_test_matches_numpy_sum(self):
        outcomes = set()
        with np.errstate(**fitting._EDGE):
            for m in _newton_candidates():
                expected = math.isfinite(fitting._cholesky(m).sum())
                assert fitting._finite_cholesky(m) is expected, m
                outcomes.add((expected, bool(np.isfinite(m).all())))
        # both outcomes, with finite matrices and with inf or NaN in them
        assert outcomes == {(True, True), (False, True), (True, False),
                            (False, False)}


# The start of a script for a fresh interpreter whose numpy lacks the
# private linalg module, or has it without the gesv gufunc; np.linalg's
# wrappers record that the fitter called them.
_HIDE_PRIVATE = """
import sys, types
import numpy as np

missing, *args = sys.argv[1:]
module = "numpy.linalg._umath_linalg"
if missing == "module":
    sys.modules[module] = None
else:
    fake = types.ModuleType(module)
    fake.cholesky_lo, fake.inv = sys.modules[module].cholesky_lo, sys.modules[module].inv
    sys.modules[module] = fake
called = set()
for name in ("solve", "cholesky", "inv"):
    def spy(*args, _call=getattr(np.linalg, name), _name=name):
        called.add(_name)
        return _call(*args)
    setattr(np.linalg, name, spy)

from g4vlines import dataio, fitting
"""

# Fits fixtures/ple_pbv.csv and writes the report.
_FALLBACK_FIT = _HIDE_PRIVATE + """
spectrum_path, report_path = args
dataio.emit_fit_report(fitting.fit_lorentzian(dataio.load_spectrum(spectrum_path)),
                       report_path)
assert called == {"solve", "cholesky", "inv"}, called
"""

# A singular system and a matrix that fails the Cholesky test give NaN, not
# LinAlgError; a fit whose every damped system np.linalg.solve finds
# singular rejects each step until the damping passes 1e12.
_FALLBACK_SINGULAR = _HIDE_PRIVATE + """
with np.errstate(**fitting._EDGE):
    step = fitting._solve(np.zeros((3, 3)), np.ones(3))
    inverse = fitting._cholesky_inv(np.array([[1.0, 2.0], [2.0, 1.0]]))
assert step.shape == (3,) and np.isnan(step).all(), step
assert inverse.shape == (2, 2) and np.isnan(inverse).all(), inverse
assert called == {"solve", "cholesky"}, called

def singular(*args):
    called.add("singular")
    raise np.linalg.LinAlgError("Singular matrix")

np.linalg.solve = singular
report = fitting.fit_lorentzian(dataio.load_spectrum(args[0]))
assert "singular" in called
assert not report.converged and report.n_iterations == 16, report
"""


class TestLinalgFallback:
    @pytest.mark.parametrize("missing", ["module", "gufunc"])
    def test_same_report_bytes(self, fixtures_dir, tmp_path, missing):
        spectrum = fixtures_dir / "ple_pbv.csv"
        dataio.emit_fit_report(g.fit_lorentzian(dataio.load_spectrum(spectrum)),
                               tmp_path / "private.json")
        proc = subprocess.run(
            [sys.executable, "-c", _FALLBACK_FIT, missing, str(spectrum),
             str(tmp_path / "fallback.json")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fallback.json").read_bytes() \
            == (tmp_path / "private.json").read_bytes()

    @pytest.mark.parametrize("missing", ["module", "gufunc"])
    def test_singular_systems_give_nan(self, fixtures_dir, missing):
        proc = subprocess.run(
            [sys.executable, "-c", _FALLBACK_SINGULAR, missing,
             str(fixtures_dir / "ple_pbv.csv")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestReport:
    def test_singular_covariance_dropped(self):
        # dependent columns: J^T J may pass the Cholesky test by rounding,
        # and its inverse then holds negative variances
        x = np.linspace(-1.0, 1.0, 11)
        jac = np.column_stack([x, 3.0 * x, np.ones_like(x)])
        assert fitting._gn_covariance(jac) is None

    @pytest.mark.parametrize("params, cov, cost, derived, name", [
        ([np.nan], None, 1.0, {}, "params.a"),
        ([1.0], [[np.inf]], 1.0, {}, "std_errors.a"),
        ([1.0], None, np.inf, {}, "reduced_chi2"),
        ([1.0], None, 1.0, {"d": np.nan}, "derived.d"),
    ], ids=["params", "std_errors", "reduced_chi2", "derived"])
    def test_non_finite_value_named(self, params, cov, cost, derived, name):
        # no report holds a value that load_fit_report would refuse
        res = fitting._LMResult(params=np.array(params),
                                cov=None if cov is None else np.array(cov),
                                n_iterations=1, converged=True, cost=cost)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fitting._report("m", ("a",), {"a": ""}, res, 3, derived=derived)


def _mostly(valid, other):
    """valid three times in four, else other: without the first, few
    inputs get past the records' and the fitters' checks. (st.one_of
    would draw each distinct strategy about as often.)"""
    return st.integers(0, 3).flatmap(lambda k: valid if k else other)


def _near(low, high):
    """A float in [low, high], or any float."""
    return _mostly(st.floats(low, high), st.floats())


# what is not a real scalar: None, text, a sequence, an array
NOT_REAL = st.one_of(st.none(), st.text(max_size=3),
                     st.lists(st.floats(), max_size=2),
                     st.lists(st.floats(), min_size=1, max_size=2).map(np.array))
# what is not a table of numbers: a dict, an object, text, ragged lists or
# rows of the wrong width, rows holding text, None or a dict
NOT_TABLE = st.one_of(
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
    st.builds(object), st.text(max_size=3),
    st.lists(st.lists(st.floats(), max_size=3), min_size=1, max_size=3),
    st.lists(st.tuples(st.floats(), st.one_of(st.none(), st.text(max_size=2),
                                              st.builds(dict))),
             min_size=1, max_size=3))
# a max_iter: not above 300 where a fit may use it, since a fit whose step
# test never passes takes as many as it is given (a noiseless decay whose
# offset stays near 0); above the limit of 10000 it must raise at once
ITERATIONS = _mostly(st.integers(1, 300), st.one_of(
    st.integers(-1, 0), st.floats(max_value=300.0), st.just(math.inf),
    st.just(math.nan), NOT_REAL, st.integers(10001, 10 ** 400),
    st.floats(min_value=10000.5)))


def _spoil(draw, cols):
    """In a quarter of the draws, one value of one of cols set to any float."""
    n = cols[0].size
    if n and draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from(cols))[draw(st.integers(0, n - 1))] = draw(st.floats())
    return cols


@st.composite
def columns(draw, *ranges):
    """0 to 24 rows of floats, each column within its (low, high) range,
    one value spoiled (any float) in a quarter of the draws."""
    n = draw(_mostly(st.integers(2, 24), st.integers(0, 1)))
    return _spoil(draw, [np.array(draw(st.lists(st.floats(low, high), min_size=n,
                                                max_size=n)))
                         for low, high in ranges])


@st.composite
def grid_data(draw, shape, params):
    """(x, y): x = start + step * arange(n), and y ``shape(x, *params)``,
    rounded, or n values in [0, 1e3]; one value spoiled (any float) in a
    quarter of the draws."""
    n = draw(_mostly(st.integers(8, 24), st.integers(0, 7)))
    start, step = draw(_near(-100.0, 100.0)), draw(_near(1e-3, 20.0))
    with np.errstate(all="ignore"):  # inf or NaN: refused by the record
        x = start + step * np.arange(n)
        if draw(st.booleans()):
            y = np.round(shape(x, *(draw(p) for p in params)))
        else:
            y = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n,
                                       max_size=n)))
    return tuple(_spoil(draw, [x, y]))


def _lorentzian_shape(x, center, fwhm, amplitude, offset):
    return offset + amplitude / (1.0 + ((x - center) / (fwhm / 2.0)) ** 2)


def _decay_shape(t, amplitude, tau, offset):
    return amplitude * np.exp(-t / tau) + offset


def fit_or_value_error(call, max_iter):
    """finite_report_or_value_error(call), or, for a max_iter above the
    limit, a ValueError before any iteration."""
    if isinstance(max_iter, (int, float)) and max_iter > fitting._MAX_ITER_LIMIT:
        with mock.patch.object(fitting, "_solve", _no_iteration), \
                pytest.raises(ValueError):
            call()
        return None
    return finite_report_or_value_error(call)


def finite_report_or_value_error(call):
    """call(), with warnings as errors: a report whose every number is
    finite, or None where it raises ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = call()
        except ValueError:
            return None
    values = [*report.params.values(), *(report.std_errors or {}).values(),
              report.reduced_chi2, *report.derived.values()]
    assert all(type(v) is float and math.isfinite(v) for v in values), report
    return report


class TestFuzzFitters:
    @given(data=grid_data(_lorentzian_shape, [
               _near(-100.0, 100.0), _near(0.1, 200.0), _near(0.0, 1e5),
               _near(0.0, 100.0)]),
           max_iter=ITERATIONS)
    @example(data=(np.arange(10.0), np.array([0, 1, 3, 9, 20, 9, 3, 1, 0, 0.0])),
             max_iter="3")
    @example(data=(np.arange(10.0), np.array([0, 1, 3, 9, 20, 9, 3, 1, 0, 0.0])),
             max_iter=10 ** 400)
    @settings(max_examples=200, deadline=None)
    def test_fit_lorentzian(self, data, max_iter):
        fit_or_value_error(
            lambda: g.fit_lorentzian(g.Spectrum(*data), max_iter=max_iter),
            max_iter)

    @given(data=grid_data(_decay_shape, [
               _near(0.0, 1e5), _near(0.1, 100.0), _near(0.0, 100.0)]),
           model=_mostly(st.sampled_from(["exp1", "exp2"]),
                         st.one_of(st.just("exp3"), NOT_REAL)),
           start_index=_mostly(st.one_of(st.none(), st.integers(0, 20)),
                               st.one_of(st.integers(-2, 30), st.floats(), NOT_REAL)),
           max_iter=ITERATIONS)
    @example(data=(np.arange(10.0), 100.0 * np.exp(-np.arange(10.0) / 3.0)),
             model="exp2", start_index="1", max_iter=50)
    @example(data=(NOISELESS_DECAY.bin_centers, NOISELESS_DECAY.counts),
             model="exp1", start_index=None, max_iter=1e300)
    @settings(max_examples=200, deadline=None)
    def test_fit_decay(self, data, model, start_index, max_iter):
        fit_or_value_error(lambda: g.fit_decay(
            g.DecayTrace(*data), model, start_index=start_index,
            max_iter=max_iter), max_iter)

    # (f_gs_ghz, delta_mhz) points, and explicit weights in the third column;
    # a quarter of the tables are not tables of numbers
    @given(cols=columns((1.0, 1e4), (1e-3, 1e3), (1e-3, 1e3)),
           table=_mostly(st.none(), NOT_TABLE),
           weights=_mostly(st.sampled_from(["delta", "equal", "explicit"]),
                           st.one_of(st.just("x"), NOT_REAL, NOT_TABLE)))
    @example(cols=[np.array([200.0, 3870.0]), np.array([60.0, 435.0]),
                   np.ones(2)], table=None, weights=[1.0, None])
    @example(cols=[np.array([200.0]), np.array([44.7]), np.ones(1)],
             table=[{}], weights="delta")
    @example(cols=[np.array([200.0]), np.array([44.7]), np.ones(1)],
             table=None, weights={"a": 1})
    @settings(max_examples=200, deadline=None)
    def test_fit_cubic_alpha(self, cols, table, weights):
        if isinstance(weights, str) and weights == "explicit":
            weights = cols[2]
        points = np.column_stack(cols[:2]) if table is None else table
        finite_report_or_value_error(lambda: g.fit_cubic_alpha(points, weights))

    @given(cols=columns((0.0, 30.0), (30.0, 60.0)),
           table=_mostly(st.none(), NOT_TABLE),
           emitter=st.sampled_from([g.REGISTRY.get(name)
                                    for name in ("SiV", "GeV", "SnV", "PbV")]),
           free=_mostly(st.sampled_from([("gamma_others",),
                                         ("gamma_others", "alpha_gs"),
                                         ["gamma_others", "alpha_gs"]]),
                        st.sampled_from([("alpha_gs",), (), "gamma_others", 5])),
           max_temp=_mostly(st.one_of(st.none(), st.floats(0.0, 30.0)),
                            st.one_of(st.floats(), NOT_REAL)))
    @example(cols=[np.array([6.0, 10.0, 14.0]), np.array([38.9, 39.0, 39.8])],
             table=None, emitter=PBV, free=("gamma_others",),
             max_temp=np.array([20.0, 30.0]))
    @example(cols=[np.array([6.0, 10.0, 14.0]), np.array([38.9, 39.0, 39.8])],
             table=None, emitter=PBV, free=("gamma_others", "alpha_gs"),
             max_temp="x")
    @example(cols=[np.array([6.0]), np.array([38.9])], table=object(),
             emitter=PBV, free=("gamma_others",), max_temp=None)
    @example(cols=[np.array([6.0, 10.0, 14.0]), np.array([38.9, 39.0, 39.8])],
             table=None, emitter=PBV, free=5, max_temp=None)
    @settings(max_examples=200, deadline=None)
    def test_fit_temperature_series(self, cols, table, emitter, free, max_temp):
        points = np.column_stack(cols) if table is None else table
        finite_report_or_value_error(lambda: g.fit_temperature_series(
            points, emitter, free=free, max_temp=max_temp))
