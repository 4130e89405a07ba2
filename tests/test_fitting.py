"""Fit models, optimizer behavior, and recovery against generating oracles.

``lm_reference`` is the earlier damping loop of ``fitting._lm_fit``, which
took the derivatives anew on every attempt: ``_lm_fit`` takes them once per
accepted point and must give the same report, byte for byte, on every exit.
"""

import functools
import json

import numpy as np
import pytest

import g4vlines as g
from g4vlines import fitting
from g4vlines.fitting import (
    LAMBDA0, MAX_ITERATIONS, REL_STEP_TOL, _lm_fit,
    exp1_jacobian, exp1_model, exp2_jacobian, exp2_model,
    lorentzian_jacobian, lorentzian_model,
)

PBV = g.REGISTRY.get("PbV")
SNV = g.REGISTRY.get("SnV")


def lm_reference(model, jac, x, y, sigma, p0, *, guard=None,
                 max_iter=MAX_ITERATIONS, accepted=None):
    """The earlier _lm_fit; appends each accepted point to ``accepted``."""
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
        jr = -jac(x, p) * w[:, None]     # d residual / d p
        grad = jr.T @ r
        hess = jr.T @ jr
        damp = np.diag(hess).copy()
        damp[damp <= 0] = 1.0
        try:
            step = np.linalg.solve(hess + lam * np.diag(damp), -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        trial = p + step
        if guard is not None and not guard(trial):
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        r_trial = residual(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial <= cost:
            rel_change = np.max(np.abs(step) / (np.abs(p) + 1e-300))
            p, r, cost = trial, r_trial, cost_trial
            if accepted is not None:
                accepted.append(p)
            lam = max(lam / 10.0, 1e-14)
            if rel_change < REL_STEP_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    jr = -jac(x, p) * w[:, None]
    return fitting._LMResult(params=p, cov=fitting._gn_covariance(jr),
                             n_iterations=n_iter, converged=converged,
                             cost=cost)


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
        # every damped step fails to solve: the damping passes 1e12 after
        # 16 tries and the fit stops there instead of at max_iter
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
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


class TestJacobians:
    @pytest.mark.parametrize("model,jac,p", [
        (lorentzian_model, lorentzian_jacobian, [3.0, 40.0, 900.0, 25.0]),
        (exp1_model, exp1_jacobian, [1200.0, 4.4, 30.0]),
        (exp2_model, exp2_jacobian, [800.0, 0.6, 1500.0, 5.2, 12.0]),
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


def _temp_series(free):
    truth = g.EmitterParams("t", f_gs=821.0, f_es=3000.0, gamma0=30.6,
                            alpha_gs=9.0e-9, alpha_es=7.51e-9, gamma_others=1.1)
    temps = np.array([4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
    return g.fit_temperature_series(
        np.column_stack([temps, g.linewidth_c(truth, temps)]), SNV, free=free)


def _run_counted(monkeypatch, lm, fit):
    """(report JSON, report, counts) of fit() run on lm; counts holds the
    Jacobian calls and guard refusals."""
    counts = {"jac": 0, "refused": 0}

    def counted_lm(model, jac, x, y, sigma, p0, *, guard=None, **kwargs):
        def counted_jac(x, p):
            counts["jac"] += 1
            return jac(x, p)

        def counted_guard(p):
            ok = guard(p)
            counts["refused"] += not ok
            return ok

        return lm(model, counted_jac, x, y, sigma, p0,
                  guard=None if guard is None else counted_guard, **kwargs)

    monkeypatch.setattr(fitting, "_lm_fit", counted_lm)
    report = fit()
    return json.dumps(report.to_dict()), report, counts


class TestDampingLoop:
    """_lm_fit against lm_reference on every exit of the loop."""

    def _compare(self, monkeypatch, fit):
        """Same report under both loops, with the Jacobian taken
        n_iterations + 1 times by the reference and 1 + accepted steps
        times by _lm_fit."""
        accepted = []
        ref_json, ref, ref_counts = _run_counted(
            monkeypatch, functools.partial(lm_reference, accepted=accepted), fit)
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

        monkeypatch.setattr(np.linalg, "solve", singular)
        report, counts = self._compare(
            monkeypatch, lambda: g.fit_lorentzian(_noiseless_spectrum()))
        assert not report.converged
        assert report.n_iterations == 16
        assert counts["jac"] == 1

    def test_series_scans(self, monkeypatch):
        """One Jacobian per accepted point over a drifting, blinking series."""
        cfg = g.ScanSeriesConfig(
            emitter=PBV, temperature=6.2, grid=g.FrequencyGrid(-300, 300, 4),
            dwell=0.2, peak_rate=25000.0, background_rate=50.0, n_scans=12,
            diffusion_sigma=1.0, jump_prob=0.005, jump_sigma=15.0,
            ionization_coeff=2.2e-6, repump="resonant", repump_rate=3e-5, seed=7)
        spectra, _ = g.simulate_scan_series(cfg)
        for spectrum in spectra:
            self._compare(monkeypatch, lambda: g.fit_lorentzian(spectrum))
