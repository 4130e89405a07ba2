"""Closed-form model: occupation numbers, rates, linewidths, thresholds.

Reference values marked "oracle:" were computed beforehand with mpmath at
40 digits from the exact SI constants (see the expressions in the
assertions) and are frozen here.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import g4vlines as g
from g4vlines import physics
from g4vlines.physics import (
    FLAG_BEYOND_VALIDITY, FLAG_NEGATIVE_TOTAL, NegativeLinewidthWarning,
)

PBV = g.REGISTRY.get("PbV")
SNV = g.REGISTRY.get("SnV")
GEV = g.REGISTRY.get("GeV")
SIV = g.REGISTRY.get("SiV")

ALL_PRESETS = (SIV, GEV, SNV, PBV)


class TestBoseOccupation:
    def test_exact_si_constant(self):
        assert g.H_OVER_KB_K_PER_GHZ == pytest.approx(
            6.62607015e-34 / 1.380649e-23 * 1e9, rel=1e-15)

    def test_unity_at_ln2(self):
        # n = 1 exactly when h f / kB T = ln 2
        temp = g.H_OVER_KB_K_PER_GHZ * 100.0 / math.log(2.0)
        assert g.bose_occupation(100.0, temp) == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature(self):
        assert g.bose_occupation(3870.0, 0.0) == 0.0

    def test_edge_of_float_range(self):
        # h f underflows to 0 at 5e-324 GHz, which gave 0/0 at T = 0; at
        # 1e-300 GHz and 1e10 K, n overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.bose_occupation(5e-324, 0.0) == 0.0
            with pytest.raises(ValueError, match=r"^occupation n\(f, T\) must be finite"):
                g.bose_occupation(1e-300, 1e10)

    def test_frozen_value(self):
        # oracle: 1/expm1(h*3870 GHz / kB / 16.2 K) = 1.04925197381e-5
        assert g.bose_occupation(3870.0, 16.2) == pytest.approx(
            1.04925197381e-5, rel=1e-9)

    def test_moderate_frozen_value(self):
        # oracle: n(50 GHz, 300 K) = 124.52038130079263
        assert g.bose_occupation(50.0, 300.0) == pytest.approx(
            124.52038130079263, rel=1e-12)

    def test_huge_exponent_underflows_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = g.bose_occupation(3870.0, 0.2)  # x ~ 929
        assert n == 0.0

    def test_tiny_exponent_series_regime(self):
        # oracle: x = 1e-8 -> n = 99999999.499999996
        temp = 4799243.073366221
        assert g.bose_occupation(1.0, temp) == pytest.approx(
            99999999.5, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g.bose_occupation(0.0, 4.0)
        with pytest.raises(ValueError):
            g.bose_occupation(-5.0, 4.0)
        with pytest.raises(ValueError):
            g.bose_occupation(50.0, -0.1)

    @pytest.mark.parametrize("temp", [math.inf, math.nan, np.array([4.0, math.inf])])
    def test_non_finite_temperature_rejected(self, temp):
        with pytest.raises(ValueError, match="finite"):
            g.bose_occupation(50.0, temp)

    def test_vectorized(self):
        temps = np.array([0.0, 4.0, 10.0, 300.0])
        n = g.bose_occupation(50.0, temps)
        assert n.shape == temps.shape
        assert n[0] == 0.0
        assert np.all(np.diff(n) > 0)

    @given(f=st.floats(1.0, 5000.0), t1=st.floats(0.5, 400.0),
           scale=st.floats(1.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_temperature(self, f, t1, scale):
        assert g.bose_occupation(f, t1 * scale) > g.bose_occupation(f, t1)

    @given(f=st.floats(1.0, 2000.0), t=st.floats(0.5, 400.0),
           scale=st.floats(1.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_frequency(self, f, t, scale):
        assert g.bose_occupation(f * scale, t) < g.bose_occupation(f, t)


class TestPhononRates:
    def test_zero_temperature_rates(self):
        r = g.phonon_rates(821.0, 0.0, 7.51e-9)
        assert r.gamma_up == 0.0
        assert r.gamma_down == pytest.approx(7.51e-9 * 821.0 ** 3 * 1e3, rel=1e-15)

    def test_rate_difference_is_cubic_and_temperature_free(self):
        # oracle: 7.51e-9 * 3870^3 GHz = 435.28412853 GHz
        for temp in (0.0, 2.0, 6.2, 40.0, 300.0):
            r = g.phonon_rates(3870.0, temp, 7.51e-9)
            assert r.gamma_down - r.gamma_up == pytest.approx(
                435284.12853, rel=1e-9)

    def test_small_splitting_difference(self):
        r = g.phonon_rates(50.0, 6.0, 7.51e-9)
        assert r.gamma_down - r.gamma_up == pytest.approx(0.93875, rel=1e-9)

    def test_emission_exceeds_absorption(self):
        r = g.phonon_rates(200.0, 15.0, 7.51e-9)
        assert r.gamma_down > r.gamma_up > 0.0

    def test_array_temperatures(self):
        temps = np.array([0.0, 6.0, 15.0])
        r = g.phonon_rates(200.0, temps, 7.51e-9)
        assert isinstance(r.gamma_up, np.ndarray) and r.gamma_up.shape == (3,)
        for i, t in enumerate(temps):
            one = g.phonon_rates(200.0, float(t), 7.51e-9)
            assert (r.gamma_up[i], r.gamma_down[i]) == (one.gamma_up, one.gamma_down)

    @given(f=st.floats(1.0, 5000.0), t=st.floats(0.01, 500.0))
    @settings(max_examples=300, deadline=None)
    def test_detailed_balance(self, f, t):
        x = g.H_OVER_KB_K_PER_GHZ * f / t
        if x > 500.0:  # both rates underflow together
            return
        r = g.phonon_rates(f, t, 7.51e-9)
        assert r.gamma_up / r.gamma_down == pytest.approx(
            math.exp(-x), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            g.phonon_rates(100.0, 5.0, -1e-9)

    @pytest.mark.parametrize("alpha", [[1e-9, 2e-9], (1e-9, 2e-9),
                                       np.array([1e-9, 2e-9])],
                             ids=["list", "tuple", "array"])
    def test_alpha_sequence(self, alpha):
        # a list alpha ended in "can't multiply sequence by non-int"
        r = g.phonon_rates(100.0, 5.0, alpha)
        for i, one in enumerate((1e-9, 2e-9)):
            rate = g.phonon_rates(100.0, 5.0, one)
            assert (r.gamma_up[i], r.gamma_down[i]) \
                == (rate.gamma_up, rate.gamma_down)

    @pytest.mark.parametrize("f, alpha, message", [
        (100.0, math.nan, "alpha must be finite"),
        (100.0, math.inf, "alpha must be finite"),
        (100.0, np.array([1e-9, math.nan]), "alpha must be finite"),
        (1e200, 1.0, "gamma_up must be finite"),  # f^3 overflows, n = 0
    ], ids=["nan", "inf", "alpha2", "rate"])
    def test_non_finite_alpha_rejected(self, f, alpha, message):
        with pytest.raises(ValueError, match=message):
            g.phonon_rates(f, 6.0, alpha)


class TestLinewidths:
    def test_pbv_at_measurement_temperature(self):
        # oracle: 38.9000000425 MHz; the measured value is 38.8 +/- 0.3
        assert g.linewidth_c(PBV, 6.2) == pytest.approx(38.9000000425, abs=1e-6)

    def test_pbv_at_zero(self):
        assert g.linewidth_c(PBV, 0.0) == pytest.approx(36.2 + 2.7, rel=1e-15)

    def test_pbv_elevated_frozen(self):
        # oracle: 43.4703369999102 MHz at 16.2 K
        assert g.linewidth_c(PBV, 16.2) == pytest.approx(43.4703369999102, rel=1e-10)

    def test_monotone_in_temperature(self):
        assert g.linewidth_c(SNV, 10.0) > g.linewidth_c(SNV, 6.2)
        temps = np.linspace(0.0, 300.0, 500)
        widths = g.linewidth_c(PBV, temps)
        assert np.all(np.diff(widths) >= 0)

    def test_d_line_pbv(self):
        # dominated by ground-state phonon emission: ~435.3 GHz
        val = g.linewidth_d(PBV, 6.2)
        assert val == pytest.approx(435284.12853 + 38.9, abs=1.0)

    def test_difference_law_all_presets(self):
        temps = np.linspace(0.0, 300.0, 300)
        for p in ALL_PRESETS:
            diff = g.linewidth_d(p, temps) - g.linewidth_c(p, temps)
            expected = g.linewidth_difference(p)
            assert np.max(np.abs(diff - expected)) < 1e-9 * expected

    def test_difference_values(self):
        assert g.linewidth_difference(SIV) == pytest.approx(0.93875, rel=1e-12)
        assert g.linewidth_difference(GEV) == pytest.approx(60.08, rel=1e-12)
        assert g.linewidth_difference(SNV) == pytest.approx(4155.94133411, rel=1e-9)
        assert g.linewidth_difference(PBV) == pytest.approx(435284.12853, rel=1e-9)

    @given(f_gs=st.floats(10.0, 5000.0), alpha=st.floats(1e-10, 1e-7),
           t=st.floats(0.0, 300.0))
    @settings(max_examples=200, deadline=None)
    def test_difference_law_random_emitters(self, f_gs, alpha, t):
        p = g.EmitterParams("x", f_gs=f_gs, f_es=2 * f_gs, gamma0=30.0,
                            alpha_gs=alpha, alpha_es=alpha)
        diff = g.linewidth_d(p, t) - g.linewidth_c(p, t)
        assert diff == pytest.approx(alpha * f_gs ** 3 * 1e3, rel=1e-9)

    def test_negative_zero_temperature_is_zero(self):
        # -0.0 K passes the T >= 0 check; h f / kB T was -inf there, n = -1,
        # and the phonon terms negative
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for func in (g.linewidth_c, g.linewidth_d):
                assert func(PBV, -0.0) == func(PBV, 0.0)
            assert g.bose_occupation(3870.0, -0.0) == 0.0

    def test_negative_total_warns_but_reports(self):
        p = g.EmitterParams("bad", f_gs=100.0, f_es=500.0, gamma0=30.0,
                            gamma_others=-100.0)
        with pytest.warns(NegativeLinewidthWarning):
            val = g.linewidth_c(p, 4.0)
        assert val == pytest.approx(-70.0, rel=1e-12)

    @pytest.mark.parametrize("fields, temp, name", [
        ({"f_gs": 1e200}, 6.2, "gs_phonon_mhz"),   # f^3 overflows, n = 0
        ({"f_gs": 5e-324}, 6.2, "gs_phonon_mhz"),  # f^3 = 0, n = inf
        ({"f_es": 1e200}, 0.0, "es_phonon_mhz"),
        ({}, np.array([6.2, 1e308]), "gs_phonon_mhz"),  # n overflows
        ({"gamma0": 1e307, "gamma_others": 1.79e308}, 6.2, "total_mhz"),
    ])
    def test_term_beyond_float_range_named(self, fields, temp, name):
        p = g.EmitterParams("x", **dict(dict(f_gs=3870.0, f_es=6920.0,
                                             gamma0=36.2, alpha_gs=7.51e-9,
                                             alpha_es=7.51e-9), **fields))
        for func in (g.linewidth_c, g.linewidth_d, g.linewidth_breakdown):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                func(p, temp)
        if "f_gs" in fields:  # the same ground-state term, at T = 0
            with pytest.raises(ValueError, match="^linewidth_difference must be finite"):
                g.linewidth_difference(p)

    def test_excited_state_share_small_at_low_temperature(self):
        # the ES absorption term stays below 1% of the phonon broadening
        # over the temperature range where each center is actually operated
        for p, t_hi in ((SNV, 12.0), (PBV, 20.0)):
            for t in np.linspace(0.5, t_hi, 40):
                gs = g.phonon_rates(p.f_gs, t, p.alpha_gs).gamma_up
                es = g.phonon_rates(p.f_es, t, p.alpha_es).gamma_up
                assert es < 0.01 * (gs + es)


class TestTransformLimit:
    def test_paper_values(self):
        # oracle: 1e3/(2 pi 4.4) = 36.1715779754; 1e3/(2 pi 5.5) = 28.9372623803
        assert g.transform_limit(4.4) == pytest.approx(36.1715779754, rel=1e-11)
        assert g.transform_limit(5.5) == pytest.approx(28.9372623803, rel=1e-11)

    @given(st.floats(1e-3, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, lifetime):
        back = g.lifetime_from_linewidth(g.transform_limit(lifetime))
        assert back == pytest.approx(lifetime, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g.transform_limit(0.0)
        with pytest.raises(ValueError):
            g.lifetime_from_linewidth(-3.0)

    @pytest.mark.parametrize("func, name", [(g.transform_limit, "lifetime"),
                                            (g.lifetime_from_linewidth, "fwhm")])
    @pytest.mark.parametrize("value", [1e-320, 3e307])
    def test_out_of_range_inverse_rejected(self, func, name, value):
        # 1e3 / (2 pi value) overflows, or 2 pi value does and it is 0.0
        with pytest.raises(ValueError, match=f"^{name} .* is out of range"):
            func(value)

    @pytest.mark.parametrize("func, name", [(g.transform_limit, "lifetime"),
                                            (g.lifetime_from_linewidth, "fwhm")])
    @pytest.mark.parametrize("value, error", [
        (np.float64(3e307), "is out of range"),
        (np.array(3e307), "is out of range"),
        # an array overflowed with a numpy warning (one element) or was
        # refused as ambiguous (more)
        (np.array([3e307]), r"must be a scalar, got shape \(1,\)"),
        (np.array([1.0, 2.0]), r"must be a scalar, got shape \(2,\)")])
    def test_numpy_values(self, func, name, value, error):
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match=f"^{name} .*{error}"):
            warnings.simplefilter("error")
            func(value)

    @pytest.mark.parametrize("func", [g.transform_limit, g.lifetime_from_linewidth])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, func, value):
        with pytest.raises(ValueError):
            func(value)

    @pytest.mark.parametrize("func, name", [(g.transform_limit, "lifetime"),
                                            (g.lifetime_from_linewidth, "fwhm")])
    @pytest.mark.parametrize("value", [None, "x", 1j])
    def test_non_number_named(self, func, name, value):
        # they ended in float()'s TypeError or its unnamed ValueError
        message = f"^{name} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            func(value)


class TestTemperatureThreshold:
    # oracle bisection values at ratio 1.2 (1 mK tolerance)
    FROZEN = {"SiV": 4.2517154, "GeV": 3.9416871, "SnV": 6.2893825,
              "PbV": 16.1906}

    def test_frozen_values(self):
        for name, expected in self.FROZEN.items():
            t_star = g.temperature_threshold(g.REGISTRY.get(name))
            assert t_star == pytest.approx(expected, abs=2e-3)

    def test_paper_ranges(self):
        assert g.temperature_threshold(PBV) == pytest.approx(16.0, abs=1.0)
        assert g.temperature_threshold(SNV) == pytest.approx(6.0, abs=0.5)
        assert 3.5 <= g.temperature_threshold(GEV) <= 5.0
        assert 3.5 <= g.temperature_threshold(SIV) <= 5.0

    def test_ratio_near_one_drives_threshold_down(self):
        t_mid = g.temperature_threshold(GEV, ratio=1.01)
        t_low = g.temperature_threshold(GEV, ratio=1.0 + 1e-9)
        assert t_low < t_mid < g.temperature_threshold(GEV, ratio=1.2)
        assert t_low < 0.5

    def test_already_violated_at_zero(self):
        # gamma_others alone exceeds the margin -> threshold at absolute zero
        assert g.temperature_threshold(PBV, ratio=1.0 + 1e-9) == 0.0

    def test_unbounded(self):
        p = g.EmitterParams("flat", f_gs=100.0, f_es=200.0, gamma0=30.0)
        assert math.isinf(g.temperature_threshold(p))

    def test_bracket_expansion(self):
        p = g.EmitterParams("weak", f_gs=100.0, f_es=200.0, gamma0=30.0,
                            alpha_gs=1e-20)
        t_star = g.temperature_threshold(p)
        assert math.isfinite(t_star) and t_star > 400.0

    def test_bracket_overflow_is_unbounded(self):
        # a subnormal coupling: the bracket doubles past the float range
        # before the linewidth reaches the target
        p = g.EmitterParams("subnormal", f_gs=100.0, f_es=200.0, gamma0=30.0,
                            alpha_gs=5e-324)
        assert g.temperature_threshold(p) == math.inf

    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            g.temperature_threshold(PBV, ratio=1.0)

    def test_nan_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio must exceed 1"):
            g.temperature_threshold(PBV, ratio=math.nan)

    @pytest.mark.parametrize("ratio", [np.array([1e308]), np.array([1.2, 1.3]),
                                       [1.2]], ids=["overflow", "pair", "list"])
    def test_array_ratio_rejected(self, ratio):
        # they ended in a numpy overflow warning, numpy's unnamed "truth
        # value ... ambiguous" and a TypeError
        with pytest.raises(ValueError, match=r"^ratio must be a scalar, got shape"):
            g.temperature_threshold(PBV, ratio=ratio)

    @pytest.mark.parametrize("ratio", [None, "x"])
    def test_non_number_ratio_named(self, ratio):
        # None ended in float()'s TypeError
        message = f"^ratio must be a number, got {re.escape(repr(ratio))}$"
        with pytest.raises(ValueError, match=message):
            g.temperature_threshold(PBV, ratio=ratio)

    @pytest.mark.parametrize("ratio", [math.inf, 1e307])
    def test_non_finite_target_rejected(self, monkeypatch, ratio):
        # rejected before any linewidth is evaluated
        def no_terms(*args):
            raise AssertionError("linewidth evaluated")

        monkeypatch.setattr(physics, "_terms", no_terms)
        message = f"ratio * gamma0 must be finite, got ratio = {ratio} and gamma0"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            g.temperature_threshold(PBV, ratio=ratio)

    def test_negative_linewidth_warns_once(self):
        # gamma_others far below -gamma0: the C-linewidth is negative at
        # every temperature the bracket and the bisection try below the root
        p = g.EmitterParams("bad", f_gs=100.0, f_es=500.0, gamma0=30.0,
                            gamma_others=-3705.0, alpha_gs=1e-8, alpha_es=1e-8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t_star = g.temperature_threshold(p)
        assert [w.category for w in caught] == [NegativeLinewidthWarning]
        assert caught[0].filename == __file__
        assert str(caught[0].message) == ("total C-linewidth negative for bad "
                                          "(gamma_others = -3705.0 MHz)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeLinewidthWarning)
            assert g.linewidth_c(p, t_star - 1e-3) < 1.2 * 30.0 \
                <= g.linewidth_c(p, t_star + 1e-3)

    def test_no_warning_for_positive_linewidths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.temperature_threshold(PBV) == pytest.approx(16.19, abs=0.01)


def lorentzian_reference(detuning_mhz, center_mhz, fwhm_mhz, amplitude, offset):
    """The earlier body of g.lorentzian after its argument checks: it built
    the out-of-range mask on every call."""
    hwhm = np.asarray(fwhm_mhz, dtype=float) / 2.0
    d = np.asarray(detuning_mhz, dtype=float) - center_mhz
    with np.errstate(over="ignore", invalid="ignore"):
        hwhm2 = hwhm ** 2
        num = amplitude * hwhm2
        den = d * d + hwhm2
        value = offset + num / den
    out_of_range = ~(np.isfinite(num) & np.isfinite(den)) | (den == 0)
    if out_of_range.any():
        with np.errstate(over="ignore", divide="ignore"):
            ratio = d / np.where(d == 0, 1.0, hwhm)
            value = np.where(out_of_range,
                             amplitude / (1.0 + ratio ** 2) + offset, value)
    args = (detuning_mhz, center_mhz, fwhm_mhz, amplitude, offset)
    return float(value) if all(np.ndim(x) == 0 for x in args) else value


class TestLorentzian:
    def test_peak_value(self):
        assert g.lorentzian(5.0, 5.0, 40.0, 800.0, 30.0) == pytest.approx(830.0)

    def test_half_maximum_at_hwhm(self):
        for sign in (-1.0, 1.0):
            val = g.lorentzian(5.0 + sign * 20.0, 5.0, 40.0, 800.0, 30.0)
            assert val == pytest.approx(30.0 + 400.0, rel=1e-12)

    def test_area_identity(self):
        # numerical quadrature of the offset-free profile vs A*pi*w/2
        w, a = 38.8, 1000.0
        x = np.linspace(-600.0 * w, 600.0 * w, 4_000_001)
        area = np.trapezoid(g.lorentzian(x, 0.0, w, a, 0.0), x)
        assert area == pytest.approx(a * math.pi * w / 2.0, rel=1e-3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            g.lorentzian(0.0, 0.0, -1.0, 10.0, 0.0)
        for amplitude, offset, name in ((-1.0, 0.0, "amplitude"),
                                        (1.0, -1.0, "offset")):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1\\.0$"):
                g.lorentzian(0.0, 0.0, 1.0, amplitude, offset)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", enumerate(
        ["detuning_mhz", "center_mhz", "fwhm_mhz", "amplitude", "offset"]))
    def test_non_finite_argument_named(self, position, name, bad):
        # a NaN fwhm passed the sign check, and a NaN or inf elsewhere gave
        # a NaN or inf profile
        args = [0.0, 0.0, 1.0, 1.0, 0.0]
        for value in (bad, np.array([1.0, bad])):
            args[position] = value
            with warnings.catch_warnings(), \
                    pytest.raises(ValueError, match=f"^{name} must be finite"):
                warnings.simplefilter("error")
                g.lorentzian(*args)

    @pytest.mark.parametrize("bad", [None, "1"])
    @pytest.mark.parametrize("position, name", enumerate(
        ["detuning_mhz", "center_mhz", "fwhm_mhz", "amplitude", "offset"]))
    def test_non_numeric_argument_named(self, position, name, bad):
        # each ended in np.isfinite's TypeError before the check could name it
        args = [0.0, 0.0, 1.0, 1.0, 0.0]
        args[position] = bad
        message = f"^{name} must be a finite number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            g.lorentzian(*args)

    def test_terms_out_of_range_take_the_profile(self):
        # (detuning)^2 + (w/2)^2 or amplitude * (w/2)^2 overflows, or the
        # denominator underflows to 0: the profile, not a 0 or a NaN, and
        # no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.lorentzian(1e154, 0.0, 2e154, 1.0, 0.0) == 0.5
            assert g.lorentzian(1e-170, 0.0, 2e-170, 1.0, 0.0) == 0.5
            assert g.lorentzian(0.0, 1e200, 1.0, 1.0, 0.0) == 0.0
            assert g.lorentzian(0.0, 0.0, 1e160, 0.0, 2.0) == 2.0
            assert g.lorentzian(1e160, 0.0, 2e160, 1e300, 0.0) == 5e299
            values = g.lorentzian(np.array([0.0, 1e154, 1e200]), 0.0, 2e154,
                                  1.0, 0.0)
        assert np.array_equal(values, [1.0, 0.5, 1.0 / (1.0 + 1e46 ** 2)])

    def test_detuning_difference_past_float_range_is_the_tail(self):
        # detuning - center overflows to inf: the far tail, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.lorentzian(1.7e308, -1e308, 1.0, 1.0, 0.0) == 0.0
            assert g.lorentzian(-1.7e308, 1e308, 1.0, 2.0, 0.5) == 0.5
            values = g.lorentzian(np.array([1.7e308, 0.0, -1e308]), -1e308,
                                  1.0, 1.0, 0.0)
        assert np.array_equal(values, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("detuning", [0.0, np.array([0.0, 1.0])])
    def test_profile_past_float_range_named(self, detuning):
        # offset + amplitude overflows at the peak: this returned inf
        with warnings.catch_warnings(), pytest.raises(
                ValueError, match="^lorentzian profile must be finite"):
            warnings.simplefilter("error")
            g.lorentzian(detuning, 0.0, 1.0, 1e308, 1e308)

    def test_width_rounding_to_zero_half(self):
        # w = 5e-324: w/2 rounds to 0, so the formula and its re-evaluation
        # would divide 0 by 0 at the peak; the peak is amplitude + offset,
        # and every other detuning, whatever branch it takes, the 0 tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.lorentzian(0.0, 0.0, 5e-324, 1.0, 0.0) == 1.0
            assert g.lorentzian(3.0, 3.0, 5e-324, 2.0, 0.5) == 2.5
            for d in (1.0, 1e-200, 1e200, -1e-200):
                assert g.lorentzian(d, 0.0, 5e-324, 2.0, 0.5) == 0.5
            values = g.lorentzian(np.array([0.0, 1e-200, 1e200, 1.0]), 0.0,
                                  5e-324, 2.0, 0.5)
            # only the re-evaluated peak changes: a width that does not
            # round to 0 keeps its bytes in every element
            wide = g.lorentzian(np.array([0.0, 1e-170, 1e154]), 0.0,
                                np.array([1e-320, 2e-170, 2e154]), 1.0, 0.0)
        assert np.array_equal(values, [2.5, 0.5, 0.5, 0.5])
        assert np.array_equal(wide, [1.0, 0.5, 0.5])

    # (detuning, center, fwhm, amplitude, offset): the numerator overflows,
    # the denominator overflows, it underflows to 0, w/2 rounds to 0, and
    # terms in range; scalars, 0-d arrays, numpy scalars and arrays
    RANGE_CASES = [
        (0.0, 0.0, 1e160, 1e300, 0.0), (1e160, 0.0, 2e160, 1e300, 0.0),
        (1e155, 0.0, 1.0, 1.0, 0.0), (0.0, 1e200, 1.0, 1.0, 3.0),
        (1e-170, 0.0, 2e-170, 1.0, 0.0), (0.0, 0.0, 2e-170, 1.0, 0.0),
        (0.0, 0.0, 5e-324, 2.0, 0.5), (1.0, 0.0, 5e-324, 2.0, 0.5),
        (0.0, 0.0, 1e160, 0.0, 2.0), (5.0, 5.0, 40.0, 800.0, 30.0),
        (np.array(1e155), np.float64(0.0), np.array(1.0), 1.0, np.array(0.0)),
        (np.array(3.0), 0.0, np.array(5e-324), np.float64(2.0), 0.5),
        (np.array(25.0), np.array(5.0), np.array(40.0), np.array(800.0),
         np.array(30.0)),
        (3, 0, 40, 800, 30),
        (np.array([0.0, 1e-200, 1e154, 1e200, 1.0, -3.0]), 0.0, 2e154, 1.0, 0.0),
        (np.array([0.0, 1e-200, 1e200, 1.0]), 0.0, 5e-324, 2.0, 0.5),
        (np.array([0.0, 1e-170, 1e154]), 0.0,
         np.array([1e-320, 2e-170, 2e154]), 1.0, 0.0),
        (np.arange(-300.0, 300.01, 4.0), 1.5, 40.3, 1.0, 0.0),
        (np.arange(-300.0, 300.01, 4.0), 1.5, np.full(151, 40.3),
         np.full(151, 1e300), 0.0),
        ([1.0, 2.0], 0.0, [1e-320, 2.0], [1.0, 2.0], [0.0, 1.0]),
        # empty detunings: an empty profile of their shape
        (np.array([]), 0.0, 1.0, 1.0, 0.0),
        (np.empty((0, 3)), 0.0, np.array([1.0, 2.0, 3.0]), 1.0, 0.0),
    ]

    @pytest.mark.parametrize("case", RANGE_CASES)
    def test_range_test_matches_old_mask(self, case):
        # the combined range test skips the mask only where every element
        # is in range, so the bytes and the return type are the old ones
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g.lorentzian(*case)
        expected = lorentzian_reference(*case)
        assert type(got) is type(expected)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(expected).view(np.int64))

    def test_range_test_random_magnitudes(self):
        rng = np.random.default_rng(17)
        for i in range(2000):
            d = rng.normal(0.0, 10.0 ** rng.uniform(-200, 300), int(rng.integers(1, 8)))
            args = (d if i % 3 else float(d[0]),
                    float(rng.normal(0.0, 10.0 ** rng.uniform(-200, 300))),
                    float(10.0 ** rng.uniform(-323, 307)),
                    float(10.0 ** rng.uniform(-300, 307)) * (i % 5 > 0),
                    float(10.0 ** rng.uniform(-300, 307)) * (i % 2))
            got, expected = g.lorentzian(*args), lorentzian_reference(*args)
            assert type(got) is type(expected)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(expected).view(np.int64)), args

    def test_finite_terms_keep_their_bytes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1e3, 2000)
        w = 10.0 ** rng.uniform(-3, 6, 2000)
        d = x - 5.0
        h2 = (w / 2.0) ** 2
        expected = 30.0 + 800.0 * h2 / (d * d + h2)
        assert np.array_equal(g.lorentzian(x, 5.0, w, 800.0, 30.0).view(np.int64),
                              expected.view(np.int64))


class TestBreakdown:
    @pytest.mark.parametrize("call", [
        lambda p: g.linewidth_c(p, 6.0), lambda p: g.linewidth_d(p, 6.0),
        g.linewidth_difference, lambda p: g.linewidth_breakdown(p, 6.0),
        g.temperature_threshold], ids=["linewidth_c", "linewidth_d",
                                       "linewidth_difference",
                                       "linewidth_breakdown",
                                       "temperature_threshold"])
    @pytest.mark.parametrize("p", [None, "PbV", {"f_gs": 3870.0}])
    def test_emitter_not_a_record_named(self, call, p):
        # each ended in an AttributeError or a TypeError
        with pytest.raises(ValueError, match="^p must be of type EmitterParams, "
                                             f"got {re.escape(repr(p))}$"):
            call(p)

    def test_terms_sum(self):
        b = g.linewidth_breakdown(PBV, 6.2, "c")
        total = b.gamma0_mhz + b.gamma_others_mhz + b.gs_phonon_mhz + b.es_phonon_mhz
        assert b.total_mhz == pytest.approx(total, rel=1e-15)
        assert b.total_mhz == pytest.approx(g.linewidth_c(PBV, 6.2), rel=1e-15)
        assert b.flags == ()

    def test_d_transition_uses_emission(self):
        b = g.linewidth_breakdown(PBV, 6.2, "d")
        assert b.total_mhz == pytest.approx(g.linewidth_d(PBV, 6.2), rel=1e-15)

    def test_validity_flag_above_20k(self):
        b = g.linewidth_breakdown(PBV, 25.0)
        assert FLAG_BEYOND_VALIDITY in b.flags

    def test_negative_flag(self):
        p = g.EmitterParams("bad", f_gs=100.0, f_es=500.0, gamma0=30.0,
                            gamma_others=-100.0)
        b = g.linewidth_breakdown(p, 4.0)
        assert FLAG_NEGATIVE_TOTAL in b.flags
        assert b.total_mhz < 0

    def test_bad_transition(self):
        with pytest.raises(ValueError):
            g.linewidth_breakdown(PBV, 5.0, "a")

    @pytest.mark.parametrize("transition", ["", 1, None, b"c", ["c"]])
    def test_bad_transition_named(self, transition):
        # a non-string ended in "'int' object has no attribute 'lower'"
        with pytest.raises(ValueError, match="^transition must be 'c' or 'd', "
                                             f"got {re.escape(repr(transition))}$"):
            g.linewidth_breakdown(PBV, 5.0, transition)

    def test_transition_case(self):
        assert g.linewidth_breakdown(PBV, 5.0, "D") == g.linewidth_breakdown(PBV, 5.0, "d")

    def test_scalar_fields_are_python_floats(self):
        b = g.linewidth_breakdown(PBV, 6)
        for name in ("temperature_k", "gamma0_mhz", "gamma_others_mhz",
                     "gs_phonon_mhz", "es_phonon_mhz", "total_mhz"):
            assert type(getattr(b, name)) is float, name
        assert repr(b).startswith(
            "LinewidthBreakdown(emitter='PbV', transition='c', temperature_k=6.0, "
            "gamma0_mhz=36.2, gamma_others_mhz=2.7, gs_phonon_mhz=")

    @pytest.mark.parametrize("transition", ["c", "d"])
    def test_array_equals_scalar_calls(self, transition):
        p = g.EmitterParams("neg", f_gs=100.0, f_es=500.0, gamma0=30.0,
                            alpha_gs=7.51e-9, gamma_others=-40.0)
        temps = np.array([0.0, 2.0, 6.2, 19.0, 25.0, 300.0])
        linewidth = g.linewidth_c if transition == "c" else g.linewidth_d
        for emitter in (PBV, SNV, p):
            b = g.linewidth_breakdown(emitter, temps, transition)
            rows = [g.linewidth_breakdown(emitter, float(t), transition)
                    for t in temps]
            for name in ("temperature_k", "gs_phonon_mhz", "es_phonon_mhz",
                         "total_mhz"):
                assert getattr(b, name).tolist() == [getattr(r, name) for r in rows]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeLinewidthWarning)
                assert b.total_mhz.tolist() == linewidth(emitter, temps).tolist()
            # a flag is set when any element qualifies
            assert set(b.flags) == set().union(*(r.flags for r in rows))
        assert set(b.flags) == {FLAG_BEYOND_VALIDITY, FLAG_NEGATIVE_TOTAL}
        assert g.linewidth_breakdown(PBV, temps[:3], transition).flags == ()


# the public functions of scalar (or array) numbers: (function, arity)
ENTRY_POINTS = {
    "lorentzian": (g.lorentzian, 5),
    "bose_occupation": (g.bose_occupation, 2),
    "phonon_rates": (g.phonon_rates, 3),
    "transform_limit": (g.transform_limit, 1),
    "lifetime_from_linewidth": (g.lifetime_from_linewidth, 1),
    **{f"linewidth_breakdown {p.name} {t}": (
        lambda temp_k, p=p, t=t: g.linewidth_breakdown(p, temp_k, t), 1)
       for p in ALL_PRESETS for t in "cd"},
}

# what no number argument takes: a dict, an object, an int beyond the
# float range and a one-element list
NOT_NUMBERS = st.sampled_from([{}, object(), 10 ** 400, [1.0]])

# any float (+-inf, NaN, subnormals, +-1.8e308), an array of 1 to 3, or
# one of NOT_NUMBERS
NUMBERS = st.one_of(st.floats(), st.lists(st.floats(), min_size=1,
                                          max_size=3).map(np.array), NOT_NUMBERS)


# the entry points that take arrays: (three numbers, transition) -> result
ARRAY_ENTRY_POINTS = {
    "phonon_rates": lambda x, transition: g.phonon_rates(*x),
    **{f"{function.__name__} {p.name}": (
        lambda x, transition, p=p, function=function: function(p, x[0]))
       for p in ALL_PRESETS for function in (g.linewidth_c, g.linewidth_d)},
    **{f"linewidth_breakdown {p.name}": (
        lambda x, transition, p=p: g.linewidth_breakdown(p, x[0], transition))
       for p in ALL_PRESETS},
}

# any float, half of them in the physical range, or a list or an array of
# 1 to 3 of them: without the second half few calls get past the checks;
# or one of NOT_NUMBERS
FLOAT = st.one_of(st.floats(), st.floats(0.0, 1e3))
ARRAYS = st.one_of(FLOAT, st.lists(FLOAT, min_size=1, max_size=3),
                   st.lists(FLOAT, min_size=1, max_size=3).map(np.array),
                   NOT_NUMBERS)
TRANSITIONS = st.one_of(st.sampled_from(["c", "d", "C", "D", "x", ""]),
                        st.integers(), st.floats(), st.none())


class TestFuzzEntryPoints:
    @given(name=st.sampled_from(sorted(ENTRY_POINTS)),
           args=st.lists(NUMBERS, min_size=5, max_size=5))
    @example(name="lorentzian", args=[1.7e308, -1e308, 1.0, 1.0, 0.0])
    @example(name="lorentzian", args=[0.0, 0.0, 1.0, 1e308, 1e308])
    @example(name="transform_limit", args=[10 ** 400, 0.0, 0.0, 0.0, 0.0])
    @settings(max_examples=400, deadline=None)
    def test_finite_result_or_value_error(self, name, args):
        function, arity = ENTRY_POINTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = function(*args[:arity])
            except ValueError:
                return
        assert_finite(name, result)

    # phonon_rates, the one entry point of three arrays, half of the time
    @given(name=st.one_of(st.just("phonon_rates"),
                          st.sampled_from(sorted(ARRAY_ENTRY_POINTS))),
           args=st.lists(ARRAYS, min_size=3, max_size=3),
           transition=TRANSITIONS)
    @example(name="phonon_rates", args=[100.0, 5.0, [1.0, 2.0]], transition="c")
    @example(name="linewidth_breakdown PbV", args=[5.0, 0.0, 0.0], transition=1)
    @example(name="linewidth_c PbV", args=[{}, 0.0, 0.0], transition="c")
    @example(name="phonon_rates", args=[100.0, 5.0, 10 ** 400], transition="c")
    @settings(max_examples=400, deadline=None)
    def test_array_entry_points(self, name, args, transition):
        # scalars, lists and arrays of any floats; any transition
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = ARRAY_ENTRY_POINTS[name](args, transition)
            except ValueError:
                return
        assert_finite(name, result)


def _field(low, high, other=st.floats()):
    """A float in [low, high] three times in four, else a value of other
    (any float): without the first, few emitters pass their own checks."""
    return st.integers(0, 3).flatmap(
        lambda k: st.floats(low, high) if k else other)


# the numeric fields of an emitter, at the presets' scale or anywhere
EMITTER_FIELDS = st.fixed_dictionaries({
    "f_gs": _field(1.0, 1e4), "f_es": _field(1.0, 1e4),
    "gamma0": _field(1.0, 200.0), "alpha_gs": _field(0.0, 1e-7),
    "alpha_es": _field(0.0, 1e-7), "gamma_others": _field(-100.0, 100.0)})

# what is not a real scalar: None, text, a sequence, an array, a complex
NOT_REAL = st.one_of(st.none(), st.text(max_size=3),
                     st.lists(st.floats(), max_size=2),
                     st.lists(st.floats(), min_size=1, max_size=2).map(np.array),
                     st.complex_numbers())


class TestFuzzEmitterEntryPoints:
    @given(fields=EMITTER_FIELDS,
           ratio=_field(1.0, 3.0, st.one_of(st.floats(), NOT_REAL)))
    @example(fields=dict(f_gs=3870.0, f_es=6920.0, gamma0=36.2, alpha_gs=7.51e-9,
                         alpha_es=7.51e-9, gamma_others=2.7), ratio=None)
    @example(fields=dict(f_gs=3870.0, f_es=6920.0, gamma0=36.2, alpha_gs=7.51e-9,
                         alpha_es=7.51e-9, gamma_others=2.7), ratio=[1.2])
    @settings(max_examples=300, deadline=None)
    def test_finite_result_or_value_error(self, fields, ratio):
        # linewidth_difference and temperature_threshold of any emitter that
        # passes its checks, with any ratio: a finite difference >= 0, a
        # threshold >= 0 (inf where it is never reached) or a ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", NegativeLinewidthWarning)
            try:
                p = g.EmitterParams("fuzz", **fields)
            except ValueError:
                return
            try:
                difference = g.linewidth_difference(p)
            except ValueError:
                difference = 0.0
            try:
                threshold = g.temperature_threshold(p, ratio)
            except ValueError:
                threshold = 0.0
        assert type(difference) is float and 0.0 <= difference < math.inf, p
        assert type(threshold) is float and threshold >= 0.0, (p, ratio)


def assert_finite(name, result):
    """Every number of result (a dataclass's too) is finite."""
    values = [v for v in vars(result).values()
              if not isinstance(v, (str, tuple))] \
        if dataclasses.is_dataclass(result) else [result]
    assert all(np.isfinite(v).all() for v in values), (name, result)
