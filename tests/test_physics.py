"""Closed-form model: occupation numbers, rates, linewidths, thresholds.

Reference values marked "oracle:" were computed beforehand with mpmath at
40 digits from the exact SI constants (see the expressions in the
assertions) and are frozen here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import g4vlines as g
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

    @pytest.mark.parametrize("func", [g.transform_limit, g.lifetime_from_linewidth])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, func, value):
        with pytest.raises(ValueError):
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

    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            g.temperature_threshold(PBV, ratio=1.0)

    def test_nan_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio must exceed 1"):
            g.temperature_threshold(PBV, ratio=math.nan)


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
