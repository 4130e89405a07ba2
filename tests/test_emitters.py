"""Emitter presets and registry behavior."""

import dataclasses
import math

import pytest

import g4vlines as g
from g4vlines.emitters import ALPHA_ES_SIV, ALPHA_GS


class TestPresets:
    def test_table_values(self):
        expected = {
            # name: (f_gs, f_es, gamma0)
            "SiV": (50.0, 260.0, 92.5),
            "GeV": (200.0, 1120.0, 28.9),
            "SnV": (821.0, 3000.0, 30.6),
            "PbV": (3870.0, 6920.0, 36.2),
        }
        for name, (f_gs, f_es, gamma0) in expected.items():
            p = g.REGISTRY.get(name)
            assert (p.f_gs, p.f_es, p.gamma0) == (f_gs, f_es, gamma0)

    def test_couplings(self):
        for name in ("GeV", "SnV", "PbV"):
            p = g.REGISTRY.get(name)
            assert p.alpha_gs == p.alpha_es == ALPHA_GS
        siv = g.REGISTRY.get("SiV")
        assert siv.alpha_gs == ALPHA_GS
        assert siv.alpha_es == ALPHA_ES_SIV

    def test_residual_broadening(self):
        assert g.REGISTRY.get("PbV").gamma_others == 2.7
        assert g.REGISTRY.get("SnV").gamma_others == -1.8
        assert g.REGISTRY.get("SiV").gamma_others == 0.0
        assert g.REGISTRY.get("GeV").gamma_others == 0.0

    def test_lifetimes(self):
        assert g.REGISTRY.get("PbV").lifetime == 4.4
        assert g.REGISTRY.get("GeV").lifetime == 5.5
        # derived exactly from gamma0 where no lifetime is quoted
        snv = g.REGISTRY.get("SnV")
        assert snv.lifetime == pytest.approx(1e3 / (2 * math.pi * 30.6), rel=1e-15)

    def test_dw_fraction_metadata(self):
        assert g.REGISTRY.get("PbV").dw_fraction == pytest.approx(0.30)
        assert g.REGISTRY.get("SnV").dw_fraction is None


class TestEmitterParams:
    def test_derives_gamma0_from_lifetime(self):
        p = g.EmitterParams("x", f_gs=100.0, f_es=300.0, lifetime=4.4)
        assert p.gamma0 == pytest.approx(36.1715779754, rel=1e-11)

    def test_consistency_enforced(self):
        with pytest.raises(ValueError, match="disagree"):
            g.EmitterParams("x", f_gs=100.0, f_es=300.0, lifetime=4.4, gamma0=50.0)

    def test_consistency_within_tolerance(self):
        # paper rounds 36.17 -> 36.2; that must be accepted
        g.EmitterParams("x", f_gs=100.0, f_es=300.0, lifetime=4.4, gamma0=36.2)

    def test_requires_lifetime_or_gamma0(self):
        with pytest.raises(ValueError):
            g.EmitterParams("x", f_gs=100.0, f_es=300.0)

    @pytest.mark.parametrize("kwargs", [
        dict(f_gs=-1.0, f_es=300.0, gamma0=30.0),
        dict(f_gs=100.0, f_es=0.0, gamma0=30.0),
        dict(f_gs=100.0, f_es=300.0, gamma0=-30.0),
        dict(f_gs=100.0, f_es=300.0, lifetime=-4.0),
        dict(f_gs=100.0, f_es=300.0, gamma0=30.0, alpha_gs=-1e-9),
        dict(f_gs=100.0, f_es=300.0, gamma0=30.0, alpha_es=-1e-9),
        dict(f_gs=100.0, f_es=300.0, gamma0=30.0, dw_fraction=1.5),
    ])
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError):
            g.EmitterParams("x", **kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "f_gs", "f_es", "lifetime", "gamma0", "alpha_gs", "alpha_es",
        "gamma_others", "dw_fraction"])
    def test_non_finite_field_named(self, field, value):
        kwargs = dict(f_gs=100.0, f_es=300.0, gamma0=30.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            g.EmitterParams("x", **kwargs)

    def test_infinite_lifetime_alone_rejected(self):
        # would otherwise derive gamma0 = 0.0
        with pytest.raises(ValueError, match="lifetime must be finite"):
            g.EmitterParams("x", f_gs=100.0, f_es=300.0, lifetime=math.inf)

    def test_immutable(self):
        p = g.REGISTRY.get("PbV")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.gamma0 = 50.0

    def test_dict_round_trip(self):
        p = g.REGISTRY.get("SnV")
        assert g.EmitterParams.from_dict(p.to_dict()) == p

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError, match="unknown"):
            g.EmitterParams.from_dict({"name": "x", "f_gs": 1.0, "f_es": 2.0,
                                       "gamma0": 30.0, "bogus": 1})
        with pytest.raises(ValueError, match="missing"):
            g.EmitterParams.from_dict({"name": "x", "gamma0": 30.0})


class TestRegistry:
    def test_case_insensitive_lookup(self):
        assert g.REGISTRY.get("pbv").name == "PbV"
        assert g.REGISTRY.get("SIV").name == "SiV"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            g.REGISTRY.get("NV")

    def test_user_entries(self):
        reg = g.EmitterRegistry()
        custom = g.EmitterParams("MyV", f_gs=500.0, f_es=1500.0, gamma0=40.0)
        reg.add(custom)
        assert reg.get("myv") is custom
        assert "MyV" in reg.names()
        with pytest.raises(ValueError):
            reg.add(custom)  # duplicate
        with pytest.raises(ValueError):
            reg.add(g.EmitterParams("pbv", f_gs=1.0, f_es=2.0, gamma0=30.0))

    def test_contains(self):
        assert "snv" in g.REGISTRY
        assert "XYZ" not in g.REGISTRY
