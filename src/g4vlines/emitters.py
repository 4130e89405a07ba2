"""Emitter parameter sets for the group-IV vacancy centers in diamond.

Conventions used throughout the package:

* splittings are ordinary frequencies in GHz,
* linewidths are FWHM values in MHz,
* lifetimes are in ns,
* phonon couplings are the reduced coupling alpha~ = (2*pi)^3 * alpha in
  GHz^-2, chosen so that a single-phonon rate expressed as an ordinary
  frequency is simply alpha~ * f^3 * n(f, T) (in GHz for f in GHz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

__all__ = ["EmitterParams", "EmitterRegistry", "REGISTRY",
           "transform_limit", "lifetime_from_linewidth"]

# gamma0 and lifetime must agree with gamma0 = 1e3 / (2 pi lifetime) to
# this relative tolerance when both are given.
LIFETIME_CONSISTENCY_RTOL = 0.01


def _require_finite(**values) -> None:
    """ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def transform_limit(lifetime_ns: float) -> float:
    """Transform-limited FWHM (MHz) of a finite radiative lifetime (ns)."""
    if not lifetime_ns > 0:
        raise ValueError(f"lifetime must be positive, got {lifetime_ns}")
    _require_finite(lifetime=lifetime_ns)
    return 1e3 / (2.0 * math.pi * lifetime_ns)


def lifetime_from_linewidth(fwhm_mhz: float) -> float:
    """Radiative lifetime (ns) implied by a finite transform-limited FWHM (MHz)."""
    if not fwhm_mhz > 0:
        raise ValueError(f"fwhm must be positive, got {fwhm_mhz}")
    _require_finite(fwhm=fwhm_mhz)
    return 1e3 / (2.0 * math.pi * fwhm_mhz)


@dataclass(frozen=True)
class EmitterParams:
    """Physical constants of one color center.

    Every numeric field must be finite; a ValueError names the first that
    is not.

    Parameters
    ----------
    name : str
        Identifier, e.g. "PbV".
    f_gs, f_es : float
        Ground- and excited-state orbital splittings (GHz).
    lifetime : float, optional
        Radiative excited-state lifetime (ns).
    gamma0 : float, optional
        Transform-limited FWHM linewidth (MHz). At least one of
        ``lifetime``/``gamma0`` must be given; the missing one is derived
        from gamma0 = 1e3/(2 pi lifetime). If both are given they must be
        consistent to 1% relative.
    alpha_gs, alpha_es : float
        Reduced single-phonon couplings (GHz^-2) of the ground and excited
        state splittings.
    gamma_others : float
        Residual broadening (MHz) beyond the transform limit and the phonon
        terms; may be negative (an over-estimated gamma0 shows up this way).
    dw_fraction : float, optional
        Fraction of the emission concentrated in the zero-phonon lines.
        Metadata only; not used in any computation.
    """

    name: str
    f_gs: float
    f_es: float
    lifetime: float | None = None
    gamma0: float | None = None
    alpha_gs: float = 0.0
    alpha_es: float = 0.0
    gamma_others: float = 0.0
    dw_fraction: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("emitter name must be non-empty")
        _require_finite(**{k: v for k, v in asdict(self).items()
                           if k != "name" and v is not None})
        if self.f_gs <= 0:
            raise ValueError(f"f_gs must be positive, got {self.f_gs}")
        if self.f_es <= 0:
            raise ValueError(f"f_es must be positive, got {self.f_es}")
        if self.alpha_gs < 0:
            raise ValueError(f"alpha_gs must be >= 0, got {self.alpha_gs}")
        if self.alpha_es < 0:
            raise ValueError(f"alpha_es must be >= 0, got {self.alpha_es}")
        if self.dw_fraction is not None and not 0.0 <= self.dw_fraction <= 1.0:
            raise ValueError(f"dw_fraction must be in [0, 1], got {self.dw_fraction}")

        if self.lifetime is None and self.gamma0 is None:
            raise ValueError("one of lifetime or gamma0 is required")
        if self.gamma0 is not None and self.gamma0 <= 0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")

        # transform_limit rejects a lifetime <= 0
        if self.lifetime is None:
            object.__setattr__(self, "lifetime", lifetime_from_linewidth(self.gamma0))
        elif self.gamma0 is None:
            object.__setattr__(self, "gamma0", transform_limit(self.lifetime))
        else:
            g0_from_tau = transform_limit(self.lifetime)
            rel = abs(self.gamma0 - g0_from_tau) / g0_from_tau
            if rel > LIFETIME_CONSISTENCY_RTOL:
                raise ValueError(
                    f"gamma0 ({self.gamma0} MHz) and lifetime ({self.lifetime} ns) "
                    f"disagree: 1e3/(2 pi lifetime) = {g0_from_tau:.4g} MHz "
                    f"({rel:.1%} off, > {LIFETIME_CONSISTENCY_RTOL:.0%})"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EmitterParams":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown emitter fields: {sorted(unknown)}")
        missing = {"name", "f_gs", "f_es"} - set(d)
        if missing:
            raise ValueError(f"missing required emitter fields: {sorted(missing)}")
        return cls(**d)


# Reduced ground-state coupling fitted to the GeV/PbV linewidth differences;
# the excited-state coupling of SiV is roughly double its ground-state value.
ALPHA_GS = 7.51e-9
ALPHA_ES_SIV = 1.75e-8

_BUILTINS = (
    EmitterParams("SiV", f_gs=50.0, f_es=260.0, gamma0=92.5,
                  alpha_gs=ALPHA_GS, alpha_es=ALPHA_ES_SIV, gamma_others=0.0),
    EmitterParams("GeV", f_gs=200.0, f_es=1120.0, lifetime=5.5, gamma0=28.9,
                  alpha_gs=ALPHA_GS, alpha_es=ALPHA_GS, gamma_others=0.0),
    EmitterParams("SnV", f_gs=821.0, f_es=3000.0, gamma0=30.6,
                  alpha_gs=ALPHA_GS, alpha_es=ALPHA_GS, gamma_others=-1.8),
    EmitterParams("PbV", f_gs=3870.0, f_es=6920.0, lifetime=4.4, gamma0=36.2,
                  alpha_gs=ALPHA_GS, alpha_es=ALPHA_GS, gamma_others=2.7,
                  dw_fraction=0.30),
)

# Provenance notes surfaced by `g4vlines emitters show`.
PRESET_NOTES = {
    "SiV": "gamma_others assumed 0 (no fitted value available); "
           "alpha_es is about twice the ground-state coupling",
    "GeV": "gamma_others assumed 0 (no fitted value available); "
           "power broadening, when present, is absorbed into gamma_others",
    "SnV": "gamma_others = -1.8 MHz from the temperature-series fit "
           "(negative: the reference lifetime likely underestimates tau)",
    "PbV": "gamma_others = 2.7 MHz from the temperature-series fit",
}


class EmitterRegistry:
    """Name -> EmitterParams lookup, case-insensitive, builtin + user entries."""

    def __init__(self, builtin=_BUILTINS):
        self._builtin = {p.name.lower(): p for p in builtin}
        self._user: dict[str, EmitterParams] = {}

    def get(self, name: str) -> EmitterParams:
        key = name.lower()
        if key in self._builtin:
            return self._builtin[key]
        if key in self._user:
            return self._user[key]
        raise KeyError(f"unknown emitter {name!r}; known: {', '.join(self.names())}")

    def add(self, params: EmitterParams) -> None:
        key = params.name.lower()
        if key in self._builtin:
            raise ValueError(f"cannot shadow builtin emitter {params.name!r}")
        if key in self._user:
            raise ValueError(f"emitter {params.name!r} already registered")
        self._user[key] = params

    def names(self) -> list[str]:
        return [p.name for p in self._builtin.values()] + \
               [p.name for p in self._user.values()]

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._builtin or key in self._user


REGISTRY = EmitterRegistry()
