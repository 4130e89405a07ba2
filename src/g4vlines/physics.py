"""Single-phonon relaxation model for the optical lines of group-IV centers.

The C- and D-transitions share the transform limit and residual broadening;
they differ through the ground-state phonon terms: the C-line picks up
phonon *absorption* across the ground-state splitting, the D-line phonon
*emission*, so the D-line is broader by alpha~ * f_gs^3 at any temperature.

Every single-phonon term alpha~ * f^3 * n(f, T), here and in the fits,
comes from ``_phonon_mhz``, which raises a ValueError naming a term that
an input at the edge of the float range makes infinite or NaN.

All functions are pure and accept scalars or numpy arrays (broadcasting),
except ``transform_limit``, ``lifetime_from_linewidth`` and
``temperature_threshold``, which take scalars only. Frequencies in GHz,
temperatures in K, linewidths in MHz.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _checks
from .constants import H_OVER_KB_K_PER_GHZ
from .emitters import EmitterParams, lifetime_from_linewidth, transform_limit

__all__ = [
    "bose_occupation", "phonon_rates", "PhononRates",
    "linewidth_c", "linewidth_d", "linewidth_difference",
    "transform_limit", "lifetime_from_linewidth",
    "temperature_threshold", "lorentzian",
    "linewidth_breakdown", "LinewidthBreakdown",
    "NegativeLinewidthWarning", "VALIDITY_TEMP_LIMIT_K",
]

# Above this temperature the single-phonon picture starts to miss
# higher-order electron-phonon contributions; results are tagged.
VALIDITY_TEMP_LIMIT_K = 20.0

FLAG_BEYOND_VALIDITY = "beyond_single_phonon_validity"
FLAG_NEGATIVE_TOTAL = "negative_total_linewidth"


class NegativeLinewidthWarning(UserWarning):
    """A negative gamma_others drove a total linewidth below zero."""


def _scalar_like(value, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


def _occupation(f_ghz, temp_k):
    """n(f, T) as an array, not checked for finiteness: inf where it
    overflows, and NaN at T = 0 where h f / kB underflows to 0 (0/0)."""
    f = _checks.floats(f_ghz, "f_ghz")
    T = _checks.floats(temp_k, "temp_k")
    _checks.finite(f_ghz=f, temp_k=T)
    _checks.positive(f_ghz=f)
    _checks.non_negative(temp_k=T)
    T = np.abs(T)  # -0.0 as +0.0: h f / kB T = -inf would give n = -1

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = H_OVER_KB_K_PER_GHZ * f / T          # T = 0 -> inf -> n = 0
        return np.where(x > 350.0,
                        np.exp(-x),
                        1.0 / np.expm1(np.minimum(x, 360.0)))


def bose_occupation(f_ghz, temp_k):
    """Mean thermal phonon number n(f, T) = 1/(exp(h f / kB T) - 1).

    Exactly 0 at T = 0. Overflow-safe for arbitrarily large h f / kB T
    (underflows smoothly to 0) and accurate for arbitrarily small exponents
    (expm1 keeps full precision where the naive form would cancel). A
    ValueError names an n that overflows (h f / kB T below about 1e-308).

    Parameters
    ----------
    f_ghz : float or array
        Phonon frequency in GHz (ordinary frequency), > 0.
    temp_k : float or array
        Temperature in K, finite and >= 0.
    """
    n = _occupation(f_ghz, temp_k)
    n = np.where(np.asarray(temp_k) == 0, 0.0, n)  # also where h f underflows
    _checks.finite(**{"occupation n(f, T)": n})
    return _scalar_like(n, f_ghz, temp_k)


@dataclass(frozen=True)
class PhononRates:
    """Single-phonon absorption/emission rates across a splitting, in MHz.

    gamma_down - gamma_up = alpha * f^3 exactly, independent of temperature,
    and gamma_up/gamma_down = exp(-h f / kB T) (detailed balance).
    """

    gamma_up: float
    gamma_down: float


def _phonon_mhz(f_ghz, temp_k, alpha, emission=False, *, name):
    """alpha * f^3 * n (absorption) or alpha * f^3 * (n + 1) (emission), MHz.

    ``alpha`` must be finite and >= 0. A ValueError names the term ``name``
    when it is infinite or NaN (f^3 or n(f, T) overflowing, or inf * 0).
    """
    a = _checks.floats(alpha, "alpha")
    _checks.finite(alpha=a)
    _checks.non_negative(alpha=a)
    with np.errstate(over="ignore", invalid="ignore"):
        n = _occupation(f_ghz, temp_k)  # a NaN or inf n makes the term NaN or inf
        if emission:
            n = n + 1.0
        term = a * _checks.floats(f_ghz, "f_ghz") ** 3 * 1e3 * n
    _checks.finite(**{name: term})
    return term


def _terms(p: EmitterParams, temp_k, transition):
    """(gs, es, total) in MHz: the D-line takes ground-state phonon emission.

    A ValueError names a term, or the total, that is infinite or NaN."""
    gs = _phonon_mhz(p.f_gs, temp_k, p.alpha_gs, emission=transition == "d",
                     name="gs_phonon_mhz")
    es = _phonon_mhz(p.f_es, temp_k, p.alpha_es, name="es_phonon_mhz")
    with np.errstate(over="ignore", invalid="ignore"):
        total = p.gamma0 + p.gamma_others + gs + es
    _checks.finite(total_mhz=total)
    return gs, es, total


def phonon_rates(f_split_ghz, temp_k, alpha):
    """Rates for phonon absorption (up) and emission (down) in MHz.

    ``alpha`` is the reduced coupling (GHz^-2): the rates are
    alpha * f^3 * n and alpha * f^3 * (n + 1), converted GHz -> MHz.
    """
    up = _phonon_mhz(f_split_ghz, temp_k, alpha, name="gamma_up")
    down = _phonon_mhz(f_split_ghz, temp_k, alpha, emission=True,
                       name="gamma_down")
    if np.ndim(up) == 0:
        return PhononRates(float(up), float(down))
    return PhononRates(up, down)


def _linewidth(p: EmitterParams, temp_k, transition):
    _checks.record(p, "p", EmitterParams)
    total = _terms(p, temp_k, transition)[2]
    if np.any(np.asarray(total) < 0):
        _warn_negative(p, transition, stacklevel=4)
    return _scalar_like(total, temp_k)


def _warn_negative(p: EmitterParams, transition, stacklevel):
    warnings.warn(
        f"total {transition.upper()}-linewidth negative for {p.name} "
        f"(gamma_others = {p.gamma_others} MHz)",
        NegativeLinewidthWarning, stacklevel=stacklevel)


def linewidth_c(p: EmitterParams, temp_k):
    """FWHM of the C-transition (MHz) at temperature temp_k.

    gamma0 + gamma_others + phonon absorption in both manifolds.
    """
    return _linewidth(p, temp_k, "c")


def linewidth_d(p: EmitterParams, temp_k):
    """FWHM of the D-transition (MHz): ground-state term is phonon *emission*."""
    return _linewidth(p, temp_k, "d")


def linewidth_difference(p: EmitterParams) -> float:
    """Temperature-independent D-C linewidth difference alpha~ * f_gs^3, MHz."""
    _checks.record(p, "p", EmitterParams)
    return float(_phonon_mhz(p.f_gs, 0.0, p.alpha_gs, emission=True,
                             name="linewidth_difference"))


def temperature_threshold(p: EmitterParams, ratio: float = 1.2) -> float:
    """Temperature at which the C-linewidth reaches ratio * gamma0.

    Solved by bisection to 1 mK absolute, or to adjacent floats above
    about 8.8e12 K; the upper bracket starts at 400 K and doubles until it
    encloses the root. Returns 0.0 when the criterion is already violated
    at T = 0 (gamma_others >= (ratio-1) * gamma0) and ``math.inf`` when it
    can never be violated (both phonon couplings zero and gamma_others
    below the margin). Warns once, as ``linewidth_c`` would, when the
    C-linewidth at T = 0, the smallest the search evaluates, is negative.
    A ValueError names a ratio that is not a scalar or not a number, not
    above 1 or whose target ratio * gamma0 is not finite.
    """
    _checks.record(p, "p", EmitterParams)
    # a Python float: ratio * gamma0 overflows to inf without a numpy warning
    ratio = _checks.number(ratio, "ratio")
    if not ratio > 1.0:  # also rejects NaN
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    target = ratio * p.gamma0
    if not math.isfinite(target):
        raise ValueError(f"ratio * gamma0 must be finite, got ratio = {ratio} "
                         f"and gamma0 = {p.gamma0} MHz")

    def linewidth(T):  # linewidth_c(p, T) without its warning
        return float(_terms(p, T, "c")[2])

    total_0 = linewidth(0.0)
    if total_0 < 0.0:  # the phonon terms are >= 0, and 0 at T = 0
        _warn_negative(p, "c", stacklevel=3)
    if total_0 >= target:
        return 0.0
    if p.alpha_gs == p.alpha_es == 0.0:
        return math.inf  # linewidth is temperature-independent

    hi = 400.0
    while linewidth(hi) < target:
        hi *= 2.0
        if not math.isfinite(hi):
            return math.inf
    lo = 0.0
    while hi - lo > 1e-3 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if linewidth(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lorentzian(detuning_mhz, center_mhz, fwhm_mhz, amplitude, offset):
    """Lorentzian line profile: offset + amplitude at the peak.

    offset + amplitude * (w/2)^2 / ((detuning - center)^2 + (w/2)^2)

    Where the numerator or the denominator overflows, or the denominator
    underflows to 0, the profile is taken as
    offset + amplitude / (1 + ((detuning - center) / (w/2))^2) instead, and
    as offset + amplitude at detuning = center, also where w/2 rounds to 0.
    A ValueError names an argument that is not a finite number, and the
    profile where it leaves the float range (offset + amplitude beyond
    1.8e308).
    """
    _checks.finite(detuning_mhz=detuning_mhz, center_mhz=center_mhz,
                   fwhm_mhz=fwhm_mhz, amplitude=amplitude, offset=offset)
    _checks.positive(fwhm_mhz=fwhm_mhz)
    _checks.non_negative(amplitude=amplitude, offset=offset)
    value = _profile(detuning_mhz, center_mhz, fwhm_mhz, amplitude, offset)
    if not np.isfinite(value).all():
        raise ValueError("lorentzian profile must be finite: offset + amplitude "
                         "leaves the float range")
    # the result has the broadcast shape of the arguments: 0-d if all are
    return float(value) if value.ndim == 0 else value


def _profile(detuning, center, fwhm, amplitude, offset):
    """``lorentzian``'s profile as an array, of arguments it would accept,
    with no check: the scan generator's were checked where they entered."""
    hwhm = _checks.floats(fwhm, "fwhm_mhz") / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        d = _checks.floats(detuning, "detuning_mhz") - center  # inf: the tail
        hwhm2 = hwhm ** 2
        num = amplitude * hwhm2
        den = d * d + hwhm2
        value = offset + num / den
    # den is in [0, inf], never NaN: one test on its range and num's first,
    # none on an empty den; building the mask on every scan took 16.5 us
    # against 10 us (151 points)
    if den.size and not (0.0 < den.min() and den.max() < math.inf
                         and np.isfinite(num).all()):
        out_of_range = ~(np.isfinite(num) & np.isfinite(den)) | (den == 0)
        # (d / hwhm)^2 = inf, also d / 0, gives the 0 tail; d = 0 the peak
        with np.errstate(over="ignore", divide="ignore"):
            ratio = d / np.where(d == 0, 1.0, hwhm)
            value = np.where(out_of_range,
                             amplitude / (1.0 + ratio ** 2) + offset, value)
    return value


@dataclass(frozen=True)
class LinewidthBreakdown:
    """Per-term decomposition of a predicted linewidth, with validity flags."""

    emitter: str
    transition: str
    temperature_k: float
    gamma0_mhz: float
    gamma_others_mhz: float
    gs_phonon_mhz: float
    es_phonon_mhz: float
    total_mhz: float
    flags: tuple[str, ...]


def linewidth_breakdown(p: EmitterParams, temp_k,
                        transition: str = "c") -> LinewidthBreakdown:
    """Decompose linewidth_c / linewidth_d into its four terms.

    Queries above 20 K are answered but flagged beyond_single_phonon_validity.
    For an array of temperatures the terms are arrays, and a flag is set
    when any element qualifies.
    """
    _checks.record(p, "p", EmitterParams)
    if not isinstance(transition, str) or transition.lower() not in ("c", "d"):
        raise ValueError(f"transition must be 'c' or 'd', got {transition!r}")
    transition = transition.lower()
    gs, es, total = _terms(p, temp_k, transition)
    flags = []
    if np.any(np.asarray(temp_k) > VALIDITY_TEMP_LIMIT_K):
        flags.append(FLAG_BEYOND_VALIDITY)
    if np.any(np.asarray(total) < 0):
        flags.append(FLAG_NEGATIVE_TOTAL)
    return LinewidthBreakdown(
        emitter=p.name, transition=transition,
        temperature_k=_scalar_like(_checks.floats(temp_k, "temp_k"), temp_k),
        gamma0_mhz=p.gamma0, gamma_others_mhz=p.gamma_others,
        gs_phonon_mhz=_scalar_like(gs, temp_k), es_phonon_mhz=_scalar_like(es, temp_k),
        total_mhz=_scalar_like(total, temp_k), flags=tuple(flags))
