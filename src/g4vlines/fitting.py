"""Weighted nonlinear least-squares fits for spectra and decay traces.

All fits run on a small damped Gauss-Newton optimizer (Levenberg-Marquardt
damping schedule: start 1e-3, x10 on a rejected step, /10 on an accepted
one). The derivatives are taken once per accepted point and reused by the
attempts from it; every attempt, accepted or not, counts as an iteration,
and a run of rejections that drives the damping above 1e12 ends the fit.
Count data is weighted with Poisson errors sigma^2 = max(count, 1);
parameter uncertainties come from the Gauss-Newton covariance (J^T J)^-1 of
the weighted Jacobian at the optimum, reported only when that matrix is
positive-definite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import physics
from .emitters import EmitterParams
from .records import DecayTrace, FitReport, Spectrum

__all__ = [
    "fit_lorentzian", "fit_decay", "fit_cubic_alpha", "fit_temperature_series",
    "data_digest",
]

MAX_ITERATIONS = 200
REL_STEP_TOL = 1e-8
LAMBDA0 = 1e-3


def data_digest(*arrays) -> str:
    """SHA-256 of the little-endian float64 bytes of the given columns."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class _LMResult:
    params: np.ndarray
    cov: np.ndarray | None
    n_iterations: int
    converged: bool
    cost: float


def _gn_covariance(jac: np.ndarray) -> np.ndarray | None:
    hess = jac.T @ jac
    try:
        np.linalg.cholesky(hess)  # positive-definite check
        return np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None


def _lm_fit(model, jac, x, y, sigma, p0, *, guard=None,
            max_iter=MAX_ITERATIONS) -> _LMResult:
    """Minimize sum(((y - model(x, p)) / sigma)^2) over p."""
    p = np.array(p0, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)

    def residual(params):
        return (y - model(x, params)) * w

    r = residual(p)
    cost = float(r @ r)
    lam = LAMBDA0
    converged = False
    n_iter = 0
    jr = None  # derivatives of the current point, once taken
    for n_iter in range(1, max_iter + 1):
        if jr is None:
            jr = -jac(x, p) * w[:, None]     # d residual / d p
            grad = jr.T @ r
            hess = jr.T @ jr
            damp = hess.diagonal().copy()
            damp[damp <= 0] = 1.0
        damped = hess.copy()
        damped.flat[::p.size + 1] += lam * damp
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            step = None
        trial = None if step is None else p + step
        if trial is not None and (guard is None or guard(trial)):
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                rel_change = np.max(np.abs(step) / (np.abs(p) + 1e-300))
                p, r, cost, jr = trial, r_trial, cost_trial, None
                lam = max(lam / 10.0, 1e-14)
                if rel_change < REL_STEP_TOL:
                    converged = True
                    break
                continue
        # the one rejection: singular solve, refused by guard, or higher cost
        lam *= 10.0
        if lam > 1e12:
            break

    if jr is None:
        jr = -jac(x, p) * w[:, None]
    return _LMResult(params=p, cov=_gn_covariance(jr), n_iterations=n_iter,
                     converged=converged, cost=cost)


def _poisson_sigma(counts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(counts, 1.0))


def _report(model_name, names, units, res: _LMResult, n_points, *,
            warnings=(), derived=None, digest="") -> FitReport:
    params = {k: float(v) for k, v in zip(names, res.params)}
    std_errors = None
    if res.cov is not None:
        std_errors = {k: float(np.sqrt(res.cov[i, i])) for i, k in enumerate(names)}
    dof = max(n_points - len(names), 1)
    return FitReport(
        model=model_name, params=params, units=dict(units),
        std_errors=std_errors, reduced_chi2=res.cost / dof,
        n_iterations=res.n_iterations, converged=res.converged,
        warnings=list(warnings), derived=derived or {}, input_digest=digest)


# ---------------------------------------------------------------------------
# Lorentzian line fit

def lorentzian_model(x, p):
    c, w, a, b = p
    h2 = (w / 2.0) ** 2
    return b + a * h2 / ((x - c) ** 2 + h2)


def lorentzian_jacobian(x, p):
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


def _halfmax_width(x, y, i_peak, level):
    """Interpolated width of y around index i_peak at the given level."""
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


def fit_lorentzian(spectrum: Spectrum, *, max_iter=MAX_ITERATIONS) -> FitReport:
    """Fit center/fwhm/amplitude/offset to a PLE scan with Poisson weights.

    Raises ValueError on degenerate data (too short, no peak); a fit that
    fails to converge is returned with ``converged=False``, never raised.
    """
    if len(spectrum) < 8:
        raise ValueError(f"need at least 8 points to fit, got {len(spectrum)}")
    x = spectrum.detunings
    y = spectrum.counts
    if np.ptp(y) == 0:
        raise ValueError("no peak: all counts are equal")

    warn: list[str] = []
    offset0 = float(np.median(y))
    i_peak = int(np.argmax(y))
    amp0 = float(y[i_peak] - offset0)
    if y[i_peak] <= 1.2 * offset0:
        warn.append("no prominent peak (max <= 1.2 x median counts)")
    fwhm0 = _halfmax_width(x, y, i_peak, offset0 + amp0 / 2.0)
    p0 = [float(x[i_peak]), fwhm0, amp0, offset0]

    res = _lm_fit(lorentzian_model, lorentzian_jacobian, x, y,
                  _poisson_sigma(y), p0, max_iter=max_iter,
                  guard=lambda p: p[1] != 0.0)
    res.params[1] = abs(res.params[1])  # model is even in fwhm
    return _report(
        "lorentzian", ("center", "fwhm", "amplitude", "offset"),
        {"center": "MHz", "fwhm": "MHz", "amplitude": "counts", "offset": "counts"},
        res, len(spectrum), warnings=warn,
        digest=data_digest(x, y))


# ---------------------------------------------------------------------------
# Exponential decay fits

def exp1_model(t, p):
    a, tau, b = p
    return a * np.exp(-t / tau) + b


def exp1_jacobian(t, p):
    a, tau, b = p
    e = np.exp(-t / tau)
    out = np.empty((t.size, 3))
    out[:, 0] = e
    out[:, 1] = a * t / tau ** 2 * e
    out[:, 2] = 1.0
    return out


def exp2_model(t, p):
    a1, t1, a2, t2, b = p
    return a1 * np.exp(-t / t1) + a2 * np.exp(-t / t2) + b


def exp2_jacobian(t, p):
    a1, t1, a2, t2, b = p
    e1 = np.exp(-t / t1)
    e2 = np.exp(-t / t2)
    out = np.empty((t.size, 5))
    out[:, 0] = e1
    out[:, 1] = a1 * t / t1 ** 2 * e1
    out[:, 2] = e2
    out[:, 3] = a2 * t / t2 ** 2 * e2
    out[:, 4] = 1.0
    return out


def _decay_inits(t, y):
    """Rough (amplitude, tau, offset) from the windowed trace."""
    n_tail = max(t.size // 10, 1)
    b0 = float(np.mean(y[-n_tail:]))
    a_win = max(float(y[0] - b0), 1e-12)
    # first crossing below b + A/e gives the time constant scale
    below = np.nonzero(y < b0 + a_win / np.e)[0]
    tau0 = float(t[below[0]] - t[0]) if below.size else float(t[-1] - t[0])
    tau0 = max(tau0, float(t[1] - t[0]))
    return a_win, tau0, b0


DEGENERACY_RATIO = 1.5


def fit_decay(trace: DecayTrace, model: str = "exp1", *,
              start_index: int | None = None,
              max_iter=MAX_ITERATIONS) -> FitReport:
    """Fit a (bi)exponential to a decay trace from its maximum onward.

    model "exp1": A exp(-t/tau) + b. model "exp2": two components, reported
    sorted so tau_fast < tau_slow, with a degeneracy warning when
    tau_slow/tau_fast < 1.5. The derived transform limit uses tau (exp1) or
    tau_slow (exp2). Amplitudes refer to t = 0 of the trace.
    """
    if model not in ("exp1", "exp2"):
        raise ValueError(f"model must be 'exp1' or 'exp2', got {model!r}")
    if len(trace) < 8:
        raise ValueError(f"need at least 8 bins to fit, got {len(trace)}")
    i0 = int(np.argmax(trace.counts)) if start_index is None else int(start_index)
    if not 0 <= i0 < len(trace) - 4:
        raise ValueError(f"fit window start {i0} leaves too few bins")
    t = trace.bin_centers[i0:]
    y = trace.counts[i0:]
    if np.ptp(y) == 0:
        raise ValueError("no decay: counts are constant over the fit window")

    a0, tau0, b0 = _decay_inits(t, y)
    # amplitudes are referenced to t = 0, so undo the window offset
    sigma = _poisson_sigma(y)
    warn: list[str] = []
    if model == "exp1":
        p0 = [a0 * np.exp(min(t[0] / tau0, 50.0)), tau0, b0]
        res = _lm_fit(exp1_model, exp1_jacobian, t, y, sigma, p0,
                      guard=lambda p: p[1] > 0, max_iter=max_iter)
        names = ("amplitude", "tau", "offset")
        units = {"amplitude": "counts", "tau": "ns", "offset": "counts"}
        tau_radiative = float(res.params[1])
    else:
        tau_f0 = tau0 / 5.0
        p0 = [0.5 * a0 * np.exp(min(t[0] / tau_f0, 50.0)), tau_f0,
              0.5 * a0 * np.exp(min(t[0] / tau0, 50.0)), tau0, b0]
        res = _lm_fit(exp2_model, exp2_jacobian, t, y, sigma, p0,
                      guard=lambda p: p[1] > 0 and p[3] > 0, max_iter=max_iter)
        if res.params[1] > res.params[3]:
            res.params = res.params[[2, 3, 0, 1, 4]]
            if res.cov is not None:
                order = [2, 3, 0, 1, 4]
                res.cov = res.cov[np.ix_(order, order)]
        names = ("amp_fast", "tau_fast", "amp_slow", "tau_slow", "offset")
        units = {"amp_fast": "counts", "tau_fast": "ns", "amp_slow": "counts",
                 "tau_slow": "ns", "offset": "counts"}
        tau_radiative = float(res.params[3])
        if res.params[3] / res.params[1] < DEGENERACY_RATIO:
            warn.append("components degenerate (tau_slow/tau_fast < 1.5)")

    derived = {"transform_limit_mhz": physics.transform_limit(tau_radiative)}
    return _report(model, names, units, res, t.size, warnings=warn,
                   derived=derived, digest=data_digest(trace.bin_centers, trace.counts))


# ---------------------------------------------------------------------------
# Cubic law for the D-C linewidth difference

def fit_cubic_alpha(points, weights="delta") -> FitReport:
    """Weighted least squares of delta_gamma = alpha * f^3 through the origin.

    ``points`` is a sequence of (f_gs_ghz, delta_gamma_mhz) pairs.
    weights: "delta" (1/delta_gamma^2, the default), "equal", or an explicit
    array of weights. The report predicts the differences for the SiV and
    SnV splittings from the fitted coupling.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no data points given")
    if pts.shape[1] != 2:
        raise ValueError("points must be (f_gs_ghz, delta_gamma_mhz) pairs")
    f = pts[:, 0]
    dg = pts[:, 1]
    if np.any(f <= 0):
        raise ValueError("splittings must be positive")
    if np.any(dg <= 0):
        raise ValueError("linewidth differences must be positive")

    if isinstance(weights, str):
        if weights == "delta":
            w = 1.0 / dg ** 2
        elif weights == "equal":
            w = np.ones_like(dg)
        else:
            raise ValueError(f"unknown weights mode {weights!r}")
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != dg.shape or np.any(w <= 0):
            raise ValueError("explicit weights must be positive, one per point")

    regressor = f ** 3 * 1e3  # MHz per unit alpha
    denom = float(np.sum(w * regressor ** 2))
    alpha = float(np.sum(w * dg * regressor)) / denom
    resid = (dg - alpha * regressor) * np.sqrt(w)
    cost = float(resid @ resid)

    res = _LMResult(params=np.array([alpha]),
                    cov=np.array([[1.0 / denom]]),
                    n_iterations=1, converged=True, cost=cost)
    derived = {
        "pred_delta_gamma_siv_mhz": alpha * 50.0 ** 3 * 1e3,
        "pred_delta_gamma_snv_mhz": alpha * 821.0 ** 3 * 1e3,
    }
    return _report("cubic_alpha", ("alpha",), {"alpha": "GHz^-2"},
                   res, len(dg), derived=derived, digest=data_digest(f, dg))


# ---------------------------------------------------------------------------
# Temperature series

def fit_temperature_series(points, emitter: EmitterParams,
                           free=("gamma_others",),
                           max_temp: float | None = None) -> FitReport:
    """Fit C-linewidth data Gamma(T) for gamma_others (and optionally alpha_gs).

    ``points`` is a sequence of (temperature_k, linewidth_mhz) pairs; gamma0
    and the remaining couplings are fixed from ``emitter``. Points above
    ``max_temp`` (K) are excluded when given, since the single-phonon model
    is only trusted at low temperature.
    """
    free = tuple(free)
    if free not in (("gamma_others",), ("gamma_others", "alpha_gs")):
        raise ValueError(
            "free must be ('gamma_others',) or ('gamma_others', 'alpha_gs')")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0 or pts.shape[1] != 2:
        raise ValueError("points must be (temperature_k, linewidth_mhz) pairs")
    if max_temp is not None:
        pts = pts[pts[:, 0] <= max_temp]
    temps = pts[:, 0]
    gammas = pts[:, 1]
    if temps.size < 2 or temps.size < len(free):
        raise ValueError(
            f"need at least max(2, n_free) points, got {temps.size}")
    if np.unique(temps).size != temps.size:
        raise ValueError("temperatures must be distinct")
    if np.any(temps < 0):
        raise ValueError("temperatures must be >= 0")

    # Bose factors are fixed per point, so the model is linear in both
    # free parameters; the optimizer converges in one accepted step.
    k_gs = physics._phonon_mhz(emitter.f_gs, temps, 1.0)
    base = emitter.gamma0 + physics._phonon_mhz(emitter.f_es, temps, emitter.alpha_es)

    jac_full = np.column_stack([np.ones_like(k_gs), k_gs])

    def model(T, p):
        alpha = p[1] if len(p) > 1 else emitter.alpha_gs
        return base + p[0] + alpha * k_gs

    def jacobian(T, p):
        return jac_full[:, :len(p)]

    p0 = [emitter.gamma_others, emitter.alpha_gs][:len(free)]
    guard = (lambda p: p[1] >= 0) if len(free) > 1 else None

    sigma = np.ones_like(gammas)
    res = _lm_fit(model, jacobian, temps, gammas, sigma, p0, guard=guard)
    warn: list[str] = []
    if res.params[0] < 0:
        warn.append("negative residual broadening")
    units = {"gamma_others": "MHz", "alpha_gs": "GHz^-2"}
    return _report("temp_series", free, {k: units[k] for k in free},
                   res, temps.size, warnings=warn,
                   digest=data_digest(temps, gammas))
