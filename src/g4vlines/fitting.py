"""Weighted nonlinear least-squares fits for spectra and decay traces.

All fits run on a small damped Gauss-Newton optimizer (Levenberg-Marquardt
damping schedule: start 1e-3, x10 on a rejected step, /10 on an accepted
one). The derivatives are taken once per accepted point and reused by the
attempts from it; every attempt, accepted or not, counts as an iteration,
and a run of rejections that drives the damping above 1e12 ends the fit.
The Lorentzian fit also takes the residual curvature term
S = sum_i r_i w_i Hessian(model_i) at each accepted point, and steps on
J^T J - S, the Hessian of the cost, where that matrix is finite and passes
the Cholesky test, and on J^T J elsewhere (Dennis, Gay & Welsch, ACM TOMS
7, 348 (1981)): a scan whose line switches off partway through leaves a
large residual, where Gauss-Newton steps converge only linearly. The
damping is lam * diag(J^T J) either way.
A step is rejected when the fit's guard refuses its trial parameters or
its cost is higher or NaN; a singular damped system solves to a NaN step,
rejected the same way. Count data is weighted with Poisson errors
sigma^2 = max(count, 1); parameter uncertainties come from the Gauss-Newton
covariance (J^T J)^-1 of the weighted Jacobian at the optimum, reported
only when that matrix is positive-definite and its variances are positive.
Every report is built by ``_report``, which rejects a value that is
infinite or NaN.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import physics
from .emitters import (REGISTRY, EmitterParams, _integral, _require_finite,
                       _scalar)
from .records import DecayTrace, FitReport, Spectrum

__all__ = [
    "fit_lorentzian", "fit_decay", "fit_cubic_alpha", "fit_temperature_series",
    "data_digest",
]

MAX_ITERATIONS = 200
# The largest max_iter a fit accepts: a fit whose step test never passes
# runs every iteration it is given (a noiseless decay: 0.18 s at this bound).
_MAX_ITER_LIMIT = 50 * MAX_ITERATIONS
REL_STEP_TOL = 1e-8
LAMBDA0 = 1e-3
# Data at the edge of the float range can make a start value, the cost or a
# parameter infinite or NaN, and a singular system solves to NaN. Those
# steps run under this error state; the result keeps the value, and
# ``_report`` names it.
_EDGE = dict(over="ignore", invalid="ignore", divide="ignore")


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


# numpy's private LAPACK gufuncs, the ones np.linalg dispatches to. Where
# LAPACK fails (a zero pivot, a matrix not positive-definite) they fill the
# result with NaN and raise the invalid flag, which ``_EDGE`` ignores. A
# numpy release that has moved them gets np.linalg's wrappers around the
# same gufuncs: the same bits, a few us more per call, and each failure
# turned into the same NaN.
try:
    from numpy.linalg._umath_linalg import (
        cholesky_lo as _cholesky_lo, inv as _inv, solve1 as _solve1)
except ImportError:
    def _solve(a, b):
        """``np.linalg.solve(a, b)``, NaN where it finds ``a`` singular."""
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return np.full_like(b, np.nan)

    def _cholesky(a):
        """``np.linalg.cholesky(a)``, all NaN where it fails."""
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return np.full_like(a, np.nan)

    _inv = np.linalg.inv
else:
    def _solve(a, b):
        """``np.linalg.solve(a, b)`` for a float64 (n, n) matrix and (n,)
        vector: the LAPACK gesv gufunc ``np.linalg.solve`` dispatches to,
        without its argument wrapping or error state. The same bits, and
        NaN where gesv finds the matrix singular."""
        return _solve1(a, b, signature="dd->d")

    def _cholesky(a):
        """``np.linalg.cholesky(a)`` of a float64 (n, n) matrix through the
        same gufunc, without its argument wrapping or error state; all NaN
        where it fails."""
        return _cholesky_lo(a, signature="d->d")


def _cholesky_inv(a):
    """``np.linalg.inv(a)`` of a float64 (n, n) matrix that
    ``np.linalg.cholesky(a)`` accepts; NaN where either fails."""
    # a failed test is all NaN; a passed one has lower[0, 0] > 0
    lower = _cholesky(a)
    return lower if np.isnan(lower[0, 0]) else _inv(a)


def _gn_covariance(jac: np.ndarray) -> np.ndarray | None:
    """(J^T J)^-1, or None where J^T J is not positive-definite (a NaN
    inverse). A matrix singular up to rounding can pass the Cholesky test
    and still invert to a variance <= 0 or NaN; that gives None too."""
    cov = _cholesky_inv(jac.T @ jac)
    return cov if (cov.diagonal() > 0).all() else None


def _damped_diagonal(base_diag: list, hess_diag: list, lam: float) -> list:
    """diag(base) + lam * damp, where damp is diag(J^T J) with 1 in place
    of an entry <= 0, on Python floats: the bits of
    ``np.add(b, lam * np.where(h <= 0, 1.0, h))`` without its numpy calls."""
    return [b + lam * (1.0 if h <= 0 else h)
            for b, h in zip(base_diag, hess_diag)]


@np.errstate(**_EDGE)
def _lm_fit(model, jac, x, y, sigma, p0, *, guard=None,
            max_iter=MAX_ITERATIONS, curvature=None) -> _LMResult:
    """Minimize sum(((y - model(x, p)) / sigma)^2) over p, in 1 to max_iter
    iterations; a ValueError names a ``max_iter`` that is not an integer
    (3.0 counts as 3), is below 1 or is above _MAX_ITER_LIMIT (10000).

    ``curvature(x, p, rw)``, where given, returns the residual term
    S = sum_i rw_i * Hessian of model(x_i, p), with rw = r * w the
    residuals weighted twice. At each accepted point the damped matrix is
    then built on J^T J - S, the Hessian of the cost, where that matrix is
    finite and passes the Cholesky test, and on J^T J elsewhere. The
    damping stays lam * diag(J^T J).

    The arrays ``model``, ``jac`` and ``curvature`` return are only read,
    never written.
    """
    n_max = _integral(max_iter, "max_iter")
    if n_max < 1:
        raise ValueError(f"max_iter must be >= 1, got {n_max}")
    if n_max > _MAX_ITER_LIMIT:
        raise ValueError(f"max_iter must be <= {_MAX_ITER_LIMIT}, got {max_iter}")
    p = np.array(p0, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)
    neg_w = -w[:, None]  # J * -w has the bits of -J * w

    def residual(params):
        r = y - model(x, params)
        r *= w
        return r

    r = residual(p)
    cost = float(r @ r)
    lam = LAMBDA0
    converged = False
    n_iter = 0
    jr = None  # derivatives of the current point, once taken
    damped = np.empty((p.size, p.size))  # J^T J (- S), damped on its diagonal
    damped_diag = damped.reshape(-1)[::p.size + 1]  # a view
    for n_iter in range(1, n_max + 1):
        if jr is None:
            jr = jac(x, p) * neg_w            # d residual / d p
            neg_grad = -(jr.T @ r)
            np.matmul(jr.T, jr, out=damped)
            hess_diag = base_diag = damped_diag.tolist()
            if curvature is not None:
                newton = damped - curvature(x, p, r * w)
                # all NaN where the test fails; inf where S overflowed
                if math.isfinite(_cholesky(newton).sum()):
                    damped[:] = newton
                    base_diag = damped_diag.tolist()
        damped_diag[:] = _damped_diagonal(base_diag, hess_diag, lam)
        step = _solve(damped, neg_grad)  # NaN where the system is singular
        trial = p + step
        if guard is None or guard(trial):
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:  # false for a NaN cost
                # a NaN change fails the test, as it fails np.max(...) < tol
                small = all(abs(s) / (abs(q) + 1e-300) < REL_STEP_TOL
                            for s, q in zip(step.tolist(), p.tolist()))
                p, r, cost, jr = trial, r_trial, cost_trial, None
                lam = max(lam / 10.0, 1e-14)
                if small:
                    converged = True
                    break
                continue
        # the one rejection: refused by guard, or a higher or NaN cost
        lam *= 10.0
        if lam > 1e12:
            break

    if jr is None:
        jr = jac(x, p) * neg_w
    return _LMResult(params=p, cov=_gn_covariance(jr), n_iterations=n_iter,
                     converged=converged, cost=cost)


def _poisson_sigma(counts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(counts, 1.0))


def _report(model_name, names, units, res: _LMResult, n_points, *,
            warnings=(), derived=None, digest="") -> FitReport:
    """The one constructor of a FitReport; a ValueError names a value of
    ``params``, ``std_errors``, ``reduced_chi2`` or ``derived`` that is
    infinite or NaN, so no report holds one."""
    params = dict(zip(names, res.params.tolist()))
    std_errors = None if res.cov is None else dict(
        zip(names, np.sqrt(res.cov.diagonal()).tolist()))
    reduced_chi2 = res.cost / max(n_points - len(names), 1)
    derived = derived or {}
    values = {**{f"params.{k}": v for k, v in params.items()},
              **{f"std_errors.{k}": v for k, v in (std_errors or {}).items()},
              "reduced_chi2": reduced_chi2,
              **{f"derived.{k}": v for k, v in derived.items()}}
    _require_finite(**values)
    return FitReport(
        model=model_name, params=params, units=dict(units),
        std_errors=std_errors, reduced_chi2=reduced_chi2,
        n_iterations=res.n_iterations, converged=res.converged,
        warnings=list(warnings), derived=derived, input_digest=digest)


# ---------------------------------------------------------------------------
# Lorentzian line fit

def lorentzian_model(x, p):
    # Python floats round as numpy float64 scalars do, and their ** is the
    # same libm pow; it raises where numpy's gives inf
    c, w, a, b = np.asarray(p, dtype=float).tolist()
    try:
        h2 = (w / 2.0) ** 2
    except OverflowError:
        h2 = math.inf
    out = np.subtract(x, c)
    out *= out
    out += h2
    np.divide(a * h2, out, out=out)
    out += b
    return out


def lorentzian_jacobian(x, p):
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


def lorentzian_curvature(x, p, rw):
    """sum_i rw_i * (Hessian of lorentzian_model at x_i in p), a 4 x 4
    matrix in (center, fwhm, amplitude, offset), built from five weighted
    sums m_k = sum_i rw_i d_i^k / D_i^3 (k = 0..4), where h = fwhm / 2,
    d = x - center and D = d^2 + h^2. The second derivatives are
    2 a h^2 (3 d^2 - h^2) / D^3 (center, center),
    2 a h d (d^2 - h^2) / D^3 (center, fwhm),
    a d^2 (d^2 - 3 h^2) / (2 D^3) (fwhm, fwhm),
    2 h^2 d / D^2 (center, amplitude) and h d^2 / D^2 (fwhm, amplitude);
    the rest are 0. Elementwise products and one numpy sum, no BLAS."""
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
    s_ca = 2.0 * hh * (m3 + hh * m1)   # D / D^3 = d^2 / D^3 + h^2 / D^3
    s_wa = h * (m4 + hh * m2)
    return np.array([[s_cc, s_cw, s_ca, 0.0], [s_cw, s_ww, s_wa, 0.0],
                     [s_ca, s_wa, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


def _median(y: np.ndarray) -> float:
    """``float(np.median(y))`` of a finite 1-d float64 array: the same
    partition, and the same mean of the middle element or pair, whose sum
    starts at +0.0 as np.mean's does (so a median of -0.0 is +0.0), in
    2 us instead of np.median's 13 us on a 151-point scan."""
    half = y.size // 2
    if y.size % 2:
        return 0.0 + float(np.partition(y, half)[half])
    part = np.partition(y, (half - 1, half))
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2.0


def _halfmax_width(x, y, i_peak, level):
    """Interpolated width of y around index i_peak at the given level."""
    # the nearest i <= i_peak with y[i-1] < level <= y[i], and the nearest
    # i >= i_peak with y[i+1] < level <= y[i]
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


def fit_lorentzian(spectrum: Spectrum, *, max_iter=MAX_ITERATIONS) -> FitReport:
    """Fit center/fwhm/amplitude/offset to a PLE scan with Poisson weights.

    Raises ValueError on degenerate data (too short, no peak); a fit that
    fails to converge is returned with ``converged=False``, never raised.
    """
    if len(spectrum) < 8:
        raise ValueError(f"need at least 8 points to fit, got {len(spectrum)}")
    x = spectrum.detunings
    y = spectrum.counts
    i_peak = int(np.argmax(y))
    if y[i_peak] == y.min():
        raise ValueError("no peak: all counts are equal")

    warn: list[str] = []
    with np.errstate(**_EDGE):
        offset0 = _median(y)
        amp0 = float(y[i_peak] - offset0)
        if y[i_peak] <= 1.2 * offset0:
            warn.append("no prominent peak (max <= 1.2 x median counts)")
        fwhm0 = _halfmax_width(x, y, i_peak, offset0 + amp0 / 2.0)
    p0 = [float(x[i_peak]), fwhm0, amp0, offset0]

    res = _lm_fit(lorentzian_model, lorentzian_jacobian, x, y,
                  _poisson_sigma(y), p0, max_iter=max_iter,
                  guard=lambda p: p[1] != 0.0, curvature=lorentzian_curvature)
    res.params[1] = abs(res.params[1])  # model is even in fwhm
    return _report(
        "lorentzian", ("center", "fwhm", "amplitude", "offset"),
        {"center": "MHz", "fwhm": "MHz", "amplitude": "counts", "offset": "counts"},
        res, len(spectrum), warnings=warn,
        digest=data_digest(x, y))


# ---------------------------------------------------------------------------
# Exponential decay fits

def exp_model(t, p):
    """Sum of exponentials plus offset; p = (a_1, tau_1, ..., a_n, tau_n, b).

    a_1 exp(-t/tau_1) + ... + a_n exp(-t/tau_n) + b, summed in that order.
    """
    out = p[0] * np.exp(-t / p[1])
    for k in range(2, len(p) - 1, 2):
        out += p[k] * np.exp(-t / p[k + 1])
    return out + p[-1]


def exp_jacobian(t, p):
    out = np.empty((t.size, len(p)))
    for k in range(0, len(p) - 1, 2):
        a, tau = p[k], p[k + 1]
        e = np.exp(-t / tau)
        out[:, k] = e
        out[:, k + 1] = a * t / tau ** 2 * e
    out[:, -1] = 1.0
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
    i0 = (int(np.argmax(trace.counts)) if start_index is None
          else _integral(start_index, "start_index"))
    if not 0 <= i0 < len(trace) - 4:
        raise ValueError(f"fit window start {i0} leaves too few bins")
    t = trace.bin_centers[i0:]
    y = trace.counts[i0:]
    if np.ptp(y) == 0:
        raise ValueError("no decay: counts are constant over the fit window")

    with np.errstate(**_EDGE):
        a0, tau0, b0 = _decay_inits(t, y)
        # amplitudes are referenced to t = 0, so undo the window offset
        if model == "exp1":
            p0 = [a0 * np.exp(min(t[0] / tau0, 50.0)), tau0, b0]
            names = ("amplitude", "tau", "offset")
        else:
            tau_f0 = tau0 / 5.0
            p0 = [0.5 * a0 * np.exp(min(t[0] / tau_f0, 50.0)), tau_f0,
                  0.5 * a0 * np.exp(min(t[0] / tau0, 50.0)), tau0, b0]
            names = ("amp_fast", "tau_fast", "amp_slow", "tau_slow", "offset")
    res = _lm_fit(exp_model, exp_jacobian, t, y, _poisson_sigma(y), p0,
                  guard=lambda p: np.all(p[1:-1:2] > 0), max_iter=max_iter)
    warn: list[str] = []
    if model == "exp2":
        if res.params[1] > res.params[3]:
            order = [2, 3, 0, 1, 4]
            res.params = res.params[order]
            if res.cov is not None:
                res.cov = res.cov[np.ix_(order, order)]
        with np.errstate(**_EDGE):  # a start tau_fast may underflow to 0
            degenerate = res.params[3] / res.params[1] < DEGENERACY_RATIO
        if degenerate:
            warn.append("components degenerate (tau_slow/tau_fast < 1.5)")
    units = {k: "ns" if k.startswith("tau") else "counts" for k in names}
    derived = {"transform_limit_mhz": physics.transform_limit(float(res.params[-2]))}
    return _report(model, names, units, res, t.size, warnings=warn,
                   derived=derived, digest=data_digest(trace.bin_centers, trace.counts))


# ---------------------------------------------------------------------------
# Linear fits of point tables

def _floats(values) -> np.ndarray | None:
    """``np.asarray(values, dtype=float)``, or None where numpy refuses
    them (a dict, an object, a ragged list, text)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: 10**400
        return None


def _pairs(points, columns: str) -> np.ndarray:
    """``points`` as an (n, 2) float array with n >= 1; a ValueError says
    they must be (columns) pairs."""
    pts = _floats(points)
    if pts is not None:
        pts = np.atleast_2d(pts)
    if pts is None or pts.size == 0 or pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be ({columns}) pairs")
    return pts


# ---------------------------------------------------------------------------
# Cubic law for the D-C linewidth difference

def fit_cubic_alpha(points, weights="delta") -> FitReport:
    """Weighted least squares of delta_gamma = alpha * f^3 through the origin.

    ``points`` is a sequence of (f_gs_ghz, delta_mhz) pairs.
    weights: "delta" (1/delta_mhz^2, the default), "equal", or an explicit
    array of finite positive weights. The report predicts the differences
    for the SiV and SnV splittings from the fitted coupling. A ValueError
    names a column that is not finite, and a weight, sum or result that
    leaves the float range.
    """
    pts = _pairs(points, "f_gs_ghz, delta_mhz")
    f = pts[:, 0]
    dg = pts[:, 1]
    _require_finite(f_gs_ghz=f, delta_mhz=dg)
    if np.any(f <= 0):
        raise ValueError("splittings must be positive")
    if np.any(dg <= 0):
        raise ValueError("linewidth differences must be positive")

    if isinstance(weights, str):
        if weights == "delta":
            with np.errstate(over="ignore", divide="ignore"):
                w = 1.0 / dg ** 2
            _require_finite(**{"weights 1/delta_mhz^2": w})
        elif weights == "equal":
            w = np.ones_like(dg)
        else:
            raise ValueError(f"unknown weights mode {weights!r}")
    else:
        w = _floats(weights)
        if w is None or w.shape != dg.shape or np.any(w <= 0) \
                or not np.all(np.isfinite(w)):
            raise ValueError(
                "explicit weights must be finite and positive, one per point")

    # the D-C difference per unit alpha, MHz
    regressor = physics._phonon_mhz(f, 0.0, 1.0, emission=True,
                                    name="delta_mhz per unit alpha")
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(np.sum(w * regressor ** 2))
        if not 0.0 < denom < np.inf:
            raise ValueError("sum of weight * (delta_mhz per unit alpha)^2 "
                             f"must be positive and finite, got {denom}")
        alpha = float(np.sum(w * dg * regressor)) / denom
        resid = (dg - alpha * regressor) * np.sqrt(w)
        cost = float(resid @ resid)

    res = _LMResult(params=np.array([alpha]),
                    cov=np.array([[1.0 / denom]]),
                    n_iterations=1, converged=True, cost=cost)
    derived = {}
    for preset in ("SiV", "SnV"):
        key = f"pred_delta_gamma_{preset.lower()}_mhz"
        derived[key] = float(physics._phonon_mhz(
            REGISTRY.get(preset).f_gs, 0.0, alpha, emission=True, name=key))
    return _report("cubic_alpha", ("alpha",), {"alpha": "GHz^-2"},
                   res, len(dg), derived=derived, digest=data_digest(f, dg))


# ---------------------------------------------------------------------------
# Temperature series

def _has_duplicates(values) -> bool:
    """Whether ``np.unique(values).size < values.size``, which counts every
    NaN as one value, without ``np.unique``: it imports ``numpy.ma``, about
    17 ms of a cold command. Needs at least 2 values."""
    s = np.sort(values)  # NaNs last
    return bool((s[1:] == s[:-1]).any() or np.isnan(s[-2]))


def fit_temperature_series(points, emitter: EmitterParams,
                           free=("gamma_others",),
                           max_temp: float | None = None) -> FitReport:
    """Fit C-linewidth data Gamma(T) for gamma_others (and optionally alpha_gs).

    ``points`` is a sequence of (temperature_k, linewidth_mhz) pairs; gamma0
    and the remaining couplings are fixed from ``emitter``. Points above
    ``max_temp`` (K) are excluded when given, since the single-phonon model
    is only trusted at low temperature; a NaN ``max_temp``, or one that is
    not a real scalar (an array, "x"), is a ValueError.
    A ValueError names a column that is not finite.
    """
    free = tuple(free)
    if free not in (("gamma_others",), ("gamma_others", "alpha_gs")):
        raise ValueError(
            "free must be ('gamma_others',) or ('gamma_others', 'alpha_gs')")
    pts = _pairs(points, "temperature_k, linewidth_mhz")
    if max_temp is not None:
        max_temp = _scalar(max_temp, "max_temp")
        if math.isnan(max_temp):  # compares false: would keep every point
            raise ValueError("max_temp must be a temperature or None, got nan")
        pts = pts[~(pts[:, 0] > max_temp)]  # NaN rows stay, to be named below
    temps = pts[:, 0]
    gammas = pts[:, 1]
    if temps.size < 2 or temps.size < len(free):
        raise ValueError(
            f"need at least max(2, n_free) points, got {temps.size}")
    _require_finite(temp_k=temps, linewidth_mhz=gammas)
    if _has_duplicates(temps):
        raise ValueError("temperatures must be distinct")
    if np.any(temps < 0):
        raise ValueError("temperatures must be >= 0")

    # Bose factors are fixed per point, so the model is linear in both
    # free parameters; the optimizer converges in one accepted step.
    k_gs = physics._phonon_mhz(emitter.f_gs, temps, 1.0, name="gs_phonon_mhz")
    base = emitter.gamma0 + physics._phonon_mhz(emitter.f_es, temps, emitter.alpha_es,
                                                name="es_phonon_mhz")

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
