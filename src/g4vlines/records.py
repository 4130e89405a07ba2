"""Data records passed between the simulation, fitting and I/O layers."""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _checks

__all__ = ["Spectrum", "DecayTrace", "CorrelationHistogram", "FitReport"]


@dataclass
class Spectrum:
    """One PLE scan: counts versus laser detuning.

    detunings: MHz, strictly increasing. counts: nonnegative.
    meta: free-form acquisition metadata (temperature_k, power_nw,
    scan_index, emitter, ...).
    """

    detunings: np.ndarray
    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.detunings = _checks.column(self.detunings, "detunings")
        self.counts = _checks.column(self.counts, "counts")
        if self.detunings.size != self.counts.size:
            raise ValueError(
                f"detunings ({self.detunings.size}) and counts "
                f"({self.counts.size}) differ in length")
        # finite values: d[i + 1] > d[i] exactly where d[i + 1] - d[i] > 0
        if not (self.detunings[1:] > self.detunings[:-1]).all():
            raise ValueError("detunings must be strictly increasing")
        _checks.non_negative(counts=self.counts)

    def __len__(self) -> int:
        return self.detunings.size


@dataclass
class DecayTrace:
    """Time-binned photon counts after pulsed excitation.

    bin_centers: ns, uniformly spaced (to 1e-9 relative). counts: >= 0;
    real-valued so that noiseless model traces are representable.
    """

    bin_centers: np.ndarray
    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bin_centers = _checks.column(self.bin_centers, "bin_centers")
        self.counts = _checks.column(self.counts, "counts")
        if self.bin_centers.size != self.counts.size:
            raise ValueError("bin_centers and counts differ in length")
        if self.bin_centers.size >= 2:
            with np.errstate(over="ignore"):  # a step past the float range is inf
                steps = np.diff(self.bin_centers)
            if np.any(steps <= 0):
                raise ValueError("bin_centers must be strictly increasing")
            if not np.isfinite(steps).all():
                raise ValueError("bin spacing must be finite")
            width = steps[0]
            if np.any(np.abs(steps - width) > 1e-9 * width):
                raise ValueError("bin spacing must be uniform to 1e-9 relative")
        _checks.non_negative(counts=self.counts)

    def __len__(self) -> int:
        return self.bin_centers.size


@dataclass
class CorrelationHistogram:
    """Normalized intensity autocorrelation g2(tau).

    tau_bins: bin centers in ns, symmetric about zero.
    coincidence_counts: raw pair counts per bin, integers >= 0 (int64).
    normalization: expected uncorrelated pair count per bin, a finite
    positive real number.
    """

    tau_bins: np.ndarray
    g2: np.ndarray
    coincidence_counts: np.ndarray
    normalization: float

    def __post_init__(self):
        self.tau_bins = _checks.column(self.tau_bins, "tau_bins")
        self.g2 = _checks.column(self.g2, "g2")
        self.coincidence_counts = _checks.counts(self.coincidence_counts,
                                                 "coincidence_counts")
        if not (self.tau_bins.size == self.g2.size == self.coincidence_counts.size):
            raise ValueError("tau_bins, g2 and coincidence_counts differ in length")
        with np.errstate(over="ignore"):  # an overflowing sum is not symmetric
            symmetric = np.allclose(self.tau_bins, -self.tau_bins[::-1])
        if not symmetric:
            raise ValueError("tau_bins must be symmetric about zero")
        _checks.non_negative(g2=self.g2)
        norm = self.normalization
        if isinstance(norm, bool) or not isinstance(norm, numbers.Real) \
                or not 0 < norm <= sys.float_info.max:  # 10**400 is not
            raise ValueError(
                f"normalization must be positive and finite, got {norm!r}")

    def __len__(self) -> int:
        return self.tau_bins.size


@dataclass
class FitReport:
    """Result of one parameter estimation.

    params/std_errors map bare parameter names to values; ``units`` maps the
    same names to unit strings. ``std_errors`` is None when the covariance
    estimate was not positive-definite. ``derived`` holds quantities computed
    from the fitted parameters (e.g. a transform limit).

    The fields, in order, are the JSON report format: ``to_dict`` writes
    them and ``dataio.load_fit_report`` reads them back by their types.
    """

    model: str
    params: dict[str, float]
    units: dict[str, str]
    std_errors: dict[str, float] | None
    reduced_chi2: float
    n_iterations: int
    converged: bool
    warnings: list[str] = field(default_factory=list)
    derived: dict[str, float] = field(default_factory=dict)
    input_digest: str = ""

    def to_dict(self) -> dict:
        return asdict(self)
