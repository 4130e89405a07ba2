"""File formats: CSV for array data, JSON for records and configs.

CSV files carry optional ``# key=value`` comment lines before the header;
floats are written with repr() (shortest exact representation), so
save -> load round-trips are lossless. Every data value must be finite:
``nan``, ``inf`` and values beyond the float range are rejected with the
file and line. Known metadata keys are coerced to
their natural types on load, everything else stays a string.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .emitters import EmitterParams
from .records import CorrelationHistogram, DecayTrace, FitReport, Spectrum

__all__ = [
    "load_spectrum", "save_spectrum",
    "load_decay_trace", "save_decay_trace",
    "save_correlation", "load_correlation",
    "emit_fit_report", "load_fit_report",
    "load_emitter_file", "save_emitter_file",
    "load_alpha_points", "load_temperature_series",
    "DataFormatError",
]

SPECTRUM_HEADER = "detuning_mhz,counts"
DECAY_HEADER = "time_ns,counts"
CORRELATION_HEADER = "tau_ns,g2,coincidences"
ALPHA_HEADER = "splitting_ghz,delta_mhz"
TEMPSERIES_HEADER = "temperature_k,linewidth_mhz"

_META_TYPES = {
    "temperature_k": float, "power_nw": float, "scan_index": int,
    "seed": int, "bin_width_ns": float, "center_mhz": float,
    "normalization": float,
}


class DataFormatError(ValueError):
    """A file does not conform to one of the documented formats."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_csv(path, header: str, n_cols: int):
    """Return (meta, columns, row line numbers); errors carry line numbers."""
    path = Path(path)
    meta: dict = {}
    rows = []
    linenos = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    caster = _META_TYPES.get(key, str)
                    try:
                        meta[key] = caster(value.strip())
                    except ValueError:
                        meta[key] = value.strip()
                continue
            if not header_seen:
                if line != header:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected header {header!r}, "
                        f"got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != n_cols:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {n_cols} comma-separated "
                    f"values, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            for text, value in zip(parts, row):
                if not math.isfinite(value):  # nan, inf, 1e400
                    raise DataFormatError(
                        f"{path}:{lineno}: value {text.strip()!r} is not finite")
            rows.append(row)
            linenos.append(lineno)
    if not header_seen:
        raise DataFormatError(f"{path}: missing header line {header!r}")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    cols = np.asarray(rows, dtype=float).T
    return meta, cols, linenos


def _write_csv(path, header: str, columns, meta: dict | None) -> None:
    path = Path(path)
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(header)
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _record(path, record, *args):
    """``record(*args)``; its ValueError becomes a DataFormatError naming path."""
    try:
        return record(*args)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Spectra and decay traces

def save_spectrum(spectrum: Spectrum, path) -> None:
    _write_csv(path, SPECTRUM_HEADER,
               (spectrum.detunings, spectrum.counts), spectrum.meta)


def load_spectrum(path) -> Spectrum:
    meta, (detunings, counts), linenos = _parse_csv(path, SPECTRUM_HEADER, 2)
    if np.any(np.diff(detunings) <= 0):
        bad = int(np.nonzero(np.diff(detunings) <= 0)[0][0])
        raise DataFormatError(
            f"{path}:{linenos[bad + 1]}: non-monotonic detunings")
    return _record(path, Spectrum, detunings, counts, meta)


def save_decay_trace(trace: DecayTrace, path) -> None:
    _write_csv(path, DECAY_HEADER, (trace.bin_centers, trace.counts), trace.meta)


def load_decay_trace(path) -> DecayTrace:
    meta, (times, counts), _ = _parse_csv(path, DECAY_HEADER, 2)
    return _record(path, DecayTrace, times, counts, meta)


def save_correlation(hist: CorrelationHistogram, path) -> None:
    _write_csv(path, CORRELATION_HEADER,
               (hist.tau_bins, hist.g2, hist.coincidence_counts),
               {"normalization": hist.normalization})


def load_correlation(path) -> CorrelationHistogram:
    meta, (tau, g2, counts), linenos = _parse_csv(path, CORRELATION_HEADER, 3)
    if "normalization" not in meta:
        raise DataFormatError(f"{path}: missing '# normalization=' line")
    fractional = np.flatnonzero(counts != np.floor(counts))
    if fractional.size:  # named here: the record sees only the column
        i = fractional[0]
        raise DataFormatError(f"{path}:{linenos[i]}: coincidence count "
                              f"{float(counts[i])!r} is not an integer")
    return _record(path, CorrelationHistogram, tau, g2, counts,
                   meta["normalization"])


# ---------------------------------------------------------------------------
# JSON objects: configs, their nested objects, emitters and fit reports

def _write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON plus a newline, UTF-8."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


class _FieldError(ValueError):
    """A bad ``key`` of a JSON object; ``nested`` tells it from the key above."""

    def __init__(self, key: str, text: str, nested: str | None = None):
        super().__init__(f"config error at {key!r}: {text}")
        self.nested = f"{text} at {key!r}" if nested is None else nested


def _message(exc: Exception) -> str:
    return str(exc.args[0]) if exc.args else str(exc)  # str() quotes a KeyError


def _real(value) -> float:
    """A JSON number; bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)  # OverflowError for an int beyond float range


def _integer(value) -> int:
    """A JSON number with an integral value; bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or int(value) != value:  # OverflowError / ValueError for inf / nan
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _kind(kind: type, text: str):
    """Caster taking only JSON values of ``kind``, named ``text`` in errors."""
    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {text}, got {json.dumps(value)}")
        return value
    return cast


_boolean, _text = _kind(bool, "true or false"), _kind(str, "a string")


def _strings(value) -> list:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"expected an array of strings, got {json.dumps(value)}")
    return value


def _object_kwargs(obj, keys: dict, target) -> dict:
    """Keyword arguments of ``target`` from the JSON object ``obj``.

    ``keys`` maps each JSON key to (keyword, caster). A key left out takes
    the default in the signature of ``target`` and is an error where there
    is none; JSON null is taken as None only where that default is None. A
    keyword ``target`` does not take (``target`` None takes none) is optional
    and not null; keyword None drops the value. Every float a caster returns
    must be finite. Errors are ValueErrors naming the key.
    """
    if not isinstance(obj, dict):
        text = f"expected a JSON object, got {type(obj).__name__}"
        raise _FieldError("<root>", text, text)
    for key in obj:
        if key not in keys:
            raise _FieldError(key, "unknown key", f"unknown key {key!r}")
    params = inspect.signature(target).parameters if target else {}
    kwargs = {}
    for key, (name, caster) in keys.items():
        default = params[name].default if name in params else ""  # optional, not null
        if key not in obj:
            if default is inspect.Parameter.empty:
                raise _FieldError(key, "missing required field",
                                  f"{key}: missing required field")
        elif obj[key] is None and default is None:
            kwargs[name] = None
        else:
            try:
                value = caster(obj[key])
            except _FieldError as exc:  # from a nested object
                raise _FieldError(key, exc.nested) from None
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise _FieldError(key, _message(exc)) from None
            if isinstance(value, float) and not math.isfinite(value):  # 1e400, NaN
                raise _FieldError(key, f"{name} must be finite, got {value}")
            kwargs[name] = value
    kwargs.pop(None, None)
    return kwargs


def _mapping(caster):
    """Caster of a JSON object with any keys into a dict of ``caster`` values."""
    return lambda obj: _object_kwargs(
        obj, {key: (key, caster) for key in obj} if isinstance(obj, dict) else {},
        None)


def _nested(target, keys: dict):
    """Caster of a nested JSON object into ``target(**kwargs)``."""
    return lambda obj: target(**_object_kwargs(obj, keys, target))


_numbers = _mapping(_real)

# field annotation (as written in records.py and emitters.py) -> caster
_FIELD_CASTERS = {
    "str": _text, "float": _real, "float | None": _real, "int": _integer,
    "bool": _boolean, "list[str]": _strings, "dict[str, str]": _mapping(_text),
    "dict[str, float]": _numbers,
    "dict[str, float] | None": lambda obj: None if obj is None else _numbers(obj)}


def _fields(cls, **extra):
    """Caster into the dataclass ``cls``: a key per field, cast by its type."""
    return _nested(cls, dict({f.name: (f.name, _FIELD_CASTERS[f.type])
                              for f in fields(cls)}, **extra))


_emitter = _fields(EmitterParams)
_fit_report = _fields(FitReport, toolkit_version=(None, _text))


def _read_object(path, caster):
    """``caster`` of the JSON in the file at ``path``; errors name the path."""
    try:
        return caster(json.loads(Path(path).read_text(encoding="utf-8")))
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_emitter_file(params: EmitterParams, path) -> None:
    _write_json(params.to_dict(), path)


def load_emitter_file(path) -> EmitterParams:
    """Load and validate an emitter parameter JSON file, one key per field.

    All EmitterParams invariants are enforced here, including the 1%
    gamma0/lifetime consistency requirement.
    """
    return _read_object(path, _emitter)


def emit_fit_report(report: FitReport, path) -> None:
    """Write a fit report as JSON (floats keep full precision)."""
    _write_json(dict(report.to_dict(), toolkit_version=__version__), path)


def load_fit_report(path) -> FitReport:
    """Load a fit report, one key per field of FitReport plus the optional
    ``toolkit_version``, by the rules of every JSON input."""
    return _read_object(path, _fit_report)


# ---------------------------------------------------------------------------
# Small two-column inputs for the alpha and temperature-series fits

def load_alpha_points(path) -> np.ndarray:
    """(splitting_ghz, delta_mhz) rows for fit_cubic_alpha."""
    _, cols, _ = _parse_csv(path, ALPHA_HEADER, 2)
    return cols.T


def load_temperature_series(path) -> np.ndarray:
    """(temperature_k, linewidth_mhz) rows for fit_temperature_series."""
    _, cols, _ = _parse_csv(path, TEMPSERIES_HEADER, 2)
    return cols.T
