"""The rules a value from outside the package must meet, each stated once.

Every public entry point checks its arguments here where they enter, and
each rule raises a ValueError that names the argument:

* ``floats``: an array argument, as ``np.asarray(value, dtype=float)``
  reads it; ``<name> must be numbers, got <value>`` where numpy refuses
  it (a dict, an object, 10**400, a ragged list, text that is no number);
* ``number``: a scalar argument, as float() reads it (text such as "20"
  too); ``<name> must be a number, got <value>`` where float() refuses
  it, and ``<name> must be a scalar, got shape <shape>`` for an array or
  a sequence;
* ``finite``: a bool, an integer or a float, or an array or a sequence of
  them (not None and not text), finite everywhere: ``<name> must be a
  finite number, got <value>`` and ``<name> must be finite, got <first
  value that is not>``;
* ``positive`` and ``non_negative``: ``<name> must be positive, got <first
  value that is not>`` and ``<name> must be >= 0, got ...``; NaN is
  neither;
* ``integral``: 2 and 2.0, not 2.5, NaN or None: ``<name> must be an
  integer, got <value>``;
* ``record``: an instance of a type: ``<name> must be of type <type>, got
  <value>``;
* ``column`` and ``counts``: the one-dimensional arrays of the records;
  both name a value numpy refuses as ``floats`` does.

The range rules and ``finite`` check any number of named values, in the
order given, and stop at the first that fails.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import fields

import numpy as np

# what numpy or float() raise for a value they cannot convert
_REFUSED = (TypeError, ValueError, OverflowError)


def floats(value, name: str) -> np.ndarray:
    """``np.asarray(value, dtype=float)``, 0-d for a scalar."""
    return _array(value, name, float)


def _array(value, name: str, dtype=None) -> np.ndarray:
    """``np.asarray(value, dtype=dtype)``, or the ValueError of ``floats``
    where numpy refuses the value."""
    try:
        return np.asarray(value, dtype=dtype)
    except _REFUSED:
        raise ValueError(f"{name} must be numbers, "
                         f"got {reprlib.repr(value)}") from None


def number(value, name: str) -> float:
    """float(value) of a scalar: a number, a 0-d array, or text that
    float() reads ("20")."""
    try:
        if not np.shape(value):
            return float(value)
    except _REFUSED:
        raise ValueError(f"{name} must be a number, "
                         f"got {reprlib.repr(value)}") from None
    raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")


def _rule(rule: str, test, **values) -> None:
    """Each value, a number of any shape, passes test everywhere."""
    for name, value in values.items():
        try:
            ok = test(value)
        except _REFUSED:  # not of a numeric dtype, or ragged
            raise ValueError(f"{name} must be a finite number, "
                             f"got {reprlib.repr(value)}") from None
        # np.True_, a scalar's pass, without the 1.2 us of ok.all()
        if ok is not np.True_ and not ok.all():
            raise ValueError(f"{name} must be {rule}, "
                             f"got {np.asarray(value)[~ok][0]}")


# finite(name=value, ...), positive(...) and non_negative(...)
finite = functools.partial(_rule, "finite", np.isfinite)
positive = functools.partial(_rule, "positive", functools.partial(np.less, 0))
non_negative = functools.partial(_rule, ">= 0", functools.partial(np.less_equal, 0))


def finite_floats(**values) -> list[float]:
    """The values, each a finite number and a scalar, as Python floats."""
    finite(**values)
    return [number(value, name) for name, value in values.items()]


def integral(value, name: str) -> int:
    """value as an int, where it is integral (2 or 2.0)."""
    try:
        integral = int(value) == value
    except _REFUSED:  # NaN, inf, None, a list
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def record(value, name: str, kind: type | tuple) -> None:
    """value is an instance of kind (a type, or a tuple whose first type
    names it), checked where it enters rather than where an attribute of
    it is first read."""
    if not isinstance(value, kind):
        type_name = (kind[0] if isinstance(kind, tuple) else kind).__name__
        raise ValueError(f"{name} must be of type {type_name}, "
                         f"got {reprlib.repr(value)}")


def float_fields(obj) -> None:
    """Store each float field of the frozen dataclass obj as
    ``finite_floats`` returns it."""
    names = [f.name for f in fields(obj) if f.type == "float"]
    values = finite_floats(**{name: getattr(obj, name) for name in names})
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)


def column(values, name: str) -> np.ndarray:
    """values as a one-dimensional, non-empty and finite float64 array."""
    arr = floats(values, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def counts(values, name: str) -> np.ndarray:
    """values as int64 counts: one-dimensional, integral and >= 0."""
    arr = _array(values, name)  # a ragged list too
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numbers, got dtype {arr.dtype}")
    with np.errstate(invalid="ignore"):  # nan, inf and beyond int64 miscast
        out = arr.astype(np.int64, copy=False)
    if not (out == arr).all():
        raise ValueError(f"{name} must be integers below 2**63")
    non_negative(**{name: out})
    return out
