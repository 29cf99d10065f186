"""Small argument-validation helpers shared across the package.

The validators raise :class:`repro.errors.ParameterError` with a message that
names the offending argument, which keeps the call sites in the numeric code
short while still producing actionable errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import ParameterError

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_probability",
    "require_positive_sequence",
    "require_non_decreasing",
    "require_same_length",
    "require_finite",
    "require_count",
    "as_float_tuple",
]


def require_finite(value: float, name: str) -> float:
    """Return ``value`` as a float, rejecting NaN and infinities."""
    out = float(value)
    if not math.isfinite(out):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return out


def require_count(value: float, name: str, minimum: int = 0) -> int:
    """Return ``value`` as an int, requiring a whole number >= ``minimum``.

    Whole floats such as ``2.0`` (what CLI tokens parse to) are accepted;
    NaN, infinities and fractional values are rejected, never truncated.
    """
    out = require_finite(value, name)
    if not out.is_integer() or out < minimum:
        raise ParameterError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(out)


def require_positive(value: float, name: str) -> float:
    """Return ``value`` as a float, requiring ``value > 0``."""
    out = require_finite(value, name)
    if out <= 0.0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")
    return out


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` as a float, requiring ``value >= 0``."""
    out = require_finite(value, name)
    if out < 0.0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")
    return out


def require_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Return ``value`` as a float, requiring it to lie in the given interval."""
    out = require_finite(value, name)
    low_ok = out >= low if inclusive_low else out > low
    high_ok = out <= high if inclusive_high else out < high
    if not (low_ok and high_ok):
        lo_br = "[" if inclusive_low else "("
        hi_br = "]" if inclusive_high else ")"
        raise ParameterError(f"{name} must lie in {lo_br}{low}, {high}{hi_br}, got {value!r}")
    return out


def require_probability(value: float, name: str) -> float:
    """Return ``value`` as a float, requiring it to lie in ``[0, 1]``."""
    return require_in_range(value, name, 0.0, 1.0)


def as_float_tuple(values: Iterable[float], name: str) -> tuple[float, ...]:
    """Convert an iterable of numbers to a tuple of finite floats."""
    out = tuple(require_finite(v, f"{name}[{i}]") for i, v in enumerate(values))
    if not out:
        raise ParameterError(f"{name} must be non-empty")
    return out


def require_positive_sequence(values: Iterable[float], name: str) -> tuple[float, ...]:
    """Convert to a tuple of floats, requiring every entry to be > 0."""
    out = as_float_tuple(values, name)
    for i, v in enumerate(out):
        if v <= 0.0:
            raise ParameterError(f"{name}[{i}] must be > 0, got {v!r}")
    return out


def require_non_decreasing(values: Sequence[float], name: str) -> tuple[float, ...]:
    """Require ``values`` to be sorted in non-decreasing order."""
    out = as_float_tuple(values, name)
    for i in range(1, len(out)):
        if out[i] < out[i - 1]:
            raise ParameterError(
                f"{name} must be non-decreasing, but {name}[{i}]={out[i]!r} "
                f"< {name}[{i - 1}]={out[i - 1]!r}"
            )
    return out


def require_same_length(a: Sequence, b: Sequence, name_a: str, name_b: str) -> None:
    """Require two sequences to have equal length."""
    if len(a) != len(b):
        raise ParameterError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})"
        )
