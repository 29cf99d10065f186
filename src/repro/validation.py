"""Small argument-validation helpers shared across the package.

The validators raise :class:`repro.errors.ParameterError` (a capacity check:
:class:`repro.errors.SimulationError`) with a message that names the
offending argument, which keeps the call sites in the numeric code short
while still producing actionable errors.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence

from .errors import ParameterError, SimulationError

__all__ = [
    "require_positive",
    "require_capacity",
    "require_non_negative",
    "require_in_range",
    "require_probability",
    "require_positive_sequence",
    "require_finite",
    "require_count",
    "as_float_tuple",
    "parse_policy_args",
    "build_policy",
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


def require_capacity(value: float, name: str = "capacity") -> float:
    """Return a node or processor capacity as a float, requiring finite > 0.

    Raises :class:`~repro.errors.SimulationError`: a node that cannot serve
    (``<= 0``, NaN) or that serves any load at once (``inf``) is a malformed
    fleet, not a bad numeric argument.
    """
    out = float(value)
    if not (math.isfinite(out) and out > 0.0):
        raise SimulationError(
            f"non-positive or non-finite {name} {value!r}: a capacity must be finite and > 0"
        )
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


def parse_policy_args(tokens: Sequence[str], kind: str = "policy") -> dict:
    """Parse CLI-style ``key=value`` policy-argument tokens.

    Values are floats; comma-separated values become float tuples
    (``quota_shares=0.4,0.4``), and ``bands`` takes ``threshold:step``
    pairs (``bands=0.9:1,1.3:2``).  ``kind`` names the policy family in
    error messages.
    """
    args: dict = {}
    for token in tokens:
        key, sep, value = str(token).partition("=")
        if not sep or not key or not value:
            raise ParameterError(f"bad {kind} argument {token!r}; expected key=value")
        parts = value.split(",")
        try:
            if key == "bands":
                pairs = [part.split(":") for part in parts]
                if any(len(pair) != 2 for pair in pairs):
                    raise ValueError(value)
                args[key] = tuple((float(low), float(step)) for low, step in pairs)
                continue
            parsed = tuple(float(part) for part in parts)
        except ValueError:
            raise ParameterError(f"bad {kind} argument {token!r}; values must be numeric") from None
        args[key] = parsed if len(parts) > 1 else parsed[0]
    return args


def build_policy(
    kind: str,
    registry: Mapping[str, Callable[..., object]],
    name: str,
    tokens: Sequence[str] = (),
    overrides: Mapping[str, object] | None = None,
    tuple_params: Sequence[str] = (),
):
    """Build a fresh policy by registry name from ``key=value`` tokens.

    ``overrides`` are constructor keywords that win over parsed tokens;
    a scalar given for one of ``tuple_params`` becomes a one-tuple.  An
    unknown name or a constructor that rejects the keywords raises
    :class:`~repro.errors.ParameterError` naming ``kind``.
    """
    try:
        factory = registry[name]
    except KeyError:
        raise ParameterError(f"unknown {kind} {name!r}; available: {sorted(registry)}") from None
    kwargs = parse_policy_args(tokens, kind)
    kwargs.update(overrides or {})
    for key in tuple_params:
        if key in kwargs and not isinstance(kwargs[key], (tuple, list)):
            kwargs[key] = (kwargs[key],)
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ParameterError(
            f"{kind} {name!r} rejected arguments {sorted(kwargs)}: {exc}"
        ) from None
