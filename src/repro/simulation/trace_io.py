"""Arrival logs: loading recorded traffic, and capturing simulated runs.

Real serving platforms evaluate provisioning policies against *recorded*
traffic.  :func:`load_trace` reads an arrival log — CSV or NPZ, one row per
request with the request's class, absolute arrival time and full-rate
service demand — and turns it into one
:class:`~repro.simulation.generator.TraceSource` per class, ready to drive a
:class:`~repro.simulation.Scenario` (``Scenario(classes, config,
sources=load_trace(path))``).

:func:`save_trace` is the inverse: it writes a completed run's
:class:`~repro.simulation.ledger.RequestLedger` (or a
:class:`~repro.simulation.SimulationResult` / scenario holding one) back out
as the same arrival-log format, so simulated traffic feeds straight back
into replay pipelines — ``load_trace(save_trace(path, result))`` reproduces
the run's arrival sequence exactly.

The whole pipeline is columnar: the log is parsed into NumPy arrays, split
per class with boolean masks, and the per-class inter-arrival gaps are
computed with ``np.diff`` — no per-request Python objects exist until the
simulation replays them, so multi-million-request logs load in a few array
allocations.

Formats
-------
CSV
    A header line naming the columns ``class_index``, ``arrival_time`` and
    ``size`` (any order; extra columns are ignored), then one numeric row
    per request.
NPZ
    ``np.savez(path, class_index=..., arrival_time=..., size=...)`` with
    three equal-length one-dimensional arrays.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ParameterError
from .generator import TraceSource

__all__ = ["load_trace", "save_trace", "trace_sources_from_arrays"]

_REQUIRED_COLUMNS = ("class_index", "arrival_time", "size")

#: ``%.17g`` prints the shortest decimal that round-trips an IEEE double, so
#: a CSV written by :func:`save_trace` reloads bit-identically.
_CSV_FORMATS = ("%d", "%.17g", "%.17g")


def load_trace(path: str | os.PathLike, *, num_classes: int | None = None) -> list[TraceSource]:
    """Read a CSV or NPZ arrival log into one ``TraceSource`` per class.

    ``num_classes`` pads the result with empty sources for classes absent
    from the log (defaults to ``max(class_index) + 1``); a class index at or
    beyond an explicit ``num_classes`` is an error.
    """
    path = os.fspath(path)
    extension = os.path.splitext(path)[1].lower()
    if extension == ".npz":
        columns = _read_npz(path)
    elif extension in (".csv", ".txt"):
        columns = _read_csv(path)
    else:
        raise ParameterError(
            f"unsupported trace format {extension!r} for {path!r}; use .csv or .npz"
        )
    return trace_sources_from_arrays(*columns, num_classes=num_classes)


def trace_sources_from_arrays(
    class_index: np.ndarray,
    arrival_time: np.ndarray,
    size: np.ndarray,
    *,
    num_classes: int | None = None,
) -> list[TraceSource]:
    """Split columnar (class, arrival time, size) arrays into trace sources.

    Arrival times must be non-decreasing *per class*; the first request of a
    class gets its absolute arrival time as the gap from the simulation
    start, subsequent requests the difference to the class's previous
    arrival.
    """
    classes = np.asarray(class_index)
    arrivals = np.asarray(arrival_time, dtype=float)
    sizes = np.asarray(size, dtype=float)
    if classes.ndim != 1 or arrivals.ndim != 1 or sizes.ndim != 1:
        raise ParameterError("trace columns must be one-dimensional")
    if not (classes.shape == arrivals.shape == sizes.shape):
        raise ParameterError("trace columns must have the same length")
    if classes.size and not np.all(np.isfinite(classes)):
        raise ParameterError("class_index contains non-finite values")
    if classes.size and np.any(classes != np.floor(classes)):
        raise ParameterError("class_index contains non-integer values (columns swapped?)")
    classes = classes.astype(np.int64)
    if classes.size and classes.min() < 0:
        raise ParameterError("class_index must be >= 0")
    if arrivals.size and (not np.all(np.isfinite(arrivals)) or arrivals.min() < 0.0):
        raise ParameterError("arrival_time must be finite and >= 0")

    highest = int(classes.max()) + 1 if classes.size else 0
    if num_classes is None:
        num_classes = max(highest, 1)
    elif num_classes < highest:
        raise ParameterError(f"trace references class {highest - 1} but num_classes={num_classes}")

    sources = []
    for c in range(num_classes):
        mask = classes == c
        class_arrivals = arrivals[mask]
        if class_arrivals.size and np.any(np.diff(class_arrivals) < 0.0):
            raise ParameterError(
                f"arrival times of class {c} are not sorted; sort the log by "
                "arrival_time before loading"
            )
        gaps = np.diff(class_arrivals, prepend=0.0)
        sources.append(TraceSource(c, gaps, sizes[mask]))
    return sources


def _arrival_columns(source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract (class_index, arrival_time, size) from any run artefact.

    Accepts a :class:`~repro.simulation.ledger.RequestLedger` directly, or
    anything carrying one under a ``ledger`` attribute (a
    :class:`~repro.simulation.Scenario`, a
    :class:`~repro.simulation.SimulationResult`, a ledger-backed trace).
    Every ledger row is an arrival, already in arrival-time order — exactly
    what :func:`load_trace` expects back.
    """
    ledger = getattr(source, "ledger", source)
    columns = (
        getattr(ledger, "class_index", None),
        getattr(ledger, "arrival_time", None),
        getattr(ledger, "size", None),
    )
    if any(column is None for column in columns):
        raise ParameterError(
            f"cannot extract arrival columns from {type(source).__name__}; pass "
            "a RequestLedger or an object exposing one via `.ledger`"
        )
    return tuple(np.asarray(column) for column in columns)


def save_trace(path: str | os.PathLike, source) -> str:
    """Write a run's arrivals out as a CSV or NPZ log; returns the path.

    ``source`` is a :class:`~repro.simulation.ledger.RequestLedger` or any
    object exposing one as ``.ledger`` (a completed
    :class:`~repro.simulation.SimulationResult` or a scenario).  The format
    follows the extension, exactly as in :func:`load_trace`; both formats
    round-trip bit-identically (the CSV uses ``%.17g``, the shortest exact
    rendering of a double).
    """
    path = os.fspath(path)
    classes, arrivals, sizes = _arrival_columns(source)
    extension = os.path.splitext(path)[1].lower()
    if extension == ".npz":
        np.savez(path, class_index=classes, arrival_time=arrivals, size=sizes)
    elif extension in (".csv", ".txt"):
        np.savetxt(
            path,
            np.column_stack((classes, arrivals, sizes)),
            fmt=list(_CSV_FORMATS),
            delimiter=",",
            header=",".join(_REQUIRED_COLUMNS),
            comments="",
        )
    else:
        raise ParameterError(
            f"unsupported trace format {extension!r} for {path!r}; use .csv or .npz"
        )
    return path


def _read_npz(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with np.load(path) as archive:
        missing = [name for name in _REQUIRED_COLUMNS if name not in archive.files]
        if missing:
            raise ParameterError(f"trace archive {path!r} is missing arrays {missing}")
        return tuple(archive[name] for name in _REQUIRED_COLUMNS)


def _read_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    table = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    names = table.dtype.names or ()
    missing = [name for name in _REQUIRED_COLUMNS if name not in names]
    if missing:
        raise ParameterError(
            f"trace file {path!r} is missing columns {missing} (header row has "
            f"{list(names)})"
        )
    table = np.atleast_1d(table)
    return tuple(table[name] for name in _REQUIRED_COLUMNS)
