"""The columnar request store: a struct-of-arrays ledger of request lifecycles.

The measurement protocol of the paper is aggregate by construction —
per-window, per-class mean slowdowns over tens of thousands of time units —
so nothing in the pipeline ever needs a per-request Python object.
:class:`RequestLedger` therefore stores every request as one *row* across a
set of preallocated NumPy columns

    ``class_index | arrival_time | size |
    service_start_time | completion_time | disposition [| node]``

and the whole simulation stack addresses requests by integer row id — the
row id is the request's only identity:
:class:`~repro.simulation.scenario.Scenario` appends a row per arrival, the
server models queue and serve row ids, and the monitor computes every
statistic with vectorised NumPy over the columns.  The ledger is the only
record of a run's requests: per-request readers (the individual-request
figures, the Chrome trace, the run-end invariants) filter its columns.
A scenario sizes its ledger once from the rows its classes declare; the
columns double only when a run out-produces that.  The run's hot path
writes rows and reads none back (the scenario keeps the columns it appends
and the times each drain holds).

The ``node`` column exists only on a clustered run's ledger: the cluster
creates it when it binds (:meth:`RequestLedger.track_nodes`), and writes
each dispatched block's node choices into it once
(:meth:`RequestLedger.assign_nodes`).  It is ``int16`` and holds ``-1`` for
every row not dispatched — shed rows, and rows of a block not yet
dispatched.  A single-server ledger has no node column (``node`` is
``None``), so its rows pickle no wider.

The ``disposition`` column records each request's admission outcome
(:data:`DISPOSITION_ADMITTED` / :data:`DISPOSITION_DEGRADED` /
:data:`DISPOSITION_SHED`, matching the integer values of
:class:`repro.core.AdmissionDecision`): shed requests get a row — so shed
fractions fall out of the same columns as every other statistic — but are
never submitted to a server and never start service (enforced here).
Degraded rows are stored under their downgraded class and otherwise live a
normal lifecycle.

Lifecycle invariants (a request starts service exactly once, at or after its
arrival; completes exactly once, at or after its service start) are enforced
here, in one place.  Completions are additionally logged in completion order
(`completed_ids`), which the log checks on the times it is handed: simulated
time is monotone, so the logged completion times never decrease, and
per-class sums over the log in that order are bit-identical to
per-completion bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SimulationError

__all__ = [
    "RequestLedger",
    "DISPOSITION_ADMITTED",
    "DISPOSITION_DEGRADED",
    "DISPOSITION_SHED",
]

#: Admission outcome codes stored in the ``disposition`` column.  The values
#: match :class:`repro.core.AdmissionDecision` so decision blocks cast
#: straight into the column.
DISPOSITION_ADMITTED = 0
DISPOSITION_DEGRADED = 1
DISPOSITION_SHED = 2
_DISPOSITIONS = (DISPOSITION_ADMITTED, DISPOSITION_DEGRADED, DISPOSITION_SHED)

#: Initial number of rows allocated by a fresh ledger; grown 2x on demand.
#: A scenario presizes past it (and adds it as headroom).
DEFAULT_CAPACITY = 1024

#: Tolerance absorbing float drift in lifecycle timestamps (same contract as
#: the engine's ``schedule_at``).
_TIME_TOL = 1e-12


class RequestLedger:
    """Struct-of-arrays store for every request of one simulation run.

    Parameters
    ----------
    num_classes:
        When given, ``append`` validates class indices against this bound
        (the scenario always passes it; standalone ledgers may omit it).
    capacity:
        Initial row allocation; the columns grow geometrically (2x) when
        exceeded, so ids stay stable across growth.
    """

    __slots__ = (
        "num_classes",
        "_n",
        "_class_index",
        "_arrival_time",
        "_size",
        "_service_start",
        "_completion",
        "_disposition",
        "_node",
        "_completed",
        "_order",
    )

    def __init__(self, num_classes: int | None = None, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if num_classes is not None and num_classes <= 0:
            raise SimulationError("num_classes must be > 0")
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.num_classes = None if num_classes is None else int(num_classes)
        self._n = 0
        self._completed = 0
        # The lifecycle columns are NaN-filled at allocation time, so the
        # per-arrival append only touches the three columns that vary.
        self._class_index = np.empty(capacity, dtype=np.int64)
        self._arrival_time = np.empty(capacity, dtype=np.float64)
        self._size = np.empty(capacity, dtype=np.float64)
        self._service_start = np.full(capacity, math.nan, dtype=np.float64)
        self._completion = np.full(capacity, math.nan, dtype=np.float64)
        self._disposition = np.zeros(capacity, dtype=np.uint8)
        self._node: np.ndarray | None = None
        self._order = np.empty(capacity, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Sizes
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Currently allocated rows (grows on demand; ids never move)."""
        return self._class_index.shape[0]

    @property
    def num_completed(self) -> int:
        return self._completed

    # ------------------------------------------------------------------ #
    # Column views (trimmed to the live rows; treat as read-only)
    # ------------------------------------------------------------------ #
    def _view(self, column: np.ndarray, length: int) -> np.ndarray:
        view = column[:length]
        view.flags.writeable = False
        return view

    @property
    def class_index(self) -> np.ndarray:
        return self._view(self._class_index, self._n)

    @property
    def arrival_time(self) -> np.ndarray:
        return self._view(self._arrival_time, self._n)

    @property
    def size(self) -> np.ndarray:
        return self._view(self._size, self._n)

    @property
    def service_start_time(self) -> np.ndarray:
        return self._view(self._service_start, self._n)

    @property
    def completion_time(self) -> np.ndarray:
        return self._view(self._completion, self._n)

    @property
    def disposition(self) -> np.ndarray:
        """Admission outcome per row (``DISPOSITION_*`` codes; 0 = admitted)."""
        return self._view(self._disposition, self._n)

    @property
    def node(self) -> np.ndarray | None:
        """Serving node per row (``-1``: not dispatched); ``None`` unless a
        cluster tracks nodes on this ledger."""
        return None if self._node is None else self._view(self._node, self._n)

    @property
    def completed_ids(self) -> np.ndarray:
        """Row ids of completed requests, in completion (= time) order."""
        return self._view(self._order, self._completed)

    # ------------------------------------------------------------------ #
    # Scalar accessors (hot path)
    # ------------------------------------------------------------------ #
    def class_of(self, rid: int) -> int:
        return int(self._class_index[rid])

    def size_of(self, rid: int) -> float:
        return float(self._size[rid])

    def arrival_of(self, rid: int) -> float:
        return float(self._arrival_time[rid])

    def start_of(self, rid: int) -> float:
        return float(self._service_start[rid])

    def completion_of(self, rid: int) -> float:
        return float(self._completion[rid])

    def disposition_of(self, rid: int) -> int:
        return int(self._disposition[rid])

    def is_complete(self, rid: int) -> bool:
        return not math.isnan(self._completion[rid])

    # ------------------------------------------------------------------ #
    # Appending rows
    # ------------------------------------------------------------------ #
    def track_nodes(self, num_nodes: int) -> None:
        """Add the ``node`` column, every row ``-1`` (called by a cluster at
        bind; ``int16`` holds the node index of up to 32,767 nodes)."""
        if not 0 < num_nodes <= np.iinfo(np.int16).max:
            raise SimulationError(
                f"the node column holds 1 to {np.iinfo(np.int16).max} nodes, got {num_nodes}"
            )
        self._node = np.full(self.capacity, -1, dtype=np.int16)

    def assign_nodes(self, rids, nodes) -> None:
        """Write the serving node of a dispatched row or block of rows."""
        self._node[rids] = nodes

    def _grow(self) -> None:
        old_capacity = self.capacity
        new_capacity = max(old_capacity * 2, 16)
        names = [
            "_class_index",
            "_arrival_time",
            "_size",
            "_service_start",
            "_completion",
            "_disposition",
            "_order",
        ]
        if self._node is not None:
            names.append("_node")
        for name in names:
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            # Column lengths can differ after unpickling (the completion log
            # is padded independently), so copy each column's own length.
            grown[: old.shape[0]] = old
            setattr(self, name, grown)
        # Restore the allocation-time defaults on the fresh tail.
        self._service_start[old_capacity:] = math.nan
        self._completion[old_capacity:] = math.nan
        self._disposition[old_capacity:] = DISPOSITION_ADMITTED
        if self._node is not None:
            self._node[old_capacity:] = -1

    def append_batch(
        self,
        classes: np.ndarray,
        arrivals: np.ndarray,
        sizes: np.ndarray,
        *,
        dispositions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Record a block of arrivals in one call; returns the new row ids.

        The batched equivalent of :meth:`append`: one bounds check for the
        whole block, growth amortised across it (the columns may grow
        mid-batch, ids stay stable), and one slice write per column.  The
        class bound is validated *before* any column is touched, so an
        out-of-range class index rejects the whole block — no partial
        append.  ``dispositions``, when given, must hold one
        ``DISPOSITION_*`` code per row and is checked just as early.  Row ids
        are assigned contiguously, so ``append`` and ``append_batch``
        interleave freely.
        """
        classes = np.asarray(classes, dtype=np.int64)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.float64)
        if classes.ndim != 1 or arrivals.shape != classes.shape or sizes.shape != classes.shape:
            raise SimulationError(
                "append_batch needs one-dimensional classes/arrivals/sizes of equal length"
            )
        k = classes.shape[0]
        rid0 = self._n
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if classes.min() < 0 or (
            self.num_classes is not None and classes.max() >= self.num_classes
        ):
            bound = "inf" if self.num_classes is None else self.num_classes
            raise SimulationError(
                f"append_batch: request class out of range [0, {bound}); "
                f"no rows were appended"
            )
        if dispositions is not None:
            given = np.asarray(dispositions)
            dispositions = given.astype(np.uint8, copy=False)
            if (
                given.shape != classes.shape
                or dispositions.max() > DISPOSITION_SHED
                or (dispositions != given).any()
            ):
                raise SimulationError(
                    "append_batch: dispositions need one DISPOSITION_* code per row; "
                    "no rows were appended"
                )
        while rid0 + k > self.capacity:
            self._grow()
        self._class_index[rid0 : rid0 + k] = classes
        self._arrival_time[rid0 : rid0 + k] = arrivals
        self._size[rid0 : rid0 + k] = sizes
        if dispositions is not None:
            self._disposition[rid0 : rid0 + k] = dispositions
        self._n = rid0 + k
        return np.arange(rid0, rid0 + k, dtype=np.int64)

    def arrivals_of(self, rids: np.ndarray) -> np.ndarray:
        """Arrival times of a block of row ids (vectorised gather)."""
        return self._arrival_time[rids]

    def sizes_of(self, rids: np.ndarray) -> np.ndarray:
        """Sizes of a block of row ids (vectorised gather)."""
        return self._size[rids]

    def classes_of(self, rids: np.ndarray) -> np.ndarray:
        """Class indices of a block of row ids (vectorised gather)."""
        return self._class_index[rids]

    def append(
        self,
        class_index: int,
        arrival_time: float,
        size: float,
        *,
        disposition: int = DISPOSITION_ADMITTED,
    ) -> int:
        """Record one arrival; returns the new row id."""
        class_index = int(class_index)
        if class_index < 0 or (self.num_classes is not None and class_index >= self.num_classes):
            bound = "inf" if self.num_classes is None else self.num_classes
            raise SimulationError(f"request class {class_index} out of range [0, {bound})")
        if disposition and disposition not in _DISPOSITIONS:
            raise SimulationError(f"disposition {disposition!r} is not a DISPOSITION_* code")
        rid = self._n
        if rid == self.capacity:
            self._grow()
        if disposition:
            self._disposition[rid] = disposition
        self._class_index[rid] = class_index
        self._arrival_time[rid] = arrival_time
        self._size[rid] = size
        self._n = rid + 1
        return rid

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start_service(self, rid: int, time: float) -> None:
        if self._disposition[rid] == DISPOSITION_SHED:
            raise SimulationError(f"request {rid} was shed and can never enter service")
        if not math.isnan(self._service_start[rid]):
            raise SimulationError(f"request {rid} started service twice")
        if time < self._arrival_time[rid] - _TIME_TOL:
            raise SimulationError(f"request {rid} started service before arriving")
        self._service_start[rid] = time

    def complete(self, rid: int, time: float, *, log: bool = True) -> None:
        """Complete row ``rid`` at ``time``; ``log=False`` leaves it out of
        the completion log, for batched drains whose caller merges several
        servers' runs by time before :meth:`log_completions`."""
        if math.isnan(self._service_start[rid]):
            raise SimulationError(f"request {rid} completed without starting service")
        if not math.isnan(self._completion[rid]):
            raise SimulationError(f"request {rid} completed twice")
        if time < self._service_start[rid] - _TIME_TOL:
            raise SimulationError(f"request {rid} completed before service started")
        self._completion[rid] = time
        if log:
            self._order[self._completed] = rid
            self._completed += 1

    def start_service_batch(self, rids: np.ndarray, times: np.ndarray) -> None:
        """Vectorised :meth:`start_service` for a block of rows.

        The same invariants are enforced (once per block): no row may start
        twice, and no start may precede its arrival beyond the time
        tolerance.  On violation nothing is written.
        """
        rids = np.asarray(rids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if rids.size == 0:
            return
        if np.any(self._disposition[rids] == DISPOSITION_SHED):
            raise SimulationError(
                "start_service_batch: a shed request can never enter service"
            )
        if not np.all(np.isnan(self._service_start[rids])):
            raise SimulationError("start_service_batch: a request started service twice")
        if np.any(times < self._arrival_time[rids] - _TIME_TOL):
            raise SimulationError("start_service_batch: a request started before arriving")
        self._service_start[rids] = times

    def complete_batch(self, rids: np.ndarray, times: np.ndarray) -> None:
        """Vectorised :meth:`complete` *without* the completion-order log.

        Batched server drains complete whole runs per server; the global
        completion log must stay time-sorted across servers, so the caller
        merges the per-server runs by time and records the merged order via
        :meth:`log_completions` — always pair the two calls.
        """
        rids = np.asarray(rids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if rids.size == 0:
            return
        starts = self._service_start[rids]
        if np.any(np.isnan(starts)):
            raise SimulationError("complete_batch: a request completed without starting service")
        if not np.all(np.isnan(self._completion[rids])):
            raise SimulationError("complete_batch: a request completed twice")
        if np.any(times < starts - _TIME_TOL):
            raise SimulationError("complete_batch: a request completed before service started")
        self._completion[rids] = times

    def serve_batch(self, rids: np.ndarray, starts: np.ndarray, times: np.ndarray) -> None:
        """:meth:`start_service_batch` then :meth:`complete_batch`, as one write.

        A drained FCFS run knows both timestamps of every row, so the six
        lifecycle invariants of the pair are checked in one boolean mask
        and one reduction: no row may be shed, start twice, start before
        arriving, complete twice or complete before its start — and since
        the start is written here, a completion without a start can only
        be a NaN start.  On violation the first failing check is reported
        with its own message and nothing is written.  Like
        :meth:`complete_batch` this does not touch the completion log.
        """
        arrivals = self._arrival_time[rids]
        ok = (
            (self._disposition[rids] != DISPOSITION_SHED)
            & np.isnan(self._service_start[rids])
            & (starts >= arrivals - _TIME_TOL)
            & np.isnan(self._completion[rids])
            & (times >= starts - _TIME_TOL)
        )
        if not ok.all():
            self._serve_batch_error(rids, starts, times, arrivals)
        self._service_start[rids] = starts
        self._completion[rids] = times

    def _serve_batch_error(
        self, rids: np.ndarray, starts: np.ndarray, times: np.ndarray, arrivals: np.ndarray
    ) -> None:
        """Raise the message of :meth:`serve_batch`'s first failing check.

        The checks partition the mask's failures, so one of them fires.
        """
        checks = (
            (self._disposition[rids] == DISPOSITION_SHED, "a shed request can never enter service"),
            (~np.isnan(self._service_start[rids]), "a request started service twice"),
            (np.isnan(starts), "a request completed without starting service"),
            (~(starts >= arrivals - _TIME_TOL), "a request started before arriving"),
            (~np.isnan(self._completion[rids]), "a request completed twice"),
            (~(times >= starts - _TIME_TOL), "a request completed before service started"),
        )
        for failed, message in checks:
            if failed.any():
                raise SimulationError(f"serve_batch: {message}")

    def log_completions(self, rids: np.ndarray, times: np.ndarray | None = None) -> None:
        """Append a time-sorted block of completed rows to the completion log.

        The companion of :meth:`complete_batch`.  ``times`` are the rows'
        completion times when the caller holds them (a drain's), read from
        the completion column otherwise.  The log is the backbone of every
        vectorised completion statistic, which assumes (and here verifies,
        on those times) that logged completion times never decrease.
        """
        rids = np.asarray(rids, dtype=np.int64)
        k = rids.shape[0]
        if k == 0:
            return
        if times is None:
            times = self._completion[rids]
        if np.any(np.isnan(times)):
            raise SimulationError("log_completions: a row has no completion time")
        last = self._completion[self._order[self._completed - 1]] if self._completed else -math.inf
        if times[0] < last or np.any(np.diff(times) < 0.0):
            raise SimulationError("log_completions: completion times out of order")
        self._order[self._completed : self._completed + k] = rids
        self._completed += k

    # ------------------------------------------------------------------ #
    # Vectorised derived metrics
    # ------------------------------------------------------------------ #
    def slowdowns(
        self, ids: np.ndarray | None = None, completions: np.ndarray | None = None
    ) -> np.ndarray:
        """Paper slowdowns (delay over actual service duration) for ``ids``
        (default: every completed request, in completion order);
        ``completions`` are their completion times when the caller holds
        them."""
        if ids is None:
            ids = self.completed_ids
        if completions is None:
            completions = self._completion[ids]
        start = self._service_start[ids]
        return (start - self._arrival_time[ids]) / (completions - start)

    def waiting_times(self, ids: np.ndarray | None = None) -> np.ndarray:
        if ids is None:
            ids = self.completed_ids
        return self._service_start[ids] - self._arrival_time[ids]

    # ------------------------------------------------------------------ #
    # Compact pickling: only the live rows cross process boundaries
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # Pickling a contiguous slice writes only its rows, and unpickling
        # builds fresh, writable arrays, so the views need no copy here.
        n, m = self._n, self._completed
        state = {
            "num_classes": self.num_classes,
            "class_index": self._class_index[:n],
            "arrival_time": self._arrival_time[:n],
            "size": self._size[:n],
            "service_start": self._service_start[:n],
            "completion": self._completion[:n],
            "disposition": self._disposition[:n],
            "order": self._order[:m],
        }
        if self._node is not None:
            state["node"] = self._node[:n]
        return state

    def __setstate__(self, state: dict) -> None:
        self.num_classes = state["num_classes"]
        self._class_index = state["class_index"]
        self._arrival_time = state["arrival_time"]
        self._size = state["size"]
        self._service_start = state["service_start"]
        self._completion = state["completion"]
        self._disposition = state["disposition"]
        self._node = state.get("node")
        self._n = int(self._class_index.shape[0])
        self._completed = int(state["order"].shape[0])
        # Pad the completion log back to full capacity so rows that were
        # in flight when the ledger was pickled can still complete.
        order = np.empty(max(self._n, 1), dtype=np.int64)
        order[: self._completed] = state["order"]
        self._order = order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestLedger(rows={self._n}, completed={self._completed}, "
            f"capacity={self.capacity}, num_classes={self.num_classes})"
        )
