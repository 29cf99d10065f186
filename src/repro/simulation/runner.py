"""Multi-replication orchestration, serial or parallel.

Every data point in the paper is an average over 100 independent runs.
:class:`ReplicationRunner` spawns one child seed per replication (so
replications are independent and reproducible), executes a caller-supplied
simulation factory for each — serially or across ``workers`` forked
processes — and aggregates per-class slowdowns and slowdown ratios with
standard errors and normal-approximation confidence intervals.

Determinism contract: the child seeds are spawned once, in replication
order, from ``base_seed`` (``spawn_seed_sequences(base_seed, replications)``)
and the per-replication results are re-assembled in replication order before
aggregation.  A run with ``workers=N`` therefore produces *bit-for-bit* the
same :class:`ReplicationSummary` statistics as ``workers=1`` for the same
``base_seed``, regardless of worker count or completion order.

Parallel execution uses ``fork``-start multiprocessing so that arbitrary
build closures (the common idiom throughout the experiments) need not be
picklable; on platforms without ``fork`` the runner silently degrades to
serial execution, preserving results exactly.  Note that in parallel mode
any mutation the build callable performs on enclosing state happens in the
child process and is *not* visible to the parent — return everything you
need through the :class:`SimulationResult`.

Result transport: since the ledger refactor a worker's
:class:`SimulationResult` is dominated by a handful of NumPy columns (the
run's :class:`~repro.simulation.ledger.RequestLedger`) instead of lists of
per-request objects.  Results are pickled with protocol 5 so those columns
are extracted as out-of-band buffers; when the buffers of one result exceed
:data:`SHM_MIN_BYTES` they are shipped through one
``multiprocessing.shared_memory`` segment instead of the result queue's
pipe, which large trace-replay runs cross far faster.  Either route (and
any fallback when shared memory is unavailable) reassembles byte-identical
arrays, so aggregates never depend on the transport.  Workers also run each
result's cached measurement pass before encoding, so the parent reads no
ledger rows; serial runs measure lazily.

When the build callable *is* picklable (a module-level function or callable
dataclass — the experiment drivers' builds are), parallel batches are routed
through a persistent :class:`WorkerPool` of forked workers that is reused
across batches, amortising the fork + import cost that dominates small
(``quick``-preset) replication batches.  The pool changes nothing about the
results: the same child seeds are spawned in the same order and the results
are re-assembled by replication index, so the aggregates stay bit-for-bit
identical to serial execution.  Unpicklable builds transparently fall back
to the per-batch fork path.
"""

from __future__ import annotations

import atexit
import logging
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..distributions.rng import spawn_seed_sequences
from ..errors import SimulationError
from ..telemetry.log import get_logger, log_event
from .scenario import SimulationResult, _ratios_to_first

__all__ = [
    "ReplicationRunner",
    "ReplicationSummary",
    "ReplicatedStatistic",
    "WorkerPool",
    "shared_pool",
    "run_replications",
    "summarise_replications",
]

#: A build callable: ``build(replication_index, seed_sequence)`` constructs,
#: runs and returns one :class:`SimulationResult`.
BuildFn = Callable[[int, np.random.SeedSequence], SimulationResult]

_log = get_logger("runner")

try:  # pragma: no cover - import guard exercised via the fallback test
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None

#: A worker result whose out-of-band buffers total at least this many bytes
#: is routed through one ``multiprocessing.shared_memory`` segment instead
#: of the result queue's pipe.  Below it (the common case for the paper's
#: protocol) the pipe wins: a segment costs a file create/map/unlink.
SHM_MIN_BYTES = 1 << 20


class _SegmentOwner:
    """Keeps a decoded result's shared-memory mapping alive (zero-copy).

    The decoder maps a worker's column buffers straight out of the shared
    segment and unlinks the file immediately — POSIX keeps the mapping valid
    until the last close — so this object's only job is to delay that close
    until the result (which parks the owner on itself and its ledger) is
    garbage collected.
    """

    __slots__ = ("_segment",)

    def __init__(self, segment) -> None:
        self._segment = segment

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self._segment.close()
        except BufferError:
            # Some column view still references the mapping (the caller kept
            # a raw array past the result).  Detach our handles instead of
            # closing: the mmap is freed when the last view goes, and the
            # segment's own finaliser now has nothing left to close.
            self._segment._buf = None
            self._segment._mmap = None
        except Exception:
            pass


def _encode_result(result: SimulationResult, build_seconds: float | None = None) -> tuple:
    """Serialise one worker result for the trip back to the parent.

    Protocol-5 pickling splits the result into a small object-graph body and
    the raw NumPy column buffers.  Large buffer sets go to a shared-memory
    segment, each span aligned to 64 bytes so the parent can map the columns
    in place; everything else is shipped inline.  Both forms reassemble
    byte-identical arrays.

    The payload's *last* element is a profiling meta dict (transport route,
    payload bytes, encode/build wall-clock) that :func:`_decode_result`
    turns into the result's ``worker_profile``; it rides at the end so the
    positional accesses in :func:`_release_payload` (kind at 0, segment name
    at 2) stay valid.
    """
    encode_start = time.perf_counter()
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    views = [memoryview(b.raw()).cast("B") for b in buffers]
    total = sum(view.nbytes for view in views)
    meta = {
        "payload_bytes": len(body) + total,
        "build_seconds": build_seconds,
        "worker_pid": os.getpid(),
    }
    if _shared_memory is not None and total >= SHM_MIN_BYTES:
        spans = []
        position = 0
        for view in views:
            position = (position + 63) & ~63
            spans.append((position, view.nbytes))
            position += view.nbytes
        try:
            segment = _shared_memory.SharedMemory(create=True, size=max(position, 1))
        except OSError:
            segment = None  # e.g. /dev/shm missing or full: ship inline
        if segment is not None:
            for view, (start, nbytes) in zip(views, spans):
                segment.buf[start : start + nbytes] = view
            segment.close()
            meta["transport"] = "shm"
            meta["encode_seconds"] = time.perf_counter() - encode_start
            return "shm", body, segment.name, spans, meta
    inline = [bytes(view) for view in views]
    meta["transport"] = "inline"
    meta["encode_seconds"] = time.perf_counter() - encode_start
    return "inline", body, inline, meta


def _decode_result(payload: tuple) -> SimulationResult:
    """Reassemble a worker result encoded by :func:`_encode_result`.

    Shared-memory results are decoded zero-copy: the pickle buffers are
    memoryview slices of the mapped segment, so the parent's ledger columns
    *are* the worker's bytes — no copy, no allocation.  The parent takes
    ownership of the segment (unlinked immediately, mapping kept alive by a
    :class:`_SegmentOwner` parked on the result and its ledger) and the old
    copy-out path remains as the fallback if in-place reassembly fails.
    """
    decode_start = time.perf_counter()
    kind = payload[0]
    if kind == "shm":
        _, body, name, spans, meta = payload
        segment = _shared_memory.SharedMemory(name=name)
        try:
            result = pickle.loads(
                body, buffers=[segment.buf[pos : pos + size] for pos, size in spans]
            )
        except Exception:
            # Fall back to independent copies; then drop the mapping (any
            # half-built views die with the exception's object graph).
            buffers = [bytearray(segment.buf[pos : pos + size]) for pos, size in spans]
            _close_segment(segment, unlink=True)
            result = pickle.loads(body, buffers=buffers)
            return _stamp_profile(result, meta, decode_start)
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        owner = _SegmentOwner(segment)
        ledger = getattr(result, "ledger", None)
        if ledger is not None:
            ledger._buffer_owner = owner
        result._buffer_owner = owner
        return _stamp_profile(result, meta, decode_start)
    _, body, buffers, meta = payload
    result = pickle.loads(body, buffers=[bytearray(b) for b in buffers])
    return _stamp_profile(result, meta, decode_start)


def _stamp_profile(result, meta: dict, decode_start: float):
    """Attach transport + timing meta as the result's ``worker_profile``."""
    if hasattr(result, "worker_profile"):
        result.worker_profile = {**meta, "decode_seconds": time.perf_counter() - decode_start}
    return result


def _close_segment(segment, *, unlink: bool) -> None:
    """Close (and optionally unlink) a segment, tolerating exported views."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - exported views still alive
        segment._buf = None
        segment._mmap = None
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass


def _ensure_resource_tracker() -> None:
    """Start the multiprocessing resource tracker before forking workers.

    Shared-memory segments are created in forked children and unlinked in
    the parent.  If the tracker is first spawned lazily *inside* a child,
    each child gets a private tracker that never sees the parent's unlink
    and warns about "leaked" (actually long-gone) segments at shutdown;
    spawning it up front gives every fork the same tracker, so register
    (child) and unregister (parent) balance — and crash cleanup still works.
    """
    if _shared_memory is None:
        return
    try:  # pragma: no branch
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker is an optimisation only
        pass


def _release_payload(payload: tuple) -> None:
    """Free transport resources of a result that will never be decoded."""
    if payload and payload[0] == "shm":
        try:
            segment = _shared_memory.SharedMemory(name=payload[2])
        except FileNotFoundError:  # pragma: no cover - already reaped
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent reap
            pass


def _drain_undecoded(out: "multiprocessing.Queue") -> None:
    """Best-effort: release transport resources of results still queued.

    Called on teardown paths (worker failure, pool close) after the workers
    were stopped — possibly terminated mid-``put`` — so *any* error reading
    the queue (empty, torn pipe, truncated pickle) just ends the drain; it
    must never mask the failure that brought us here.
    """
    while True:
        try:
            _, undelivered, _ = out.get_nowait()
        except Exception:
            return
        if undelivered is not None:
            _release_payload(undelivered)


@dataclass(frozen=True)
class ReplicatedStatistic:
    """Mean, standard deviation and a 95% confidence half-width across replications."""

    mean: float
    std: float
    half_width_95: float
    n: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "ReplicatedStatistic":
        arr = np.asarray([s for s in samples if not math.isnan(s)], dtype=float)
        if arr.size == 0:
            return cls(float("nan"), float("nan"), float("nan"), 0)
        mean = float(np.mean(arr))
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        half = 1.96 * std / math.sqrt(arr.size) if arr.size > 1 else 0.0
        return cls(mean, std, half, int(arr.size))


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregated output of a batch of replications."""

    per_class_slowdowns: tuple[ReplicatedStatistic, ...]
    system_slowdown: ReplicatedStatistic
    ratios_to_first: tuple[ReplicatedStatistic, ...]
    results: tuple[SimulationResult, ...]

    @property
    def mean_slowdowns(self) -> tuple[float, ...]:
        return tuple(s.mean for s in self.per_class_slowdowns)

    @property
    def mean_ratios_to_first(self) -> tuple[float, ...]:
        """Mean over replications of each replication's own slowdown ratios.

        Heavy-tailed workloads make this estimator noisy (a replication with
        an unusually small class-1 slowdown dominates); prefer
        :attr:`ratio_of_mean_slowdowns` when a single robust ratio is needed.
        """
        return tuple(s.mean for s in self.ratios_to_first)

    @property
    def ratio_of_mean_slowdowns(self) -> tuple[float, ...]:
        """Ratios of the replication-averaged slowdowns to class 1's (NaN if 0 or NaN)."""
        return _ratios_to_first(self.mean_slowdowns)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _run_and_encode(build: BuildFn, index: int, seed: np.random.SeedSequence) -> tuple:
    """Run one replication in a worker, then measure and encode it there:
    the measurement pass runs in parallel, outside ``build_seconds``, over
    ledger pages that are still hot, and its small table rides the payload."""
    start = time.perf_counter()
    result = build(index, seed)
    build_seconds = time.perf_counter() - start
    result.monitor._measurement()
    return _encode_result(result, build_seconds=build_seconds)


def _worker(
    build: BuildFn,
    seeds: Sequence[np.random.SeedSequence],
    indices: Sequence[int],
    out: "multiprocessing.Queue",
) -> None:
    """Run a contiguous-by-stride slice of replications in a forked child.

    Results are pre-pickled inside the try block: the queue's feeder thread
    serialises asynchronously, so an unpicklable result would otherwise be
    dropped silently and surface as an uninformative dead-worker error.
    KeyboardInterrupt/SystemExit are deliberately not caught — they kill the
    child, which the parent's dead-worker check reports.
    """
    for index in indices:
        try:
            payload = _run_and_encode(build, index, seeds[index])
        except Exception:
            out.put((index, None, traceback.format_exc()))
            return
        out.put((index, payload, None))


class _PoolFallback(Exception):
    """Internal: a pool batch could not run; retry on the per-batch fork path.

    Raised for conditions that do not indicate a build failure — the build
    could not be deserialised in a worker (e.g. its module was imported
    after the pool forked) or a worker process died.  Retrying via the
    per-batch fork path yields identical results, so callers recover
    silently.
    """


def _pool_worker(tasks: "multiprocessing.Queue", out: "multiprocessing.Queue") -> None:
    """Long-lived worker loop: execute batches of replications until told to stop.

    Each task is ``(build_bytes, [(index, seed), ...])`` — only the worker's
    own slice of the seed tree crosses the queue.  The worker reports exactly
    one ``(index, payload, error)`` message per assigned index, where
    ``error`` is ``None`` or ``(kind, traceback_text)`` with kind
    ``"deserialize"`` (build could not be unpickled here — the parent falls
    back to per-batch forking) or ``"build"`` (the build itself raised).
    Unlike the one-shot :func:`_worker`, errors do not kill the worker: the
    pool outlives failed batches.
    """
    while True:
        task = tasks.get()
        if task is None:
            return
        build_bytes, assignments = task
        try:
            build = pickle.loads(build_bytes)
        except Exception:
            error = ("deserialize", traceback.format_exc())
            for index, _ in assignments:
                out.put((index, None, error))
            continue
        for index, seed in assignments:
            try:
                payload = _run_and_encode(build, index, seed)
            except Exception:
                out.put((index, None, ("build", traceback.format_exc())))
                continue
            out.put((index, payload, None))


class WorkerPool:
    """A persistent pool of forked replication workers, reusable across batches.

    The workers are forked lazily at the first :meth:`run_batch` (so they
    inherit every module imported up to that point) and then stay alive,
    amortising the fork cost over all subsequent batches.  Builds must be
    picklable to cross the task queue; :class:`ReplicationRunner` checks
    that and falls back to per-batch forking otherwise, so the pool never
    changes results — only wall-time.

    Two consequences of the one-time fork to be aware of:

    * workers carry the parent's state *as of the first batch* — a build
      must be a pure function of ``(index, seed)`` and its own pickled
      fields (already required by the determinism contract); one that reads
      module-level globals mutated between batches would see stale values;
    * the daemon workers (and their copy-on-write memory snapshot) stay
      alive until :meth:`close` or interpreter exit — long-lived host
      processes that are done replicating should close their pools (the
      process-wide :func:`shared_pool` is closed automatically at exit).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise SimulationError(f"a worker pool needs >= 1 workers, got {workers}")
        if not _fork_available():
            raise SimulationError("WorkerPool requires fork-start multiprocessing")
        self.workers = int(workers)
        self._processes: list = []
        self._task_queues: list = []
        self._out = None
        self.broken = False
        self.closed = False

    @property
    def started(self) -> bool:
        return bool(self._processes)

    def _ensure_started(self) -> None:
        if self.closed or self.broken:
            raise SimulationError("worker pool is closed")
        if self._processes:
            return
        _ensure_resource_tracker()
        ctx = multiprocessing.get_context("fork")
        self._out = ctx.Queue()
        self._task_queues = [ctx.Queue() for _ in range(self.workers)]
        self._processes = [
            ctx.Process(target=_pool_worker, args=(tasks, self._out), daemon=True)
            for tasks in self._task_queues
        ]
        for process in self._processes:
            process.start()

    def run_batch(
        self, build_payload: bytes, seeds: Sequence[np.random.SeedSequence]
    ) -> list[SimulationResult]:
        """Run one batch of replications (one pickled build, one seed per index).

        Unlike the per-batch fork path, a failing build does not abort the
        rest of the batch: the pool must drain every in-flight message to
        stay reusable, so the error is raised only after the batch
        completes (with the lowest failing index, deterministically).
        """
        self._ensure_started()
        # Strided slices, a pure function of (len(seeds), workers) — the
        # same deterministic split the per-batch fork path uses.
        for start, tasks in enumerate(self._task_queues):
            assignments = [
                (index, seeds[index]) for index in range(start, len(seeds), self.workers)
            ]
            if assignments:
                tasks.put((build_payload, assignments))
        results: list[SimulationResult | None] = [None] * len(seeds)
        failures: list[tuple[int, str]] = []
        fallback = False
        remaining = len(seeds)
        while remaining:
            try:
                index, payload, error = self._out.get(timeout=1.0)
            except queue_module.Empty:
                if not all(p.is_alive() for p in self._processes):
                    # A dead worker cannot report its slice; the batch is
                    # unrecoverable here but deterministic to re-run.
                    self.broken = True
                    self.close()
                    raise _PoolFallback("a pool worker died mid-batch") from None
                continue
            remaining -= 1
            if error is not None:
                kind, text = error
                if kind == "deserialize":
                    fallback = True
                else:
                    failures.append((index, text))
            else:
                results[index] = _decode_result(payload)
        if fallback:
            raise _PoolFallback("build could not be deserialised in pool workers")
        if failures:
            index, text = min(failures)
            raise SimulationError(f"replication {index} failed in a worker process:\n{text}")
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Stop the workers and release the queues; the pool is single-use."""
        if self.closed:
            return
        self.closed = True
        for tasks in self._task_queues:
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue torn down
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join()
        # Results still queued when the pool goes down (dead-worker batches,
        # host processes closing early) are never decoded; release the
        # shared-memory segments they may hold.
        if self._out is not None:
            _drain_undecoded(self._out)


_shared_pool: WorkerPool | None = None


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide worker pool, (re)sized to at least ``workers``.

    Reused by every :class:`ReplicationRunner` whose build is picklable; a
    request for more workers than the current pool has replaces it (an
    over-sized pool serves smaller batches by leaving workers idle, so
    shrinking is never necessary).
    """
    global _shared_pool
    pool = _shared_pool
    if pool is None or pool.closed or pool.broken or pool.workers < workers:
        if pool is not None:
            pool.close()
        pool = WorkerPool(workers)
        _shared_pool = pool
    return pool


@atexit.register
def _close_shared_pool() -> None:  # pragma: no cover - interpreter shutdown
    if _shared_pool is not None:
        _shared_pool.close()


@dataclass(frozen=True)
class ReplicationRunner:
    """Runs N independent replications and aggregates their statistics.

    Parameters
    ----------
    replications:
        Number of independent simulation runs.
    base_seed:
        Root of the seed tree; one child ``SeedSequence`` is spawned per
        replication, in replication order.
    workers:
        ``1`` (default) runs serially in-process.  ``N > 1`` forks ``N``
        worker processes, each executing a deterministic slice of the
        replication indices.  ``0`` or ``None`` auto-sizes to the CPU count;
        negative values are rejected.  The aggregated summary is bit-for-bit
        identical for every value.
    pool:
        Optional persistent :class:`WorkerPool` to execute parallel batches
        on.  ``None`` (default) uses the process-wide :func:`shared_pool`
        when the build is picklable, otherwise forks per batch; either way
        the results are identical.

    Error contract: an exception raised by ``build`` propagates unchanged in
    serial mode; in parallel mode it surfaces as a :class:`SimulationError`
    carrying the failing replication index and the child's traceback (the
    original exception object cannot cross the process boundary reliably).
    """

    replications: int
    base_seed: int | np.random.SeedSequence | None = 0
    workers: int | None = 1
    pool: WorkerPool | None = None

    def resolved_workers(self) -> int:
        """The number of worker processes a :meth:`run` call will use."""
        if self.workers is not None and self.workers < 0:
            raise SimulationError(f"workers must be >= 0, got {self.workers}")
        if self.workers is None or self.workers == 0:
            if hasattr(os, "sched_getaffinity"):
                limit = len(os.sched_getaffinity(0)) or 1
            else:  # pragma: no cover - non-Linux
                limit = os.cpu_count() or 1
        else:
            limit = self.workers
        return max(1, min(limit, self.replications))

    def run(self, build: BuildFn) -> ReplicationSummary:
        """Execute ``build`` for every replication and aggregate the results."""
        return summarise_replications(self.run_raw(build))

    def run_raw(self, build: BuildFn) -> list[SimulationResult]:
        """Execute every replication and return the results in index order."""
        if self.replications <= 0:
            raise SimulationError("replications must be > 0")
        seeds = spawn_seed_sequences(self.base_seed, self.replications)
        workers = self.resolved_workers()
        if workers <= 1 or not _fork_available():
            if workers > 1:
                log_event(
                    _log,
                    logging.WARNING,
                    "runner.serial_fallback",
                    reason="fork-start multiprocessing unavailable",
                    workers=workers,
                )
            return self._run_serial(build, seeds)
        try:
            payload = pickle.dumps(build)
        except Exception:
            # Closures et al.: the per-batch fork path handles them.
            log_event(
                _log,
                logging.DEBUG,
                "runner.unpicklable_build",
                build=type(build).__name__,
            )
            payload = None
        if payload is not None:
            pool = self.pool if self.pool is not None else shared_pool(workers)
            # An explicit pool that was closed (or broke in an earlier
            # batch) degrades to per-batch forking instead of erroring —
            # the pool only ever changes wall-time, never availability.
            if not (pool.closed or pool.broken):
                try:
                    return pool.run_batch(payload, seeds)
                except _PoolFallback as fallback:
                    # A deserialize fallback means the workers pre-date the
                    # build's module; retiring the *shared* pool lets the
                    # next batch re-fork with the module imported and regain
                    # pooling (an explicit pool is the caller's to manage).
                    log_event(
                        _log,
                        logging.INFO,
                        "runner.pool_fallback",
                        reason=str(fallback),
                        workers=workers,
                    )
                    if self.pool is None and not pool.closed:
                        pool.close()
        return self._run_parallel(build, seeds, workers)

    @staticmethod
    def _run_serial(
        build: BuildFn, seeds: Sequence[np.random.SeedSequence]
    ) -> list[SimulationResult]:
        """In-process execution, stamping each result's ``worker_profile``."""
        results = []
        for index, seed in enumerate(seeds):
            start = time.perf_counter()
            result = build(index, seed)
            if hasattr(result, "worker_profile") and result.worker_profile is None:
                result.worker_profile = {
                    "transport": "serial",
                    "build_seconds": time.perf_counter() - start,
                    "worker_pid": os.getpid(),
                }
            results.append(result)
        return results

    # ------------------------------------------------------------------ #
    # Parallel execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _run_parallel(
        build: BuildFn, seeds: list[np.random.SeedSequence], workers: int
    ) -> list[SimulationResult]:
        _ensure_resource_tracker()
        ctx = multiprocessing.get_context("fork")
        out: multiprocessing.Queue = ctx.Queue()
        # Strided slices balance heterogeneous replication costs and are a
        # pure function of (replications, workers) — never of timing.
        slices = [list(range(start, len(seeds), workers)) for start in range(workers)]
        processes = [
            ctx.Process(target=_worker, args=(build, seeds, indices, out), daemon=True)
            for indices in slices
            if indices
        ]
        for process in processes:
            process.start()
        results: list[SimulationResult | None] = [None] * len(seeds)
        failure: tuple[int, str] | None = None
        remaining = len(seeds)
        try:
            while remaining and failure is None:
                try:
                    index, result, error = out.get(timeout=1.0)
                except queue_module.Empty:
                    if not any(p.is_alive() for p in processes) and out.empty():
                        raise SimulationError(
                            "a replication worker died without reporting a result"
                        ) from None
                    continue
                remaining -= 1
                if error is not None:
                    failure = (index, error)
                else:
                    results[index] = _decode_result(result)
        finally:
            if failure is not None or remaining:
                for process in processes:
                    process.terminate()
            for process in processes:
                process.join()
            # Results still queued after a failure are never decoded; free
            # any shared-memory segments they carry.
            _drain_undecoded(out)
        if failure is not None:
            index, error = failure
            raise SimulationError(f"replication {index} failed in a worker process:\n{error}")
        return results  # type: ignore[return-value]


def run_replications(
    build: BuildFn,
    *,
    replications: int,
    base_seed: int | np.random.SeedSequence | None = 0,
    workers: int | None = 1,
    pool: WorkerPool | None = None,
) -> ReplicationSummary:
    """Run ``replications`` independent simulations and aggregate them.

    Convenience wrapper over :class:`ReplicationRunner`;
    ``build(replication_index, seed_sequence)`` must construct, run and
    return one :class:`SimulationResult`.  Seeds are spawned from
    ``base_seed`` so each replication gets an independent stream; the
    aggregate is identical for every ``workers`` value.
    """
    return ReplicationRunner(
        replications=replications, base_seed=base_seed, workers=workers, pool=pool
    ).run(build)


def summarise_replications(results: Sequence[SimulationResult]) -> ReplicationSummary:
    """Aggregate already-computed simulation results."""
    if not results:
        raise SimulationError("results must be non-empty")
    num_classes = len(results[0].classes)
    for r in results:
        if len(r.classes) != num_classes:
            raise SimulationError("all replications must have the same number of classes")

    slowdown_samples: list[list[float]] = [[] for _ in range(num_classes)]
    ratio_samples: list[list[float]] = [[] for _ in range(num_classes)]
    system_samples: list[float] = []
    for r in results:
        means = r.per_class_mean_slowdowns()
        system_samples.append(r.system_mean_slowdown())
        for c, (value, ratio) in enumerate(zip(means, _ratios_to_first(means))):
            slowdown_samples[c].append(value)
            ratio_samples[c].append(ratio)

    return ReplicationSummary(
        per_class_slowdowns=tuple(
            ReplicatedStatistic.from_samples(s) for s in slowdown_samples
        ),
        system_slowdown=ReplicatedStatistic.from_samples(system_samples),
        ratios_to_first=tuple(ReplicatedStatistic.from_samples(s) for s in ratio_samples),
        results=tuple(results),
    )
