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

Parallel execution runs on a persistent :class:`WorkerPool` of
``fork``-started workers, reused across batches to amortise the fork and
import cost that dominates small (``quick``-preset) batches.  A picklable
build (a module-level function or callable dataclass, as the experiment
drivers use) crosses the pool's task queue as bytes.  A build the current
workers cannot run — a closure, or one whose module was imported after they
forked — is inherited instead: the pool re-forks its workers with the build
in a module global.  On platforms without ``fork`` the runner silently
degrades to serial execution, preserving results exactly.  Note that in
parallel mode any mutation the build callable performs on enclosing state
happens in a worker and is *not* visible to the parent — return everything
you need through the :class:`SimulationResult`.

Result transport: a worker runs each result's cached measurement pass, then
pickles the result (protocol 5, column buffers in band) and sends it home
over the result queue's pipe, so the parent reads no ledger rows; serial
runs measure lazily.  A worker that dies mid-batch costs the batch one
retry on fresh workers; a second death raises :class:`SimulationError`.
"""

from __future__ import annotations

import atexit
import logging
import math
import os
import pickle
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


class _Chunks(list):
    """A pickle sink that keeps every write, column buffers uncopied."""

    write = list.append


def _encode_result(result: SimulationResult, build_seconds: float | None = None) -> tuple:
    """Serialise one worker result for the trip home: ``(body, meta)``.

    ``body`` is one protocol-5 pickle with the ledger's column buffers in
    band; ``meta`` (payload bytes, encode/build wall-clock, worker pid)
    becomes the decoded result's ``worker_profile``.  The body is the bytes
    ``pickle.dumps`` would return, but joined from the pickler's writes in
    one allocation: ``pickle.dumps`` grows its buffer by reallocation, which
    page-faults afresh on every MiB-sized result (≈3 ms per ``paper_single``
    replication on a 2-vCPU VM, against ≈1 ms joined).
    """
    encode_start = time.perf_counter()
    chunks = _Chunks()
    pickler = pickle.Pickler(chunks, protocol=5)
    pickler.dump(result)
    body = b"".join(chunks)  # while the pickler's memo keeps every source alive
    meta = {
        "transport": "inline",
        "payload_bytes": len(body),
        "build_seconds": build_seconds,
        "worker_pid": os.getpid(),
        "encode_seconds": time.perf_counter() - encode_start,
    }
    return body, meta


def _decode_result(payload: tuple) -> SimulationResult:
    """Reassemble a worker result encoded by :func:`_encode_result`."""
    decode_start = time.perf_counter()
    body, meta = payload
    result = pickle.loads(body)
    if hasattr(result, "worker_profile"):
        result.worker_profile = {**meta, "decode_seconds": time.perf_counter() - decode_start}
    return result


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
    def ratio_of_mean_slowdowns(self) -> tuple[float, ...]:
        """Ratios of the replication-averaged slowdowns to class 1's (NaN if 0 or NaN)."""
        return _ratios_to_first(self.mean_slowdowns)


def _fork_available() -> bool:
    import multiprocessing  # only a pool needs it: serial runs never load it

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


#: The build a re-forked pool's workers inherit, so their tasks carry
#: ``None`` instead of its bytes.  Set in the parent only while it forks.
_inherited_build: BuildFn | None = None


def _pool_worker(tasks, out) -> None:
    """Long-lived worker loop: execute batches of replications until told to stop.

    Each task is ``(build_bytes, [(index, seed), ...])`` — only the worker's
    own slice of the seed tree crosses the queue, and ``build_bytes`` is
    ``None`` when the worker inherited the build at fork.  The worker
    reports exactly one ``(index, payload, error)`` message per assigned
    index, where ``error`` is ``None`` or ``(kind, traceback_text)`` with
    kind ``"deserialize"`` (the build could not be unpickled here — the pool
    re-forks with it inherited) or ``"build"`` (the build raised, or its
    result would not pickle).  Errors do not kill the worker: the pool
    outlives failed batches.
    """
    while True:
        task = tasks.get()
        if task is None:
            return
        build_bytes, assignments = task
        try:
            build = _inherited_build if build_bytes is None else pickle.loads(build_bytes)
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


class _WorkerDied(SimulationError):
    """A pool worker died before reporting its slice of a batch."""


class WorkerPool:
    """A persistent pool of forked replication workers, reusable across batches.

    The workers are forked lazily at the first :meth:`run_batch` (so they
    inherit every module imported up to that point) and then stay alive,
    amortising the fork cost over all subsequent batches.  A build that
    does not pickle, or that the workers cannot unpickle, makes the pool
    re-fork its workers with the build inherited; either way the pool
    never changes results — only wall-time.

    Two consequences of forking once to be aware of:

    * workers carry the parent's state *as of their fork* — a build must be
      a pure function of ``(index, seed)`` and its own fields (already
      required by the determinism contract); one that reads module-level
      globals mutated between batches would see stale values;
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

    def _fork(self, inherited: BuildFn | None = None) -> None:
        """(Re)fork the workers; they inherit ``inherited`` as their build."""
        global _inherited_build
        self._stop()
        if inherited is not None:
            log_event(
                _log,
                logging.INFO,
                "runner.pool_refork",
                build=type(inherited).__name__,
                workers=self.workers,
            )
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._out = ctx.Queue()
        self._task_queues = [ctx.Queue() for _ in range(self.workers)]
        self._processes = [
            ctx.Process(target=_pool_worker, args=(tasks, self._out), daemon=True)
            for tasks in self._task_queues
        ]
        _inherited_build = inherited
        try:
            for process in self._processes:
                process.start()
        finally:
            _inherited_build = None

    def run_batch(
        self, build: BuildFn, seeds: Sequence[np.random.SeedSequence]
    ) -> list[SimulationResult]:
        """Run one batch of replications (one build, one seed per index).

        A failing build does not abort the rest of the batch: the pool
        drains every in-flight message to stay reusable, so the error is
        raised only after the batch completes (with the lowest failing
        index, deterministically).  Any other exception while the batch
        runs — a dead worker, a result the parent cannot unpickle, Ctrl-C —
        leaves its messages queued, so it closes the pool and marks it
        broken.
        """
        if self.closed or self.broken:
            raise SimulationError("worker pool is closed")
        try:
            payload = pickle.dumps(build)
        except Exception:
            payload = None
        if payload is None:
            self._fork(build)
        elif not self._processes:
            self._fork()
        results = self._collect(payload, seeds)
        if results is None:
            # The workers predate the build's module: inherit it instead.
            self._fork(build)
            results = self._collect(None, seeds)
        return results

    def _collect(
        self, payload: bytes | None, seeds: Sequence[np.random.SeedSequence]
    ) -> list[SimulationResult] | None:
        """Run a batch on the current workers; ``None`` if they could not
        unpickle its build."""
        from multiprocessing.connection import wait  # loaded by the queues, not by serial runs

        results: list[SimulationResult | None] = [None] * len(seeds)
        pending = set(range(len(seeds)))
        failures: list[tuple[int, str]] = []
        undeserialisable = False
        try:
            # Strided slices balance heterogeneous replication costs and are
            # a pure function of (len(seeds), workers) — never of timing.
            for start, tasks in enumerate(self._task_queues):
                assignments = [
                    (index, seeds[index]) for index in range(start, len(seeds), self.workers)
                ]
                if assignments:
                    tasks.put((payload, assignments))
            # Wait on the result pipe and every worker's exit at once.  The
            # pipe is read first: what a dead worker sent still counts, and
            # only a quiet pipe leaves its unreported replications lost.
            reader = self._out._reader
            alive = {process.sentinel: worker for worker, process in enumerate(self._processes)}
            while pending:
                ready = wait([reader, *alive])
                if reader not in ready:
                    dead = {alive.pop(sentinel) for sentinel in ready}
                    lost = sorted(i for i in pending if i % self.workers in dead)
                    if lost:
                        raise _WorkerDied(
                            f"a pool worker died mid-batch; replications {lost} never reported"
                        )
                    continue
                index, encoded, error = self._out.get()
                pending.discard(index)
                if error is None:
                    try:
                        results[index] = _decode_result(encoded)
                    except Exception as exc:
                        raise SimulationError(
                            f"replication {index}'s result could not be unpickled: {exc!r}"
                        ) from exc
                elif error[0] == "deserialize":
                    undeserialisable = True
                else:
                    failures.append((index, error[1]))
        except BaseException:
            self.broken = True
            self.close()
            raise
        if undeserialisable:
            return None
        if failures:
            index, text = min(failures)
            raise SimulationError(f"replication {index} failed in a worker process:\n{text}")
        return results  # type: ignore[return-value]

    def _stop(self) -> None:
        """Stop the current workers; a broken pool's are terminated at once."""
        for tasks in self._task_queues:
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue torn down
                pass
        for process in self._processes:
            if not self.broken:
                process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
            process.join()
        self._processes, self._task_queues, self._out = [], [], None

    def close(self) -> None:
        """Stop the workers and release the queues; the pool is single-use."""
        if not self.closed:
            self.closed = True
            self._stop()


_shared_pool: WorkerPool | None = None


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide worker pool, (re)sized to at least ``workers``.

    Serves every :class:`ReplicationRunner` without a usable pool of its
    own; a request for more workers than the current pool has replaces it
    (an over-sized pool serves smaller batches by leaving workers idle, so
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
        ``1`` (default) runs serially in-process.  ``N > 1`` runs on ``N``
        forked worker processes, each executing a deterministic slice of the
        replication indices.  ``0`` or ``None`` auto-sizes to the CPU count;
        negative values are rejected.  The aggregated summary is bit-for-bit
        identical for every value.
    pool:
        Optional persistent :class:`WorkerPool` to execute parallel batches
        on.  ``None`` (default), or a pool that is closed or broken, uses
        the process-wide :func:`shared_pool`; either way the results are
        identical.

    Error contract: an exception raised by ``build`` propagates unchanged in
    serial mode; in parallel mode it surfaces as a :class:`SimulationError`
    carrying the failing replication index and the worker's traceback (the
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
            return self._pool_for(workers).run_batch(build, seeds)
        except _WorkerDied as died:
            # The pool that lost a worker closed itself; retry once on a
            # fresh one.  A second death propagates.
            log_event(_log, logging.WARNING, "runner.worker_died", reason=str(died))
            return self._pool_for(workers).run_batch(build, seeds)

    def _pool_for(self, workers: int) -> WorkerPool:
        """The explicit pool while it is usable, else the shared one."""
        pool = self.pool
        if pool is None or pool.closed or pool.broken:
            return shared_pool(workers)
        return pool

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
