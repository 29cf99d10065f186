"""Admission control for overload protection.

The related work (Sec. 5) combines priority scheduling with admission
control for differentiated services; the PSD allocation itself simply
becomes infeasible when the offered load reaches the capacity.  This module
provides pluggable admission policies that the simulator consults on every
arrival, so that overload experiments can be run without the queues growing
without bound:

* :class:`AlwaysAdmit` — the default (the paper's model admits everything);
* :class:`LoadThresholdAdmission` — shed a class's requests once the
  *estimated* total load exceeds a threshold, shedding lower classes first;
* :class:`QueueLengthAdmission` — shed a class's requests when its waiting
  queue reaches a per-class limit (a simple buffer-size model);
* :class:`repro.cluster.AdmissionController` — the cluster-wide
  quota-reserve controller with EWMA utilisation/backlog thresholds and the
  full accept → degrade → shed ladder.

The decision surface
--------------------
Policies implement ``decide(class_index, size, obs)``, which sees the
arriving request's class and size plus the boundary's
:class:`~repro.core.WindowObservation` and returns an
:class:`AdmissionDecision`: ``ACCEPT`` the request as-is, ``DEGRADE`` it to
a lower class (the policy's :meth:`~AdmissionPolicy.degrade_target` names
which), or ``SHED`` it.  A shed request may carry an optional *wait hint*
(:meth:`~AdmissionPolicy.wait_hint`) — how long a client should back off
before retrying; it rides a separate query rather than a per-decision
result object so ``decide`` stays allocation-free on the hot path.

Window-scoped policies and block decisions
------------------------------------------
A policy declaring ``window_scoped = True`` promises that its decisions
depend only on (a) state refreshed at estimation-window boundaries via
:meth:`~AdmissionPolicy.observe_window` (the observation's estimated loads,
budgets derived from its live capacity and outstanding work) and (b) the
policy's own per-decision counters — never on live per-arrival state such
as the instantaneous backlog.  The scenario then evaluates one
:meth:`~AdmissionPolicy.decide_block` per arrival block at the window
boundary; the default implementation replays ``decide`` scalar-for-scalar
(vectorised overrides must reproduce the exact same decision sequence and
float accumulation order).  Policies reading live state
(:class:`QueueLengthAdmission`) keep ``window_scoped = False``: the
scenario walks their arrivals one by one, calling ``decide`` with the
boundary's observation re-stamped to each arrival instant and its backlog
(``obs._replace(time=t, backlogs=...)``).  The server model reads that
backlog from state it keeps between drains (the pending counts of the
bank's completion calendar, booked to each arrival instant), so such a
policy runs on :class:`~repro.simulation.RateScalableServers` and clusters
only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..validation import require_count, require_in_range
from .observation import WindowObservation

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "LoadThresholdAdmission",
    "QueueLengthAdmission",
]


class AdmissionDecision(enum.IntEnum):
    """Graded admission outcomes, ordered from best to worst.

    The integer values deliberately match the request ledger's disposition
    codes (:data:`repro.simulation.ledger.DISPOSITION_ADMITTED` /
    ``DISPOSITION_DEGRADED`` / ``DISPOSITION_SHED``), so a block of
    decisions casts straight into the ledger's disposition column.
    """

    ACCEPT = 0
    DEGRADE = 1
    SHED = 2


class AdmissionPolicy:
    """Decides what happens to an arriving request: accept, degrade or shed.

    Subclasses override :meth:`decide`.
    """

    #: ``True`` promises decisions depend only on window-boundary state
    #: (refreshed via :meth:`observe_window`) plus the policy's own
    #: counters — the contract that lets the scenario decide a whole
    #: arrival block at the window boundary, bit-identically to deciding
    #: each arrival at its own instant.
    window_scoped: bool = False

    def decide(self, class_index: int, size: float, obs: WindowObservation) -> AdmissionDecision:
        """Return the :class:`AdmissionDecision` for one arriving request."""
        raise NotImplementedError(f"{type(self).__name__} must override decide()")

    def decide_block(
        self,
        classes: np.ndarray,
        sizes: np.ndarray,
        times: np.ndarray,
        obs: WindowObservation,
    ) -> np.ndarray:
        """Decisions for a time-ordered arrival block.

        Only consulted for ``window_scoped`` policies.  The default replays
        :meth:`decide` scalar-for-scalar, which is bit-identical to deciding
        at each arrival instant by construction; vectorised overrides must
        preserve the exact decision sequence *and* float accumulation order
        of their scalar ``decide``.  Returns an int array of
        :class:`AdmissionDecision` values, one per arrival.
        """
        decisions = np.empty(classes.shape[0], dtype=np.int64)
        decide = self.decide
        for i, (class_index, size) in enumerate(zip(classes.tolist(), sizes.tolist())):
            decisions[i] = int(decide(class_index, size, obs))
        return decisions

    def observe_window(self, obs: WindowObservation) -> None:
        """Hook called at run start and at every estimation-window boundary.

        ``obs`` describes the fleet that serves the next window: its live
        capacity and outstanding work, plus the controller's new estimated
        loads.  Window-scoped policies refresh *all* decision state here;
        the default is a no-op.
        """

    def degrade_target(self, class_index: int) -> int:
        """The class a ``DEGRADE`` decision downgrades ``class_index`` to.

        Must be a strictly lower class (larger index) and may depend only on
        the source class — block decisions map targets per class.  The
        default downgrades one step.
        """
        return class_index + 1

    def wait_hint(self, class_index: int, time: float) -> float | None:
        """Suggested client back-off after a ``SHED`` at ``time`` (or ``None``)."""
        return None

    def reset(self) -> None:
        """Clear any internal state (called between replications)."""


class AlwaysAdmit(AdmissionPolicy):
    """Admit everything — the paper's (implicit) policy."""

    window_scoped = True

    def decide(self, class_index: int, size: float, obs: WindowObservation) -> AdmissionDecision:
        return AdmissionDecision.ACCEPT

    def decide_block(
        self,
        classes: np.ndarray,
        sizes: np.ndarray,
        times: np.ndarray,
        obs: WindowObservation,
    ) -> np.ndarray:
        return np.zeros(classes.shape[0], dtype=np.int64)


@dataclass
class LoadThresholdAdmission(AdmissionPolicy):
    """Shed load class by class once the estimated total load crosses a threshold.

    ``thresholds[i]`` is the estimated total load above which class ``i`` is
    shed.  Giving lower classes lower thresholds sheds them first —
    differentiated overload protection.  A threshold of 1.0 (or more)
    effectively never sheds on estimation alone.

    The estimated loads only change at estimation-window boundaries, so the
    policy is ``window_scoped`` and decides whole arrival blocks.
    """

    thresholds: tuple[float, ...]
    rejected: list[int] = field(default_factory=list, init=False)
    window_scoped = True

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ParameterError("thresholds must be non-empty")
        checked = tuple(
            require_in_range(t, f"thresholds[{i}]", 0.0, 10.0)
            for i, t in enumerate(self.thresholds)
        )
        object.__setattr__(self, "thresholds", checked)
        self.rejected = [0] * len(checked)

    def decide(self, class_index: int, size: float, obs: WindowObservation) -> AdmissionDecision:
        if class_index >= len(self.thresholds):
            raise ParameterError(f"class {class_index} has no admission threshold configured")
        if obs.total_estimated_load > self.thresholds[class_index]:
            self.rejected[class_index] += 1
            return AdmissionDecision.SHED
        return AdmissionDecision.ACCEPT

    def decide_block(
        self,
        classes: np.ndarray,
        sizes: np.ndarray,
        times: np.ndarray,
        obs: WindowObservation,
    ) -> np.ndarray:
        """Vectorised: the load estimate is frozen for the whole window, so
        the decision is a per-class constant."""
        if classes.size and int(classes.max()) >= len(self.thresholds):
            raise ParameterError(
                f"class {int(classes.max())} has no admission threshold configured"
            )
        total = obs.total_estimated_load
        over = total > np.asarray(self.thresholds, dtype=np.float64)
        shed = over[classes]
        for c, count in enumerate(np.bincount(classes[shed], minlength=len(self.thresholds))):
            self.rejected[c] += int(count)
        return np.where(shed, int(AdmissionDecision.SHED), int(AdmissionDecision.ACCEPT))

    def reset(self) -> None:
        self.rejected = [0] * len(self.thresholds)


@dataclass
class QueueLengthAdmission(AdmissionPolicy):
    """Shed a class's arrivals while its waiting queue has reached a limit.

    An arrival is shed when its class's backlog (queued, not in service) is
    at least the class's limit, so a limit of ``n`` lets at most ``n``
    requests wait.  Limits are whole numbers >= 1.  Decisions read the
    *instantaneous* per-class backlog, so the policy is **not**
    window-scoped: the scenario walks its arrivals one by one.
    """

    limits: tuple[int, ...]
    rejected: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not self.limits:
            raise ParameterError("limits must be non-empty")
        limits = tuple(
            require_count(limit, f"limits[{i}]", 1) for i, limit in enumerate(self.limits)
        )
        object.__setattr__(self, "limits", limits)
        self.rejected = [0] * len(self.limits)

    def decide(self, class_index: int, size: float, obs: WindowObservation) -> AdmissionDecision:
        if class_index >= len(self.limits):
            raise ParameterError(f"class {class_index} has no queue limit configured")
        if obs.backlogs[class_index] >= self.limits[class_index]:
            self.rejected[class_index] += 1
            return AdmissionDecision.SHED
        return AdmissionDecision.ACCEPT

    def reset(self) -> None:
        self.rejected = [0] * len(self.limits)
