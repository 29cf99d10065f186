"""Cluster-wide admission control: quota reserves behind EWMA thresholds.

The PSD allocation goes infeasible past load 1 — the churn/hetero benches
show the ~50× unfinished-request collapse of an admission-blind cluster.
:class:`AdmissionController` is the cluster-level defence: a
``window_scoped`` :class:`~repro.core.AdmissionPolicy` that budgets each
estimation window from one :class:`~repro.core.WindowObservation` — its
live capacity and outstanding work, read from the fleet that serves the
next window — and walks every arrival down the accept → degrade → shed
ladder:

1. **Quota reserve** — each class owns ``quota_shares[c]`` of the window's
   work budget; while its cumulative demand fits the reserve, ACCEPT.
2. **Shared pool** — the unreserved remainder of the budget.  Overflowing
   arrivals draw from it while the EWMA utilisation stays below
   ``shed_threshold``; they are ACCEPTed, or DEGRADEd to the lowest class
   once utilisation crosses ``degrade_threshold``.
3. **Shed** — overflow past the pool (or any overflow with utilisation at
   or above ``shed_threshold``) is SHED, with a wait hint pointing at the
   first *projected* window with class headroom (``None`` when sustained
   overload leaves no such window within ``hint_horizon`` windows).

Budget accounting is *cumulative add-then-test*: every arrival's size is
charged to its reserve (and, on overflow, the pool) whether or not it is
ultimately admitted, so a window's decisions are a monotone function of
cumulative demand.  That is what makes the vectorised
:meth:`AdmissionController.decide_block` exact — one ``np.cumsum`` per
class reproduces the scalar ``+=`` left fold bit-for-bit, so block
decisions agree with per-arrival ``decide`` calls to the last bit.

The module also hosts the ``ADMISSION_POLICIES`` registry and
:func:`build_admission` factory (mirroring ``PARTITIONERS`` /
``build_partitioner``), which keep experiment builds picklable: builds
carry the policy *name + argument tokens* across process boundaries and
construct the policy fresh in the worker.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from ..core.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AlwaysAdmit,
    LoadThresholdAdmission,
    QueueLengthAdmission,
)
from ..core.observation import WindowObservation
from ..errors import ParameterError
from ..validation import build_policy, require_count, require_in_range, require_non_negative

__all__ = [
    "AdmissionController",
    "ADMISSION_POLICIES",
    "build_admission",
]


class AdmissionController(AdmissionPolicy):
    """Quota-reserve admission with EWMA utilisation/backlog thresholds.

    Parameters
    ----------
    quota_shares:
        Per-class fractions of each window's work budget held in reserve,
        one entry per traffic class; their sum must be ≤ 1 and whatever is
        unreserved becomes the shared overflow pool.
    target_utilisation:
        Fraction of the fleet's live capacity the controller budgets per
        window (< 1 leaves headroom to drain transients).
    degrade_threshold / shed_threshold:
        EWMA-utilisation levels at which pool overflow is degraded to the
        lowest class, respectively shed outright (``degrade_threshold ≤
        shed_threshold``).
    ewma_alpha:
        Smoothing factor of the utilisation/backlog EWMAs in ``(0, 1]``
        (1 = no smoothing).
    drain_factor:
        How much of the EWMA backlog work is subtracted from each window's
        budget — the knob that makes an overloaded window pay down the
        queue instead of re-filling it.

    The controller is ``window_scoped``: every decision input is refreshed
    in :meth:`observe_window` (fired at run start and each estimation-window
    boundary), so block decisions are bit-identical to deciding each arrival
    at its own instant.
    """

    window_scoped = True

    def __init__(
        self,
        quota_shares: Sequence[float] = (0.4, 0.4),
        *,
        target_utilisation: float = 0.95,
        degrade_threshold: float = 0.85,
        shed_threshold: float = 1.0,
        ewma_alpha: float = 0.3,
        drain_factor: float = 0.5,
        hint_horizon: int = 64,
    ) -> None:
        if isinstance(quota_shares, (int, float)):
            quota_shares = (float(quota_shares),)
        shares = tuple(
            require_in_range(share, f"quota_shares[{i}]", 0.0, 1.0)
            for i, share in enumerate(quota_shares)
        )
        if not shares:
            raise ParameterError("quota_shares must be non-empty")
        if sum(shares) > 1.0 + 1e-12:
            raise ParameterError(f"quota_shares must sum to <= 1, got {sum(shares)}")
        self.quota_shares = shares
        self.num_classes = len(shares)
        self.target_utilisation = require_in_range(
            target_utilisation, "target_utilisation", 0.0, 2.0, inclusive_low=False
        )
        self.degrade_threshold = require_non_negative(degrade_threshold, "degrade_threshold")
        self.shed_threshold = require_non_negative(shed_threshold, "shed_threshold")
        if self.degrade_threshold > self.shed_threshold:
            raise ParameterError(
                f"degrade_threshold ({self.degrade_threshold}) must not exceed "
                f"shed_threshold ({self.shed_threshold})"
            )
        self.ewma_alpha = require_in_range(
            ewma_alpha, "ewma_alpha", 0.0, 1.0, inclusive_low=False
        )
        self.drain_factor = require_non_negative(drain_factor, "drain_factor")
        self.hint_horizon = require_count(hint_horizon, "hint_horizon")
        #: Per-class decision counters, mirroring the shipped policies'
        #: ``rejected`` surface.
        self.accepted = [0] * self.num_classes
        self.degraded = [0] * self.num_classes
        self.rejected = [0] * self.num_classes
        self._shares = np.asarray(shares, dtype=np.float64)
        self._pool_share = max(1.0 - float(sum(shares)), 0.0)
        self.reset()

    # ------------------------------------------------------------------ #
    # Window budgeting
    # ------------------------------------------------------------------ #
    def observe_window(self, obs: WindowObservation) -> None:
        """Re-budget for the next window from the boundary observation.

        Fired by the scenario at run start and at every estimation-window
        boundary (after the controller's new rates and any fleet events are
        applied), so the decision state below is path-independent.
        """
        capacity = obs.live_capacity
        if self._window_span > 0.0 and capacity > 0.0:
            # Utilisation sample of the window that just ended: admitted
            # work over deliverable work.
            sample = float(self._admitted_work) / (capacity * self._window_span)
            self._util += self.ewma_alpha * (sample - self._util)
        if self._window_span > 0.0:
            # Per-class demand of the window that just ended: everything
            # charged to the reserve (admitted or not) — the series
            # wait_hint projects forward.
            self._demand_ewma += self.ewma_alpha * (self._reserve_used - self._demand_ewma)
        self._backlog_ewma += self.ewma_alpha * (obs.backlog_work - self._backlog_ewma)
        self._capacity = capacity
        budget = max(
            self.target_utilisation * capacity * obs.window
            - self.drain_factor * self._backlog_ewma,
            0.0,
        )
        self._reserve = budget * self._shares
        self._pool = budget * self._pool_share
        self._reserve_used = np.zeros(self.num_classes, dtype=np.float64)
        self._pool_used = 0.0
        self._admitted_work = 0.0
        self._window_span = obs.window
        self._window_end = obs.time + obs.window

    # ------------------------------------------------------------------ #
    # The ladder — scalar reference implementation
    # ------------------------------------------------------------------ #
    def decide(self, class_index: int, size: float, obs: WindowObservation) -> AdmissionDecision:
        if not 0 <= class_index < self.num_classes:
            raise ParameterError(
                f"class {class_index} has no quota share configured "
                f"(policy covers {self.num_classes} classes)"
            )
        used = self._reserve_used[class_index] + size
        self._reserve_used[class_index] = used
        if used <= self._reserve[class_index]:
            self.accepted[class_index] += 1
            self._admitted_work = self._admitted_work + size
            return AdmissionDecision.ACCEPT
        if self._util >= self.shed_threshold:
            self.rejected[class_index] += 1
            return AdmissionDecision.SHED
        pool_used = self._pool_used + size
        self._pool_used = pool_used
        if pool_used <= self._pool:
            self._admitted_work = self._admitted_work + size
            if self._util >= self.degrade_threshold and class_index < self.num_classes - 1:
                self.degraded[class_index] += 1
                return AdmissionDecision.DEGRADE
            self.accepted[class_index] += 1
            return AdmissionDecision.ACCEPT
        self.rejected[class_index] += 1
        return AdmissionDecision.SHED

    # ------------------------------------------------------------------ #
    # The ladder — vectorised (bit-identical to scalar replay)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _charge(base: float, amounts: np.ndarray) -> np.ndarray:
        """Cumulative totals of ``base`` then each amount, as the scalar
        ``+=`` left fold produces them (base prepended before the cumsum,
        so every partial sum associates exactly like repeated scalar adds)."""
        seq = np.empty(amounts.shape[0] + 1, dtype=np.float64)
        seq[0] = base
        seq[1:] = amounts
        return np.cumsum(seq)

    def decide_block(
        self,
        classes: np.ndarray,
        sizes: np.ndarray,
        times: np.ndarray,
        obs: WindowObservation,
    ) -> np.ndarray:
        """The ladder over a block in a fixed handful of NumPy calls.

        Decisions start at ACCEPT; one cumulative sum per class (the
        reserves) and one for the block's overflow (the pool) move the rest,
        each the exact ``_charge`` left fold of the scalar ``+=`` adds, and
        the three per-class counters come from one ``bincount``.
        """
        classes = np.asarray(classes, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.float64)
        k = classes.shape[0]
        num_classes = self.num_classes
        decisions = np.zeros(k, dtype=np.int64)  # AdmissionDecision.ACCEPT
        if k == 0:
            return decisions
        if int(classes.min()) < 0 or int(classes.max()) >= num_classes:
            # Name the first offending arrival's class, as ``decide`` would.
            bad = (classes < 0) | (classes >= num_classes)
            raise ParameterError(
                f"class {int(classes[bad.argmax()])} has no quota share configured "
                f"(policy covers {num_classes} classes)"
            )
        # Stage 1 — reserves: each class's cumulative demand (in time order)
        # against its reserve.  Every arrival is charged, admitted or not.
        reserve_fit = np.empty(k, dtype=bool)
        for c in range(num_classes):
            mask = classes == c
            totals = self._charge(self._reserve_used[c], sizes[mask])
            reserve_fit[mask] = totals[1:] <= self._reserve[c]
            self._reserve_used[c] = totals[-1]
        overflow = ~reserve_fit
        if overflow.any():
            if self._util >= self.shed_threshold:
                # Hard overload: overflow never touches the pool.
                decisions[overflow] = int(AdmissionDecision.SHED)
            else:
                # Stage 2 — the shared pool, charged in time order across
                # classes.  Overflow that fits is accepted, or degraded
                # (every class but the lowest) past ``degrade_threshold``.
                totals = self._charge(self._pool_used, sizes[overflow])
                self._pool_used = float(totals[-1])
                outcome = int(AdmissionDecision.ACCEPT)
                if self._util >= self.degrade_threshold:
                    outcome = np.where(
                        classes[overflow] < num_classes - 1,
                        int(AdmissionDecision.DEGRADE),
                        outcome,
                    )
                decisions[overflow] = np.where(
                    totals[1:] <= self._pool, outcome, int(AdmissionDecision.SHED)
                )
            # Admitted work: one left fold over the admitted subsequence,
            # in time order — the same adds the scalar ladder performs.
            admitted = sizes[decisions != int(AdmissionDecision.SHED)]
        else:
            admitted = sizes
        if admitted.size:
            self._admitted_work = float(self._charge(self._admitted_work, admitted)[-1])
        # Counters are order-free integers: row ``d`` of the table counts
        # decision ``d`` per origin class.
        counts = np.bincount(decisions * num_classes + classes, minlength=3 * num_classes)
        table = counts.reshape(3, num_classes).tolist()
        for counter, row in zip((self.accepted, self.degraded, self.rejected), table):
            for c, count in enumerate(row):
                counter[c] += count
        return decisions

    # ------------------------------------------------------------------ #
    # Ladder metadata
    # ------------------------------------------------------------------ #
    def degrade_target(self, class_index: int) -> int:
        """Degrade straight to the lowest class — the cheapest admitted tier."""
        return self.num_classes - 1

    def wait_hint(self, class_index: int, time: float) -> float | None:
        """Back off to the first future window with expected class headroom.

        Projects the EWMA-shrunk budget forward window by window: the
        backlog drains at (up to) live capacity per window while the
        per-class demand EWMA keeps arriving, and the hint points at the
        first projected window whose reserve exceeds the class's demand.
        Under *sustained* overload no such window exists — the projection
        never finds headroom within ``hint_horizon`` windows and the hint
        is ``None`` (back off indefinitely), instead of pointlessly
        retrying at the very next boundary.
        """
        if self._window_end <= 0.0 or self._window_span <= 0.0:
            return None
        window = self._window_span
        deliverable = self._capacity * window
        backlog = float(self._backlog_ewma)
        demand = float(self._demand_ewma[class_index])
        total_demand = float(self._demand_ewma.sum())
        for k in range(self.hint_horizon + 1):
            budget = max(
                self.target_utilisation * deliverable - self.drain_factor * backlog,
                0.0,
            )
            if demand < budget * self.quota_shares[class_index]:
                return max(self._window_end + k * window - float(time), 0.0)
            # Next window's backlog: this window's carry plus whatever the
            # budget admits, minus what the fleet can serve.
            backlog = max(backlog + min(total_demand, budget) - deliverable, 0.0)
        return None

    def reset(self) -> None:
        self._reserve = np.zeros(self.num_classes, dtype=np.float64)
        self._reserve_used = np.zeros(self.num_classes, dtype=np.float64)
        self._pool = 0.0
        self._pool_used = 0.0
        self._util = 0.0
        self._backlog_ewma = 0.0
        self._demand_ewma = np.zeros(self.num_classes, dtype=np.float64)
        self._admitted_work = 0.0
        self._window_span = 0.0
        self._window_end = 0.0
        self._capacity = 0.0
        self.accepted = [0] * self.num_classes
        self.degraded = [0] * self.num_classes
        self.rejected = [0] * self.num_classes

    @property
    def utilisation(self) -> float:
        """Current EWMA utilisation estimate (diagnostics)."""
        return float(self._util)


# ---------------------------------------------------------------------- #
# Registry + factory (mirrors PARTITIONERS / build_partitioner)
# ---------------------------------------------------------------------- #
ADMISSION_POLICIES: dict[str, Callable[..., AdmissionPolicy]] = {
    "always": AlwaysAdmit,
    "load_threshold": LoadThresholdAdmission,
    "queue_length": QueueLengthAdmission,
    "quota": AdmissionController,
}

#: Constructor parameters that take one value per class; a single CLI token
#: value still builds a one-class policy.
_TUPLE_PARAMS = ("thresholds", "limits", "quota_shares")


def build_admission(
    name: str, args: Sequence[str] = (), **overrides
) -> AdmissionPolicy:
    """Build a fresh admission policy by registry name.

    ``args`` are CLI-style ``key=value`` tokens (see
    :func:`repro.validation.parse_policy_args`); ``overrides`` are passed
    through as constructor keywords and win over parsed tokens.
    """
    return build_policy(
        "admission policy", ADMISSION_POLICIES, name, args, overrides, _TUPLE_PARAMS
    )
