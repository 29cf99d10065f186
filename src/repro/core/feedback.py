"""Feedback-corrected PSD control (the paper's stated future work).

The open-loop controller of :mod:`repro.core.controller` re-solves Eq. 17
from *estimated loads*; any estimation error, and all short-timescale
burstiness, shows up directly in the achieved slowdown ratios (Sec. 4.3-4.4
of the paper).  The paper closes by saying that improving short-timescale
predictability is future work.

:class:`FeedbackPsdController` is one natural realisation of that future
work: it starts from the Eq. 17 allocation but additionally *measures* the
per-window class slowdowns and applies a multiplicative correction to each
class's differentiation parameter so that persistent deviations of the
achieved ratios from their targets are driven out.  Concretely, after every
estimation window the controller computes the measured normalised slowdowns
``m_i = S_i / delta_i`` (which should all be equal under perfect PSD), forms
each class's relative deviation from their mean, and nudges an internal
*effective delta* against the deviation with gain ``gain``:

    effective_delta_i <- clip(effective_delta_i * (mean(m) / m_i)^gain)

A class that is currently doing better than its target (small ``m_i``) gets a
larger effective delta — i.e. a smaller share of the residual capacity — and
a class doing worse than its target gets a smaller effective delta and hence
more capacity.  The effective deltas are clipped to ``[delta_i / max_correction,
delta_i * max_correction]`` so the controller cannot wander arbitrarily far
from the specification, and they regress toward the nominal deltas at rate
``leak`` per window so transient corrections decay.

The correction only changes the deltas the allocation sees: each window
the clamped effective deltas go straight into the same Eq. 17 kernel the
open-loop controller runs, with the per-class constants it fixed at
construction, and the Eq. 18 predictions of ``current_allocation`` come
from that kernel's weight sum under the effective deltas.  ``spec`` stays
the nominal specification.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate

from ..errors import ParameterError
from ..types import TrafficClass
from ..validation import require_in_range, require_positive
from .controller import ControllerDecision, PsdController
from .load_estimator import LoadEstimator
from .psd import PsdSpec

__all__ = ["FeedbackPsdController"]


class FeedbackPsdController(PsdController):
    """Eq. 17 allocation plus measured-slowdown feedback on the deltas."""

    def __init__(
        self,
        classes: Sequence[TrafficClass],
        spec: PsdSpec,
        *,
        gain: float = 0.4,
        max_correction: float = 4.0,
        leak: float = 0.05,
        estimator: LoadEstimator | None = None,
        capacity: float = 1.0,
        min_rate: float = 0.0,
        overload_policy: str = "scale",
    ) -> None:
        super().__init__(
            classes,
            spec,
            estimator=estimator,
            capacity=capacity,
            min_rate=min_rate,
            overload_policy=overload_policy,
        )
        require_in_range(gain, "gain", 0.0, 2.0, inclusive_low=False)
        require_positive(max_correction, "max_correction")
        require_in_range(leak, "leak", 0.0, 1.0)
        if max_correction < 1.0:
            raise ParameterError("max_correction must be >= 1")
        self.gain = float(gain)
        self.max_correction = float(max_correction)
        self.leak = float(leak)
        self.nominal_deltas = tuple(spec.deltas)
        self._effective_deltas = list(spec.deltas)
        self.correction_history: list[tuple[float, tuple[float, ...]]] = []

    # ------------------------------------------------------------------ #
    # Feedback
    # ------------------------------------------------------------------ #
    @property
    def effective_deltas(self) -> tuple[float, ...]:
        """The deltas currently used for allocation (nominal x correction)."""
        return tuple(self._effective_deltas)

    def observe_window(
        self,
        time: float,
        window_length: float,
        arrivals: Sequence[int],
        work: Sequence[float],
        slowdowns: Sequence[float] | None = None,
    ) -> ControllerDecision:
        """Update the feedback term from measured slowdowns, then re-allocate.

        ``slowdowns`` are the per-class mean slowdowns measured over the
        window just completed (``nan`` or missing entries are ignored —
        classes that completed no request contribute no feedback).
        """
        if slowdowns is not None:
            self._apply_feedback(time, slowdowns)
        # PSD labels class 1 as the highest class (non-decreasing deltas), so
        # each effective delta is clamped to at least its predecessor's.
        deltas = tuple(accumulate(self._effective_deltas, max))
        return self._decide(time, window_length, arrivals, work, deltas)

    def _apply_feedback(self, time: float, slowdowns: Sequence[float]) -> None:
        if len(slowdowns) != len(self.nominal_deltas):
            raise ParameterError("slowdowns must have one entry per class")
        normalised = []
        for value, delta in zip(slowdowns, self.nominal_deltas):
            if value is None or not math.isfinite(value) or value <= 0.0:
                normalised.append(None)
            else:
                normalised.append(value / delta)
        observed = [v for v in normalised if v is not None]
        if len(observed) < 2:
            return  # nothing to balance against
        mean_normalised = sum(observed) / len(observed)
        if mean_normalised <= 0.0:
            return
        for i, value in enumerate(normalised):
            nominal = self.nominal_deltas[i]
            effective = self._effective_deltas[i]
            if value is not None:
                # A class whose normalised slowdown sits above the mean is
                # doing worse than its target: shrink its effective delta so
                # Eq. 17 grants it a larger share of the residual capacity.
                ratio = mean_normalised / value
                effective *= ratio**self.gain
            # Leak back toward the nominal delta so corrections are transient.
            effective = (1.0 - self.leak) * effective + self.leak * nominal
            lo = nominal / self.max_correction
            hi = nominal * self.max_correction
            self._effective_deltas[i] = min(max(effective, lo), hi)
        self.correction_history.append((float(time), self.effective_deltas))
