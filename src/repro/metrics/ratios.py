"""Slowdown-ratio analysis.

The PSD model is a statement about *ratios* of class slowdowns (Eq. 16), so
most of the paper's evaluation is expressed as achieved-ratio curves.  These
helpers compute achieved ratios, compare them against the differentiation
targets and quantify the deviation (Figs. 9-10).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.psd import PsdSpec
from ..errors import ParameterError

__all__ = ["RatioComparison", "achieved_ratios", "compare_to_targets"]


def achieved_ratios(slowdowns: Sequence[float], *, reference: int = 0) -> tuple[float, ...]:
    """Ratios of each class's slowdown to the reference class's slowdown."""
    values = [float(s) for s in slowdowns]
    if not values:
        raise ParameterError("slowdowns must be non-empty")
    ref = values[reference]
    if ref <= 0.0 or math.isnan(ref):
        raise ParameterError("reference slowdown must be positive and finite")
    return tuple(v / ref for v in values)


@dataclass(frozen=True)
class RatioComparison:
    """Achieved vs target slowdown ratios for one workload configuration."""

    targets: tuple[float, ...]
    achieved: tuple[float, ...]

    @property
    def relative_errors(self) -> tuple[float, ...]:
        """Per-class relative error ``|achieved/target - 1|`` (0 for the reference)."""
        out = []
        for target, got in zip(self.targets, self.achieved):
            if target == 0.0:
                raise ParameterError("target ratios must be non-zero")
            out.append(abs(got / target - 1.0))
        return tuple(out)

    @property
    def worst_relative_error(self) -> float:
        return max(self.relative_errors)

    @property
    def predictable(self) -> bool:
        """True when the achieved ratios are ordered like the targets.

        This is the *predictability* requirement: a higher class (smaller
        target) must not experience a larger slowdown than a lower class.
        """
        order_target = np.argsort(self.targets)
        order_achieved = np.argsort(self.achieved)
        return list(order_target) == list(order_achieved)


def compare_to_targets(slowdowns: Sequence[float], spec: PsdSpec) -> RatioComparison:
    """Compare achieved slowdown ratios (to class 1) against ``spec``'s targets."""
    if len(slowdowns) != spec.num_classes:
        raise ParameterError("slowdowns and spec must have the same number of classes")
    return RatioComparison(
        targets=spec.target_ratios_to_first(),
        achieved=achieved_ratios(slowdowns),
    )
