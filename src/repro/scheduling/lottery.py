"""Lottery scheduling (Waldspurger & Weihl, OSDI 1994).

Each class holds a number of tickets proportional to its weight; whenever the
processor becomes free a lottery is held among the *backlogged* classes and
the winner's head-of-line request is served.  Expected service shares equal
the ticket shares, with variance that shrinks over time.

The paper cites lottery scheduling as one of the mechanisms on which the
processing-rate allocation can be realised in a real multi-process or
multi-threaded server.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..distributions.rng import make_generator
from .base import WeightedScheduler

__all__ = ["LotteryScheduler"]


class LotteryScheduler(WeightedScheduler):
    """Randomised proportional-share scheduling over per-class FCFS queues."""

    def __init__(
        self,
        num_classes: int,
        weights: Sequence[float] | None = None,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(num_classes, weights)
        self._rng = make_generator(rng)

    def _select_class(self, now: float) -> int:
        active = self.backlogged_classes()
        if len(active) == 1:
            return active[0]
        tickets = np.asarray([self.weights[c] for c in active], dtype=float)
        probabilities = tickets / tickets.sum()
        return int(self._rng.choice(active, p=probabilities))
