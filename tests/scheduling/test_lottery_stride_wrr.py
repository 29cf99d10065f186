"""Tests for the lottery and deficit weighted-round-robin schedulers."""

import numpy as np
import pytest

from repro.scheduling import DeficitWeightedRoundRobin, LotteryScheduler


def saturate(sched, rng, total=1000, equal_sizes=True):
    for i in range(total):
        size = 1.0 if equal_sizes else float(rng.uniform(0.2, 2.0))
        sched.enqueue(i % 2, size, 0.0, payload=i)


def serve_work(sched, count):
    served = [0.0, 0.0]
    now = 0.0
    for _ in range(count):
        job = sched.select(now)
        served[job.class_index] += job.size
        now += job.size
    return served


class TestLottery:
    def test_shares_converge_to_ticket_ratio(self, rng):
        sched = LotteryScheduler(2, weights=[0.75, 0.25], rng=np.random.default_rng(3))
        saturate(sched, rng)
        served = serve_work(sched, 600)
        assert served[0] / sum(served) == pytest.approx(0.75, abs=0.05)

    def test_single_backlogged_class_always_wins(self, rng):
        sched = LotteryScheduler(2, weights=[0.5, 0.5], rng=np.random.default_rng(0))
        sched.enqueue(1, 1.0, 0.0)
        assert sched.select(0.0).class_index == 1

    def test_reproducible_with_seed(self, rng):
        def run(seed):
            sched = LotteryScheduler(2, weights=[0.5, 0.5], rng=np.random.default_rng(seed))
            saturate(sched, np.random.default_rng(1), total=100)
            return [sched.select(0.0).class_index for _ in range(50)]

        assert run(7) == run(7)

    def test_weights_can_be_updated(self, rng):
        sched = LotteryScheduler(2, weights=[0.5, 0.5], rng=np.random.default_rng(5))
        saturate(sched, rng, total=800)
        sched.set_weights([0.95, 0.05])
        served = serve_work(sched, 400)
        assert served[0] / sum(served) > 0.85


class TestDeficitRoundRobin:
    def test_work_proportions_with_unequal_sizes(self):
        sched = DeficitWeightedRoundRobin(2, weights=[1.0, 1.0], quantum=1.0)
        for i in range(300):
            sched.enqueue(0, 2.0, 0.0, payload=i)
            sched.enqueue(1, 0.5, 0.0, payload=1000 + i)
        served = serve_work(sched, 300)
        assert served[0] / sum(served) == pytest.approx(0.5, abs=0.08)

    def test_weighted_work_proportions(self, rng):
        sched = DeficitWeightedRoundRobin(2, weights=[0.7, 0.3], quantum=1.0)
        saturate(sched, rng, equal_sizes=False)
        served = serve_work(sched, 500)
        assert served[0] / sum(served) == pytest.approx(0.7, abs=0.08)

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            DeficitWeightedRoundRobin(2, quantum=0.0)
