"""Tests for WFQ/PGPS and SFQ against the GPS fluid reference."""

import pytest

from repro.scheduling import (
    FluidJob,
    StartTimeFairQueueing,
    WeightedFairQueueing,
    simulate_gps,
)


def drive_non_preemptive(scheduler, jobs, capacity=1.0):
    """Simulate one non-preemptive processor fed by ``scheduler``.

    ``jobs`` is a list of :class:`FluidJob`; the returned completion times are
    aligned with the input order.
    """
    completions = [None] * len(jobs)
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i].arrival_time, i))
    next_i = 0
    now = 0.0
    while next_i < len(order) or scheduler.total_backlog() > 0:
        while next_i < len(order) and jobs[order[next_i]].arrival_time <= now + 1e-12:
            idx = order[next_i]
            scheduler.enqueue(
                jobs[idx].class_index, jobs[idx].size, jobs[idx].arrival_time, payload=idx
            )
            next_i += 1
        job = scheduler.select(now)
        if job is None:
            if next_i >= len(order):
                break
            now = jobs[order[next_i]].arrival_time
            continue
        idx = job.payload
        finish = now + jobs[idx].size / capacity
        # Requests arriving while the processor is busy join the queues with
        # their true arrival timestamps before the next selection.
        while next_i < len(order) and jobs[order[next_i]].arrival_time <= finish + 1e-12:
            j2 = order[next_i]
            scheduler.enqueue(
                jobs[j2].class_index, jobs[j2].size, jobs[j2].arrival_time, payload=j2
            )
            next_i += 1
        now = finish
        completions[idx] = finish
    return completions


def make_burst(rng, n=60, classes=2):
    jobs = []
    t = 0.0
    for _ in range(n):
        t += float(rng.exponential(0.3))
        jobs.append(FluidJob(int(rng.integers(classes)), t, float(rng.uniform(0.1, 1.5))))
    return jobs


class TestAgainstGps:
    @pytest.mark.parametrize(
        "scheduler_cls, slack_sizes",
        [
            (WeightedFairQueueing, 2.0),
            (StartTimeFairQueueing, 4.0),
        ],
    )
    def test_completions_close_to_gps(self, scheduler_cls, slack_sizes, rng):
        weights = [0.65, 0.35]
        jobs = make_burst(rng)
        gps = simulate_gps(jobs, weights)
        sched = scheduler_cls(2, weights=weights)
        packet = drive_non_preemptive(sched, jobs)
        assert all(done is not None for done in packet)
        max_size = max(j.size for j in jobs)
        for done, reference in zip(packet, gps.completion_times):
            assert done <= reference + slack_sizes * max_size + 1e-6

    def test_total_work_conserved(self, rng):
        weights = [0.5, 0.5]
        jobs = make_burst(rng, n=40)
        sched = WeightedFairQueueing(2, weights=weights)
        packet = drive_non_preemptive(sched, jobs)
        # The last completion cannot exceed last arrival + total work (single
        # work-conserving server) and cannot be earlier than total work after
        # the first arrival.
        total_work = sum(j.size for j in jobs)
        assert max(packet) <= max(j.arrival_time for j in jobs) + total_work + 1e-9
        assert max(packet) >= jobs[0].arrival_time + max(j.size for j in jobs)


class TestLongRunShares:
    def serve_saturated(self, sched, rng, count=300, total=600):
        sizes = rng.uniform(0.2, 1.0, size=total)
        for i, size in enumerate(sizes):
            sched.enqueue(i % 2, float(size), 0.0, payload=i)
        served = [0.0, 0.0]
        now = 0.0
        for _ in range(count):
            job = sched.select(now)
            served[job.class_index] += job.size
            now += job.size
        return served

    @pytest.mark.parametrize(
        "scheduler_cls",
        [WeightedFairQueueing, StartTimeFairQueueing],
    )
    def test_saturated_shares_follow_weights(self, scheduler_cls, rng):
        weights = [0.8, 0.2]
        sched = scheduler_cls(2, weights=weights)
        served = self.serve_saturated(sched, rng)
        assert served[0] / sum(served) == pytest.approx(0.8, abs=0.06)

    def test_weight_update_affects_new_arrivals(self):
        """Finish tags of jobs enqueued *after* a weight change reflect the new
        weights: with weights (0.9, 0.1) a class-0 job overtakes an
        equal-size class-1 job even when it arrives later."""
        sched = WeightedFairQueueing(2, weights=[0.5, 0.5])
        sched.set_weights([0.9, 0.1])
        sched.enqueue(1, 1.0, 0.0, payload="low-weight")
        sched.enqueue(0, 1.0, 0.0, payload="high-weight")
        assert sched.select(0.0).payload == "high-weight"

    def test_saturated_share_after_reweighting_new_batch(self, rng):
        """Jobs arriving after a re-allocation follow the new shares."""
        sched = WeightedFairQueueing(2, weights=[0.5, 0.5])
        # Drain a small initial batch under equal weights.
        for i in range(20):
            sched.enqueue(i % 2, 1.0, 0.0, payload=i)
        now = 0.0
        while sched.total_backlog():
            job = sched.select(now)
            now += job.size
        # Re-weight, then a fresh saturated batch arrives.
        sched.set_weights([0.8, 0.2])
        sizes = rng.uniform(0.2, 1.0, size=600)
        for i, size in enumerate(sizes):
            sched.enqueue(i % 2, float(size), now, payload=1000 + i)
        served = [0.0, 0.0]
        for _ in range(300):
            job = sched.select(now)
            served[job.class_index] += job.size
            now += job.size
        assert served[0] / sum(served) == pytest.approx(0.8, abs=0.06)


class TestEdgeBehaviour:
    def test_empty_select_returns_none(self):
        assert WeightedFairQueueing(2).select(0.0) is None
        assert StartTimeFairQueueing(2).select(0.0) is None

    def test_single_class_is_fcfs(self, rng):
        sched = WeightedFairQueueing(1, weights=[1.0])
        for i in range(10):
            sched.enqueue(0, float(rng.uniform(0.1, 1.0)), float(i), payload=i)
        served = [sched.select(20.0).payload for _ in range(10)]
        assert served == list(range(10))
