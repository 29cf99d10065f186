"""Tests for the scheduler base class and the strict priority scheduler."""

import pytest

from repro.errors import SchedulingError
from repro.scheduling import StrictPriorityScheduler, WeightedFairQueueing


class TestSchedulerBase:
    def test_enqueue_and_backlog_accounting(self):
        s = StrictPriorityScheduler(2)
        assert s.total_backlog() == 0
        s.enqueue(0, 1.0, 0.0)
        s.enqueue(1, 2.0, 0.0)
        s.enqueue(1, 3.0, 1.0)
        assert s.backlog(0) == 1
        assert s.backlog(1) == 2
        assert s.total_backlog() == 3
        assert s.backlogged_classes() == [0, 1]

    def test_select_empties_queues_fcfs_within_class(self):
        s = StrictPriorityScheduler(1)
        a = s.enqueue(0, 1.0, 0.0, payload="a")
        b = s.enqueue(0, 1.0, 1.0, payload="b")
        assert s.select(2.0) is a
        assert s.select(2.0) is b
        assert s.select(2.0) is None

    def test_peek_does_not_remove(self):
        s = StrictPriorityScheduler(2)
        job = s.enqueue(1, 1.0, 0.0)
        assert s.peek(1) is job
        assert s.backlog(1) == 1
        assert s.peek(0) is None

    def test_invalid_class_index(self):
        s = StrictPriorityScheduler(2)
        with pytest.raises(SchedulingError):
            s.enqueue(2, 1.0, 0.0)
        with pytest.raises(SchedulingError):
            s.backlog(-1)

    def test_invalid_job_size(self):
        s = StrictPriorityScheduler(1)
        with pytest.raises(SchedulingError):
            s.enqueue(0, 0.0, 0.0)

    def test_invalid_num_classes(self):
        with pytest.raises(SchedulingError):
            StrictPriorityScheduler(0)


class TestWeightedSchedulerConfiguration:
    def test_default_weights_are_uniform(self):
        s = WeightedFairQueueing(3)
        assert s.weights == (1.0, 1.0, 1.0)

    def test_set_weights_validation(self):
        s = WeightedFairQueueing(2)
        with pytest.raises(SchedulingError):
            s.set_weights([1.0])
        with pytest.raises(Exception):
            s.set_weights([1.0, 0.0])

    def test_set_weights_updates(self):
        s = WeightedFairQueueing(2, weights=[0.5, 0.5])
        s.set_weights([0.9, 0.1])
        assert s.weights == (0.9, 0.1)


class TestStrictPriority:
    def test_highest_priority_first(self):
        s = StrictPriorityScheduler(3)
        s.enqueue(2, 1.0, 0.0, payload="low")
        s.enqueue(0, 1.0, 0.0, payload="high")
        s.enqueue(1, 1.0, 0.0, payload="mid")
        assert s.select(1.0).payload == "high"
        assert s.select(1.0).payload == "mid"
        assert s.select(1.0).payload == "low"

    def test_custom_priority_permutation(self):
        s = StrictPriorityScheduler(2, priorities=[1, 0])  # class 1 is highest
        s.enqueue(0, 1.0, 0.0, payload="a")
        s.enqueue(1, 1.0, 0.0, payload="b")
        assert s.select(1.0).payload == "b"

    def test_invalid_priorities(self):
        with pytest.raises(SchedulingError):
            StrictPriorityScheduler(2, priorities=[0, 0])

    def test_starvation_of_low_class(self):
        """Strict priority can starve the lower class while the high class is busy."""
        s = StrictPriorityScheduler(2)
        s.enqueue(1, 1.0, 0.0)
        for i in range(5):
            s.enqueue(0, 1.0, float(i))
        served = [s.select(10.0).class_index for _ in range(5)]
        assert served == [0, 0, 0, 0, 0]
