"""Both controllers against a test-side copy of the object-path arithmetic.

The controllers run Eq. 17 over floats with per-class constants fixed at
construction.  :func:`reference_allocation` redoes every window the way
the library did it before: ``TrafficClass`` copies at the estimated rates,
``c.offered_load`` for the loads, ``C * lambda / delta`` for the weights and
:func:`expected_slowdowns` for Eq. 18.  Every rate, load and prediction
must match bit-for-bit (``==``, never ``approx``).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExponentialSmoothingEstimator,
    FeedbackPsdController,
    OracleLoadEstimator,
    PsdController,
    PsdSpec,
    RateAllocation,
    expected_slowdowns,
)
from repro.core.allocation import _apply_floor
from repro.core.controller import ControllerDecision
from repro.distributions import BoundedPareto, Deterministic
from repro.errors import AllocationError, ParameterError, StabilityError
from repro.types import TrafficClass

HEADROOM = 0.02


def reference_allocation(classes, rates, loads, deltas, capacity, min_rate, policy, previous):
    """One window of the object path: ``(allocation, feasible)``."""
    estimated = []
    for cls, rate, load in zip(classes, rates, loads):
        effective = load / cls.service.mean() if load > 0.0 else (rate if rate > 0.0 else 0.0)
        estimated.append(cls.with_arrival_rate(effective))
    total = sum(c.offered_load for c in estimated)
    feasible = total < capacity
    if not feasible:
        if policy == "raise":
            raise StabilityError("estimated load exceeds capacity")
        if policy == "hold" and previous is not None:
            return previous, False
        factor = capacity * (1.0 - HEADROOM) / total
        estimated = [c.with_arrival_rate(c.arrival_rate * factor) for c in estimated]
    offered = tuple(c.offered_load for c in estimated)
    rho = sum(offered)
    if rho >= capacity:
        raise StabilityError("offered load exceeds capacity")
    weights = [
        c.service.second_moment() * c.service.mean_inverse() / 2.0 * c.arrival_rate / d
        for c, d in zip(estimated, deltas)
    ]
    weight_sum = sum(weights)
    if weight_sum <= 0.0:
        even = tuple(max(capacity / len(classes), min_rate) for _ in classes)
        out = tuple(r * (capacity / sum(even)) for r in even)
        predicted = tuple(0.0 for _ in classes)
    else:
        out = [o + (capacity - rho) * w / weight_sum for o, w in zip(offered, weights)]
        if min_rate > 0.0:
            out = _apply_floor(out, offered, min_rate, capacity)
        unit = [c.with_arrival_rate(c.arrival_rate / capacity) for c in estimated]
        predicted = expected_slowdowns(unit if capacity != 1.0 else estimated, PsdSpec(deltas))
    if feasible:
        return RateAllocation(tuple(out), offered, rho, predicted), True
    return RateAllocation(tuple(out), tuple(loads), total, predicted), False


def clamped_deltas(effective):
    """The feedback controller's deltas, clamped non-decreasing."""
    out, previous = [], 0.0
    for value in effective:
        previous = max(value, previous)
        out.append(previous)
    return tuple(out)


class WindowedReference:
    """The paper's 5-window sliding mean, summed class by class."""

    def __init__(self, classes):
        self.prior = (
            tuple(float(c.arrival_rate) for c in classes),
            tuple(float(c.offered_load) for c in classes),
        )
        self.windows = []

    def observe_window(self, length, arrivals, work):
        self.windows = (self.windows + [(float(length), arrivals, work)])[-5:]

    def estimate(self):
        if not self.windows:
            return self.prior
        total = sum(length for length, _, _ in self.windows)
        n = len(self.prior[0])
        return (
            tuple(sum(a[i] for _, a, _ in self.windows) / total for i in range(n)),
            tuple(sum(w[i] for _, _, w in self.windows) / total for i in range(n)),
        )


class LibraryEstimatorReference:
    """A second instance of an estimator the change leaves alone."""

    def __init__(self, estimator):
        self.estimator = estimator

    def observe_window(self, length, arrivals, work):
        self.estimator.observe_window(length, arrivals, work)

    def estimate(self):
        estimate = self.estimator.estimate()
        return estimate.arrival_rates, estimate.offered_loads


SERVICES = (
    BoundedPareto.paper_default(),
    BoundedPareto(k=0.5, p=50.0, alpha=1.2),
    Deterministic(1.0),
)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 4))
    services = [draw(st.sampled_from(SERVICES)) for _ in range(n)]
    capacity = draw(st.sampled_from((1.0, 1.0, 0.5, 2.0, 3.7)))
    shares = draw(st.lists(st.sampled_from((0.0, 0.05, 0.2, 0.3)), min_size=n, max_size=n))
    load = draw(st.floats(0.1, 1.3)) * capacity
    total_share = sum(shares) or 1.0
    steps = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    deltas = tuple(1.0 + sum(steps[: i + 1]) - steps[0] for i in range(n))
    classes = tuple(
        TrafficClass(f"c{i}", load * share / total_share / svc.mean(), svc, deltas[i])
        for i, (svc, share) in enumerate(zip(services, shares))
    )
    windows = []
    for _ in range(draw(st.integers(1, 8))):
        arrivals = tuple(draw(st.sampled_from((0, 0, 40, 300, 2500))) for _ in range(n))
        jitter = [draw(st.sampled_from((0.0, 0.5, 1.0, 1.7, 3.0))) for _ in range(n)]
        work = tuple(a * s.mean() * j for a, s, j in zip(arrivals, services, jitter))
        slowdowns = tuple(draw(st.sampled_from((math.nan, 1.5, 4.0, 20.0))) for _ in range(n))
        windows.append((draw(st.sampled_from((100.0, 333.3, 1000.0))), arrivals, work, slowdowns))
    return {
        "classes": classes,
        "deltas": deltas,
        "capacity": capacity,
        "min_rate": draw(st.sampled_from((0.0, 0.0, 0.01))) * capacity,
        "policy": draw(st.sampled_from(("scale", "hold", "raise"))),
        "estimator": draw(st.sampled_from(("windowed", "ewma", "oracle"))),
        "feedback": draw(st.booleans()),
        "windows": windows,
    }


def make_estimators(kind, classes):
    """``(library estimator or None for the default, reference)``."""
    if kind == "windowed":
        return None, WindowedReference(classes)
    if kind == "ewma":
        n = len(classes)
        return ExponentialSmoothingEstimator(n), LibraryEstimatorReference(
            ExponentialSmoothingEstimator(n)
        )
    truth = ([c.arrival_rate for c in classes], [c.offered_load for c in classes])
    return OracleLoadEstimator(*truth), LibraryEstimatorReference(OracleLoadEstimator(*truth))


def outcome(fn):
    try:
        return fn()
    except (AllocationError, ParameterError, StabilityError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_controllers_match_object_path_bit_for_bit(case):
    classes, deltas = case["classes"], case["deltas"]
    capacity, min_rate, policy = case["capacity"], case["min_rate"], case["policy"]
    spec = PsdSpec(deltas)
    estimator, reference = make_estimators(case["estimator"], classes)
    kind = FeedbackPsdController if case["feedback"] else PsdController
    controller = outcome(
        lambda: kind(
            classes,
            spec,
            estimator=estimator,
            capacity=capacity,
            min_rate=min_rate,
            overload_policy=policy,
        )
    )
    initial = outcome(
        lambda: reference_allocation(
            classes,
            [c.arrival_rate for c in classes],
            [c.offered_load for c in classes],
            deltas,
            capacity,
            min_rate,
            policy,
            None,
        )
    )
    if isinstance(initial, type):
        assert controller is initial
        return
    assert not isinstance(controller, type)
    loads = tuple(c.offered_load for c in classes)
    assert controller.current_rates == initial[0].rates
    assert controller.current_allocation.offered_loads == loads
    assert controller.current_allocation.total_load == sum(loads)
    assert all(math.isnan(p) for p in controller.current_allocation.predicted_slowdowns)

    current, decisions, time = controller.current_allocation, [], 0.0
    for length, arrivals, work, slowdowns in case["windows"]:
        time += length
        got = outcome(lambda: controller.observe_window(time, length, arrivals, work, slowdowns))
        reference.observe_window(length, arrivals, work)
        rates, offered = reference.estimate()
        window_deltas = clamped_deltas(controller.effective_deltas) if case["feedback"] else deltas
        want = outcome(
            lambda: reference_allocation(
                classes, rates, offered, window_deltas, capacity, min_rate, policy, current
            )
        )
        if isinstance(want, type):
            assert got is want
            return
        current, feasible = want
        decisions.append(ControllerDecision(float(time), rates, offered, current.rates, feasible))
        assert got == decisions[-1]
        assert controller.current_rates == current.rates
        assert controller.current_allocation == current
        assert controller.decisions == decisions


@pytest.mark.parametrize("kind", [PsdController, FeedbackPsdController])
def test_hold_policy_keeps_the_allocation_object(kind):
    service = BoundedPareto.paper_default()
    classes = tuple(TrafficClass(f"c{i}", 0.3 / service.mean(), service) for i in range(2))
    controller = kind(classes, PsdSpec.of(1, 2), overload_policy="hold")
    before = controller.current_allocation
    arrivals = (int(2.0 / service.mean() * 1000.0),) * 2
    work = (2000.0, 2000.0)
    for step in range(1, 7):
        decision = controller.observe_window(step * 1000.0, 1000.0, arrivals, work)
    assert not decision.feasible
    assert controller.current_allocation is before
