"""Shared fixtures for the test-suite.

Simulation-based tests favour a *moderate-tail* Bounded Pareto
(``BP(0.1, 10, 1.5)``) because its mean slowdown converges quickly, which
keeps run times short and tolerances tight; the paper's exact workload
(``BP(0.1, 100, 1.5)``) is exercised by the analytic tests and by the
benches, where longer runs are acceptable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PsdSpec
from repro.distributions import BoundedPareto, Deterministic
from repro.queueing import arrival_rate_for_load
from repro.simulation import MeasurementConfig
from repro.types import TrafficClass


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic sampling tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_bp() -> BoundedPareto:
    """The paper's workload: BP(0.1, 100, 1.5)."""
    return BoundedPareto.paper_default()


@pytest.fixture
def moderate_bp() -> BoundedPareto:
    """A lighter-tailed Bounded Pareto whose sample moments converge fast."""
    return BoundedPareto(k=0.1, p=10.0, alpha=1.5)


@pytest.fixture
def deterministic_service() -> Deterministic:
    return Deterministic(1.0)


def make_classes(service, load: float, deltas) -> tuple[TrafficClass, ...]:
    """Equal-load traffic classes at total system load ``load``."""
    total_rate = arrival_rate_for_load(load, service)
    per_class = total_rate / len(deltas)
    return tuple(
        TrafficClass(f"class-{i + 1}", per_class, service, float(d))
        for i, d in enumerate(deltas)
    )


def submit_rows(server, rids) -> None:
    """Queue ledger rows on an :class:`~repro.simulation.FcfsTaskServer`
    with their arrival and size columns, as its node does."""
    rids = np.asarray(rids, dtype=np.int64)
    ledger = server.ledger
    server.submit_batch(rids, ledger.arrivals_of(rids), ledger.sizes_of(rids))


def drain_rows(server, now: float) -> tuple[np.ndarray, np.ndarray]:
    """Drain an :class:`~repro.simulation.FcfsTaskServer` to ``now`` and
    write its fresh rows, as its node does; returns ``(rids, times)``."""
    rids, starts, times = server.drain(now)
    if starts.size:
        server.ledger.serve_batch(rids[-starts.size :], starts, times[-starts.size :])
    return rids, times


@pytest.fixture
def two_classes(moderate_bp) -> tuple[TrafficClass, ...]:
    """Two equal-load classes (deltas 1, 2) at 60% system load."""
    return make_classes(moderate_bp, 0.6, (1.0, 2.0))


@pytest.fixture
def three_classes(moderate_bp) -> tuple[TrafficClass, ...]:
    """Three equal-load classes (deltas 1, 2, 3) at 60% system load."""
    return make_classes(moderate_bp, 0.6, (1.0, 2.0, 3.0))


@pytest.fixture
def two_class_spec() -> PsdSpec:
    return PsdSpec.of(1.0, 2.0)


@pytest.fixture
def three_class_spec() -> PsdSpec:
    return PsdSpec.of(1.0, 2.0, 3.0)


@pytest.fixture
def short_measurement(moderate_bp) -> MeasurementConfig:
    """A short measurement protocol scaled to the moderate workload's time unit."""
    return MeasurementConfig(
        warmup=1_000.0, horizon=8_000.0, window=500.0, replications=3
    ).scaled_to_time_units(moderate_bp.mean())


@pytest.fixture
def checked_runs(monkeypatch):
    """Check :func:`tests.invariants.check_run` on every ``Scenario.run``
    result the test produces in this process."""
    from repro.cluster import ClusterServerModel
    from repro.simulation import RateScalableServers, Scenario
    from tests.invariants import check_run
    from tests.reference import _RateScalable

    original = Scenario.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        server = self.server
        members = server.nodes if isinstance(server, ClusterServerModel) else (server,)
        check_run(
            result,
            per_class_servers=all(
                isinstance(member, (RateScalableServers, _RateScalable)) for member in members
            ),
            telemetry=self.telemetry,
        )
        return result

    monkeypatch.setattr(Scenario, "run", run)
