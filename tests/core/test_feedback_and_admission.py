"""Tests for the feedback-corrected controller and the admission policies."""

import math

import pytest

from repro.cluster import build_admission
from repro.core import (
    AdmissionDecision,
    AlwaysAdmit,
    FeedbackPsdController,
    LoadThresholdAdmission,
    PsdSpec,
    QueueLengthAdmission,
    WindowObservation,
    allocate_rates,
)
from repro.errors import ParameterError
from tests.conftest import make_classes

pytestmark = pytest.mark.usefixtures("checked_runs")


@pytest.fixture
def classes(moderate_bp):
    return make_classes(moderate_bp, 0.6, (1.0, 2.0))


@pytest.fixture
def spec():
    return PsdSpec.of(1, 2)


def observation(classes, window=1000.0):
    arrivals = [round(c.arrival_rate * window) for c in classes]
    work = [c.arrival_rate * window * c.service.mean() for c in classes]
    return arrivals, work


class TestFeedbackController:
    def test_no_feedback_matches_open_loop(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=0.5)
        arrivals, work = observation(classes)
        decision = controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=None)
        assert decision.rates == pytest.approx(allocate_rates(classes, spec).rates, rel=0.02)
        assert controller.effective_deltas == spec.deltas

    def test_balanced_measurements_leave_deltas_unchanged(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=0.5, leak=0.0)
        arrivals, work = observation(classes)
        # Measured slowdowns exactly in the 1:2 target ratio -> no correction.
        controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=(5.0, 10.0))
        assert controller.effective_deltas == pytest.approx(spec.deltas)

    def test_under_target_class_gets_more_capacity(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=0.5, leak=0.0)
        arrivals, work = observation(classes)
        open_loop_rates = allocate_rates(classes, spec).rates
        # Class 2 measured far worse than its target (ratio 4 instead of 2):
        # its effective delta must fall, granting it a larger rate share.
        decision = controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=(5.0, 20.0))
        assert controller.effective_deltas[1] < spec.deltas[1]
        assert decision.rates[1] > open_loop_rates[1]

    def test_over_target_class_gives_capacity_back(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=0.5, leak=0.0)
        arrivals, work = observation(classes)
        open_loop_rates = allocate_rates(classes, spec).rates
        # Class 2 doing much better than its target: it can cede capacity.
        decision = controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=(5.0, 5.0))
        assert controller.effective_deltas[1] > spec.deltas[1]
        assert decision.rates[1] < open_loop_rates[1]

    def test_corrections_are_clipped(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=1.5, max_correction=2.0, leak=0.0)
        arrivals, work = observation(classes)
        for step in range(20):
            controller.observe_window(
                1000.0 * (step + 1), 1000.0, arrivals, work, slowdowns=(1.0, 100.0)
            )
        assert controller.effective_deltas[1] >= spec.deltas[1] / 2.0 - 1e-12
        assert controller.effective_deltas[0] <= spec.deltas[0] * 2.0 + 1e-12

    def test_leak_pulls_back_to_nominal(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=0.5, leak=0.5)
        arrivals, work = observation(classes)
        controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=(5.0, 20.0))
        disturbed = controller.effective_deltas[1]
        # Now feed perfectly balanced measurements: the deltas relax to nominal.
        for step in range(2, 12):
            controller.observe_window(
                1000.0 * step, 1000.0, arrivals, work,
                slowdowns=(5.0, 5.0 * controller.effective_deltas[1]),
            )
        assert abs(controller.effective_deltas[1] - spec.deltas[1]) < abs(
            disturbed - spec.deltas[1]
        )

    def test_missing_class_measurement_is_ignored(self, classes, spec):
        controller = FeedbackPsdController(classes, spec, gain=0.5, leak=0.0)
        arrivals, work = observation(classes)
        controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=(float("nan"), 10.0))
        # Only one usable measurement: no correction can be formed.
        assert controller.effective_deltas == pytest.approx(spec.deltas)

    def test_invalid_parameters(self, classes, spec):
        with pytest.raises(ParameterError):
            FeedbackPsdController(classes, spec, gain=0.0)
        with pytest.raises(ParameterError):
            FeedbackPsdController(classes, spec, max_correction=0.5)
        with pytest.raises(ParameterError):
            FeedbackPsdController(classes, spec, leak=1.5)

    def test_wrong_slowdown_length_rejected(self, classes, spec):
        controller = FeedbackPsdController(classes, spec)
        arrivals, work = observation(classes)
        with pytest.raises(ParameterError):
            controller.observe_window(1000.0, 1000.0, arrivals, work, slowdowns=(1.0,))


class TestAdmissionPolicies:
    def snapshot(self, backlogs=(0, 0), loads=(0.3, 0.3)):
        n = len(backlogs)
        return WindowObservation(
            time=0.0,
            window=1.0,
            arrivals=(0,) * n,
            work=(0.0,) * n,
            slowdowns=(math.nan,) * n,
            rates=(0.5,) * n,
            estimated_loads=loads,
            backlogs=backlogs,
            capacities=(1.0,),
            live_nodes=(0,),
            backlog_work=0.0,
        )

    def test_always_admit(self):
        policy = AlwaysAdmit()
        assert policy.decide(0, 1.0, self.snapshot()) is AdmissionDecision.ACCEPT
        assert (
            policy.decide(1, 100.0, self.snapshot(loads=(5.0, 5.0))) is AdmissionDecision.ACCEPT
        )

    def test_load_threshold_rejects_lower_class_first(self):
        policy = LoadThresholdAdmission(thresholds=(0.95, 0.7))
        busy = self.snapshot(loads=(0.4, 0.4))  # total 0.8
        assert policy.decide(0, 1.0, busy) is AdmissionDecision.ACCEPT
        assert policy.decide(1, 1.0, busy) is AdmissionDecision.SHED
        assert policy.rejected == [0, 1]

    def test_load_threshold_reset(self):
        policy = LoadThresholdAdmission(thresholds=(0.5,))
        decision = policy.decide(0, 1.0, self.snapshot(backlogs=(0,), loads=(0.9,)))
        assert decision is AdmissionDecision.SHED
        assert policy.rejected == [1]
        policy.reset()
        assert policy.rejected == [0]

    def test_load_threshold_validation(self):
        with pytest.raises(ParameterError):
            LoadThresholdAdmission(thresholds=())
        policy = LoadThresholdAdmission(thresholds=(0.9,))
        with pytest.raises(ParameterError):
            policy.decide(3, 1.0, self.snapshot())

    def test_queue_length_limits(self):
        policy = QueueLengthAdmission(limits=(2, 5))
        assert policy.decide(0, 1.0, self.snapshot(backlogs=(1, 0))) is AdmissionDecision.ACCEPT
        # Shed once the backlog *reaches* the limit.
        assert policy.decide(0, 1.0, self.snapshot(backlogs=(2, 0))) is AdmissionDecision.SHED
        assert policy.decide(1, 1.0, self.snapshot(backlogs=(9, 4))) is AdmissionDecision.ACCEPT
        assert policy.rejected == [1, 0]

    def test_queue_length_validation(self):
        with pytest.raises(ParameterError):
            QueueLengthAdmission(limits=())
        with pytest.raises(ParameterError):
            QueueLengthAdmission(limits=(0,))

    @pytest.mark.parametrize("limits", ["2.5,0.5", "2,0.5", "2.5,3", "0,3", "-1,3", "nan,3"])
    def test_queue_length_rejects_fractional_and_sub_unit_limits(self, limits):
        # Truncating would turn limits=2.5,0.5 into (2, 0), and a limit of
        # 0 sheds every arrival of its class.
        with pytest.raises(ParameterError, match="limits"):
            build_admission("queue_length", (f"limits={limits}",))

    def test_queue_length_accepts_whole_float_limits(self):
        policy = build_admission("queue_length", ("limits=20,3.0",))
        assert policy.limits == (20, 3)


class TestAdmissionInSimulation:
    def test_queue_limit_caps_backlog_and_records_rejections(self, moderate_bp):
        from repro.simulation import MeasurementConfig, Scenario

        classes = make_classes(moderate_bp, 0.95, (1.0, 2.0))
        policy = QueueLengthAdmission(limits=(5, 5))
        cfg = MeasurementConfig(warmup=200.0, horizon=3_000.0, window=200.0)
        result = Scenario(classes, cfg, admission=policy, seed=3).run()
        assert sum(result.rejected_counts) > 0
        assert sum(result.rejected_counts) == sum(policy.rejected)
        assert sum(result.completed_counts) > 0
        # Generated counts include rejected requests.
        for generated, completed, rejected in zip(
            result.generated_counts, result.completed_counts, result.rejected_counts
        ):
            assert generated >= completed + rejected - 1

    def test_no_admission_policy_never_rejects(self, moderate_bp):
        from repro.simulation import MeasurementConfig, Scenario

        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_000.0, window=200.0)
        result = Scenario(classes, cfg, seed=1).run()
        assert result.rejected_counts == (0, 0)


class TestFeedbackInSimulation:
    def test_feedback_controller_runs_and_records_corrections(self, moderate_bp):
        from repro.simulation import MeasurementConfig, Scenario

        classes = make_classes(moderate_bp, 0.7, (1.0, 2.0))
        spec = PsdSpec.of(1, 2)
        controller = FeedbackPsdController(classes, spec, gain=0.4)
        cfg = MeasurementConfig(
            warmup=1_000.0, horizon=10_000.0, window=500.0
        ).scaled_to_time_units(moderate_bp.mean())
        result = Scenario(classes, cfg, controller=controller, seed=5).run()
        assert len(controller.correction_history) > 0
        slowdowns = result.per_class_mean_slowdowns()
        assert slowdowns[0] < slowdowns[1]
        assert all(math.isfinite(d) for d in controller.effective_deltas)
