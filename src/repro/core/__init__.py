"""The paper's primary contribution: PSD model, rate allocation and control.

* :mod:`repro.core.psd` — the PSD specification (Eq. 16) and the closed-form
  per-class expected slowdowns under the allocation (Eq. 18).
* :mod:`repro.core.allocation` — the processing-rate allocation (Eq. 17).
* :mod:`repro.core.load_estimator` — windowed load estimation (Sec. 4.1).
* :mod:`repro.core.controller` — the adaptive estimate/re-allocate loop.
* :mod:`repro.core.properties` — the three predictability/controllability
  properties of Sec. 3 as executable checks.
* :mod:`repro.core.pdd` — rate-based proportional *delay* differentiation,
  the contrasting objective from the related work.
* :mod:`repro.core.baselines` — naive rate splits used for comparison.
* :mod:`repro.core.feedback` — measured-slowdown feedback control (the
  paper's stated future work on short-timescale predictability).
* :mod:`repro.core.admission` — admission-control policies for overload.
* :mod:`repro.core.observation` — the one window-boundary observation that
  telemetry, the autoscaler and admission read.
* :mod:`repro.core.planning` — capacity planning by inverting Eq. 18.
"""

from .admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AlwaysAdmit,
    LoadThresholdAdmission,
    QueueLengthAdmission,
)
from .allocation import RateAllocation, allocate_rates
from .baselines import demand_proportional_split, equal_split, weighted_demand_split
from .controller import ControllerDecision, PsdController
from .feedback import FeedbackPsdController
from .load_estimator import (
    ExponentialSmoothingEstimator,
    LoadEstimate,
    LoadEstimator,
    OracleLoadEstimator,
    WindowedLoadEstimator,
)
from .observation import WindowObservation
from .pdd import PddAllocation, allocate_pdd_rates
from .planning import (
    PlanningResult,
    max_load_for_slowdown_target,
    required_capacity,
    slowdown_at_load,
)
from .properties import (
    PropertyCheck,
    check_all_properties,
    check_delta_increase_effect,
    check_higher_class_impact,
    check_monotone_in_own_arrival_rate,
)
from .psd import PsdSpec, expected_slowdowns, psd_error, slowdown_ratio_matrix

__all__ = [
    "PsdSpec",
    "expected_slowdowns",
    "psd_error",
    "slowdown_ratio_matrix",
    "RateAllocation",
    "allocate_rates",
    "LoadEstimate",
    "LoadEstimator",
    "WindowedLoadEstimator",
    "ExponentialSmoothingEstimator",
    "OracleLoadEstimator",
    "PsdController",
    "ControllerDecision",
    "PropertyCheck",
    "check_all_properties",
    "check_monotone_in_own_arrival_rate",
    "check_delta_increase_effect",
    "check_higher_class_impact",
    "PddAllocation",
    "allocate_pdd_rates",
    "equal_split",
    "demand_proportional_split",
    "weighted_demand_split",
    "FeedbackPsdController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "LoadThresholdAdmission",
    "QueueLengthAdmission",
    "WindowObservation",
    "PlanningResult",
    "slowdown_at_load",
    "max_load_for_slowdown_target",
    "required_capacity",
]
