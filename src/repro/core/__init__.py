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

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".admission": (
            "AdmissionDecision",
            "AdmissionPolicy",
            "AlwaysAdmit",
            "LoadThresholdAdmission",
            "QueueLengthAdmission",
        ),
        ".allocation": ("RateAllocation", "allocate_rates"),
        ".baselines": ("equal_split", "demand_proportional_split", "weighted_demand_split"),
        ".controller": ("PsdController", "ControllerDecision"),
        ".feedback": ("FeedbackPsdController",),
        ".load_estimator": (
            "LoadEstimate",
            "LoadEstimator",
            "WindowedLoadEstimator",
            "ExponentialSmoothingEstimator",
            "OracleLoadEstimator",
        ),
        ".observation": ("WindowObservation",),
        ".pdd": ("PddAllocation", "allocate_pdd_rates"),
        ".planning": (
            "PlanningResult",
            "slowdown_at_load",
            "max_load_for_slowdown_target",
            "required_capacity",
        ),
        ".properties": (
            "PropertyCheck",
            "check_all_properties",
            "check_monotone_in_own_arrival_rate",
            "check_delta_increase_effect",
            "check_higher_class_impact",
        ),
        ".psd": ("PsdSpec", "expected_slowdowns", "psd_error", "slowdown_ratio_matrix"),
    },
)
