"""Analytic queueing models used by the PSD rate-allocation strategy.

* :mod:`repro.queueing.mg1` — the general M/G/1 FCFS Pollaczek–Khinchin machinery.
* :mod:`repro.queueing.mgb1` — the M/G_B/1 closed forms (Lemma 1, Lemma 2, Theorem 1).
* :mod:`repro.queueing.md1` — the deterministic-service reduction (Eq. 15).
* :mod:`repro.queueing.mm1` — the exponential reference model and the
  stretch-factor baseline from the related work.
* :mod:`repro.queueing.scaling` — task-server rate-vector utilities (Eq. 7).
* :mod:`repro.queueing.stability` — utilisation and stability checks.
* :mod:`repro.queueing.sensitivity` — analytic parameter sweeps for Figs. 11-12.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".md1": ("MD1Queue", "md1_expected_slowdown", "md1_expected_waiting_time"),
        ".mg1": (
            "MG1Queue",
            "expected_waiting_time",
            "expected_response_time",
            "expected_slowdown",
        ),
        ".mgb1": (
            "MGB1Queue",
            "lemma1_expected_slowdown",
            "lemma2_scaled_moments",
            "theorem1_task_server_slowdown",
            "slowdown_constant",
        ),
        ".mm1": ("MM1Queue",),
        ".scaling": (
            "check_rate_vector",
            "normalise_rates",
            "per_class_utilisations",
            "scaled_service_distributions",
        ),
        ".sensitivity": (
            "SweepPoint",
            "shape_parameter_sweep",
            "upper_bound_sweep",
            "slowdown_elasticity",
        ),
        ".stability": (
            "utilisation",
            "total_utilisation",
            "is_stable",
            "check_stability",
            "arrival_rate_for_load",
        ),
    },
)
