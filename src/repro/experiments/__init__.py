"""Experiment drivers reproducing every figure of the paper's evaluation.

``run("fig2", preset="quick")`` runs one figure; ``run_all`` runs all of them;
``python -m repro.experiments`` regenerates EXPERIMENTS.md.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".autoscale": ("run_autoscale", "AutoscaleBuild", "default_patterns"),
        ".base": (
            "ExperimentResult",
            "ServerFactory",
            "simulate_psd_point",
            "pooled_window_ratios",
            "ScenarioBuild",
        ),
        ".cluster": ("cluster_scaling", "run_cluster_scaling", "ClusterScalingBuild"),
        ".config": ("ExperimentConfig", "PRESETS", "get_preset"),
        ".controllability": ("figure9", "figure10", "run_controllability"),
        ".effectiveness": ("figure2", "figure3", "figure4", "run_effectiveness"),
        ".predictability": (
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "run_ratio_percentiles",
            "run_individual_requests",
        ),
        ".registry": ("run", "run_all", "available_experiments", "EXPERIMENTS"),
        ".report": ("PAPER_CLAIMS", "build_report", "write_report"),
        ".sensitivity": (
            "figure11",
            "figure12",
            "run_shape_sensitivity",
            "run_upper_bound_sensitivity",
            "DEFAULT_SENSITIVITY_LOAD",
        ),
        ".tables": ("render_table", "format_value"),
    },
)
