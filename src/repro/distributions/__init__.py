"""Service-time and job-size distributions.

Everything needed to describe the workloads of the paper: the Bounded Pareto
family (the central heavy-tailed model), the deterministic service of the
M/D/1 session case (Eq. 15), the exponential of the M/M/1 contrast (Sec. 5),
the hyperexponential of the e-commerce example, numerical moment
verification and reproducible RNG stream management.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".base": ("Distribution",),
        ".bounded_pareto": ("BoundedPareto",),
        ".deterministic": ("Deterministic",),
        ".exponential": ("Exponential",),
        ".hyperexponential": ("Hyperexponential",),
        ".moments": ("MomentReport", "numerical_moment", "sample_moments", "verify_moments"),
        ".rng": ("make_generator", "spawn_generators", "spawn_seed_sequences"),
    },
)
