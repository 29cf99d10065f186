"""Service-time and job-size distributions.

Everything needed to describe the workloads of the paper: the Bounded Pareto
family (the central heavy-tailed model), the deterministic service of the
M/D/1 session case (Eq. 15), the exponential of the M/M/1 contrast (Sec. 5),
the hyperexponential of the e-commerce example, numerical moment
verification and reproducible RNG stream management.
"""

from .base import Distribution
from .bounded_pareto import BoundedPareto
from .deterministic import Deterministic
from .exponential import Exponential
from .hyperexponential import Hyperexponential
from .moments import MomentReport, numerical_moment, sample_moments, verify_moments
from .rng import make_generator, spawn_generators, spawn_seed_sequences

__all__ = [
    "Distribution",
    "BoundedPareto",
    "Exponential",
    "Deterministic",
    "Hyperexponential",
    "MomentReport",
    "numerical_moment",
    "sample_moments",
    "verify_moments",
    "make_generator",
    "spawn_generators",
    "spawn_seed_sequences",
]
