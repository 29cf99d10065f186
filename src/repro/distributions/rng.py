"""Random-number-generator management.

The simulation study in the paper averages each data point over 100
independent runs.  To make replications independent and reproducible we use
NumPy's ``SeedSequence`` spawning discipline: a single experiment seed is
spawned into one child sequence per replication, and every replication spawns
one stream per request class.  The helpers below centralise that discipline so
that every component of the library draws from an explicit
:class:`numpy.random.Generator` rather than global state.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

__all__ = [
    "make_generator",
    "spawn_generators",
    "spawn_seed_sequences",
]


def make_generator(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh OS entropy), an integer, a
    ``SeedSequence`` or an existing ``Generator`` (returned unchanged, which
    lets callers pass a generator through layered APIs without re-seeding).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise ParameterError(f"unsupported seed specification: {seed!r}")


def spawn_seed_sequences(
    seed: int | np.random.SeedSequence | None, count: int
) -> list[np.random.SeedSequence]:
    """Spawn ``count`` independent child seed sequences from ``seed``.

    A seed is a value: the children are derived from a passed
    ``SeedSequence``'s entropy and spawn key without advancing it (which
    ``SeedSequence.spawn`` would), so the same seed always gives the same
    children — for a fresh sequence, exactly the ones ``spawn`` gives.
    """
    if count <= 0:
        raise ParameterError(f"count must be > 0, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (i,), pool_size=root.pool_size
        )
        for i in range(count)
    ]


def spawn_generators(
    seed: int | np.random.SeedSequence | None, count: int
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from a single ``seed``."""
    return [np.random.default_rng(ss) for ss in spawn_seed_sequences(seed, count)]
