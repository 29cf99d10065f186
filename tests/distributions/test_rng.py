"""Tests for RNG stream management."""

import numpy as np
import pytest

from repro.distributions import (
    make_generator,
    spawn_generators,
    spawn_seed_sequences,
)
from repro.errors import ParameterError


class TestMakeGenerator:
    def test_from_int_is_reproducible(self):
        a = make_generator(42).random(5)
        b = make_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_passthrough_of_existing_generator(self):
        g = np.random.default_rng(1)
        assert make_generator(g) is g

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        a = make_generator(ss).random(3)
        b = make_generator(np.random.SeedSequence(7)).random(3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_unsupported_seed(self):
        with pytest.raises(ParameterError):
            make_generator("not-a-seed")  # type: ignore[arg-type]


class TestSpawning:
    def test_spawn_count_and_independence(self):
        gens = spawn_generators(0, 4)
        assert len(gens) == 4
        draws = [g.random(8) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_spawn_rejects_non_positive_count(self):
        with pytest.raises(ParameterError):
            spawn_seed_sequences(0, 0)

    def test_spawn_is_reproducible(self):
        a = [g.random(4) for g in spawn_generators(9, 3)]
        b = [g.random(4) for g in spawn_generators(9, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_a_seed_sequence_is_a_value(self):
        """Spawning from a passed ``SeedSequence`` does not advance it, so a
        second call gives the same children, and a fresh root's children
        are the ones ``SeedSequence.spawn`` gives."""
        root = np.random.SeedSequence(2004)
        first = spawn_seed_sequences(root, 3)
        second = spawn_seed_sequences(root, 3)
        assert root.n_children_spawned == 0
        spawned = np.random.SeedSequence(2004).spawn(3)
        for a, b, c in zip(first, second, spawned):
            assert a.spawn_key == b.spawn_key == c.spawn_key
            np.testing.assert_array_equal(a.generate_state(4), c.generate_state(4))
            np.testing.assert_array_equal(b.generate_state(4), c.generate_state(4))

    def test_children_of_a_child_extend_its_spawn_key(self):
        (child,) = np.random.SeedSequence(7).spawn(1)
        grandchildren = spawn_seed_sequences(child, 2)
        assert [g.spawn_key for g in grandchildren] == [(0, 0), (0, 1)]
        for derived, spawned in zip(grandchildren, child.spawn(2)):
            np.testing.assert_array_equal(derived.generate_state(4), spawned.generate_state(4))
