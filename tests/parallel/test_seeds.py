"""Shard layout and seed-stream determinism (the contract's foundations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.seeds import shard_layout, shard_roots, spawn_shard_states
from repro.utils.exceptions import ValidationError
from repro.utils.rng import ensure_rng


class TestShardLayout:
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000, 2048, 100_000])
    def test_layout_partitions_range(self, count):
        layout = shard_layout(count, 64)
        assert sum(stop - start for start, stop in layout) == count
        position = 0
        for start, stop in layout:
            assert start == position and stop > start
            position = stop
        assert position == count

    def test_layout_is_pure_function_of_count(self):
        # The determinism contract: the same count and size always yield
        # the same shards, with no dependence on the environment.
        assert shard_layout(5000, 1250) == shard_layout(5000, 1250)

    def test_explicit_shard_size(self):
        layout = shard_layout(10, shard_size=4)
        assert layout == [(0, 4), (4, 8), (8, 10)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            shard_layout(-1, 4)
        with pytest.raises(ValidationError):
            shard_layout(10, shard_size=0)


class TestShardStates:
    def test_int_seed_reproducible(self):
        a = spawn_shard_states(42, 4)
        b = spawn_shard_states(42, 4)
        for state_a, state_b in zip(a, b):
            assert ensure_rng(state_a).random() == ensure_rng(state_b).random()

    def test_streams_are_distinct(self):
        draws = [ensure_rng(state).random() for state in spawn_shard_states(7, 8)]
        assert len(set(draws)) == len(draws)

    def test_seed_sequence_input(self):
        seq = np.random.SeedSequence(3)
        a = spawn_shard_states(seq, 2)
        b = spawn_shard_states(np.random.SeedSequence(3), 2)
        assert ensure_rng(a[0]).random() == ensure_rng(b[0]).random()

    def test_generator_input_advances_spawn_counter(self):
        # Two successive calls on the same generator must give fresh but
        # reproducible families (same as re-running from the same seed).
        rng = np.random.default_rng(9)
        first = spawn_shard_states(rng, 2)
        second = spawn_shard_states(rng, 2)
        assert ensure_rng(first[0]).random() != ensure_rng(second[0]).random()
        rng2 = np.random.default_rng(9)
        again = spawn_shard_states(rng2, 2)
        assert ensure_rng(again[0]).random() == pytest.approx(
            ensure_rng(spawn_shard_states(np.random.default_rng(9), 2)[0]).random()
        )

    def test_states_are_picklable(self):
        import pickle

        for state in spawn_shard_states(1, 2) + spawn_shard_states(
            np.random.default_rng(1), 2
        ):
            clone = pickle.loads(pickle.dumps(state))
            assert ensure_rng(clone).random() == ensure_rng(state).random()

    def test_zero_shards(self):
        assert spawn_shard_states(0, 0) == []

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            spawn_shard_states(0, -1)
        with pytest.raises(TypeError):
            spawn_shard_states("seed", 2)


class TestShardRoots:
    def test_none_passthrough(self):
        assert shard_roots(None, [(0, 2), (2, 4)]) == [None, None]

    def test_slicing_follows_layout(self):
        shards = shard_roots([5, 6, 7, 8, 9], [(0, 2), (2, 5)])
        assert shards[0].tolist() == [5, 6]
        assert shards[1].tolist() == [7, 8, 9]
