"""Unit and property tests for deterministic RNG streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.rng import BATCH, RngStreams, derive_seed

#: Draws per identity check: past at least three batch boundaries.
N_DRAWS = 3 * BATCH + 5


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_distinct_paths_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_distinct_roots_distinct_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_fits_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "n") < 2**63

    @settings(max_examples=50, deadline=None)
    @given(root=st.integers(min_value=0, max_value=2**31),
           names=st.lists(st.text(max_size=8), max_size=4))
    def test_stable_under_repetition(self, root, names):
        assert derive_seed(root, *names) == derive_seed(root, *names)


class TestRngStreams:
    def test_same_path_same_generator_object(self):
        rngs = RngStreams(3)
        assert rngs.stream("a", 1) is rngs.stream("a", 1)

    def test_different_paths_independent(self):
        rngs = RngStreams(3)
        a = rngs.stream("a").integers(0, 1_000_000, size=10)
        b = rngs.stream("b").integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_reproducible_across_instances(self):
        a = RngStreams(9).stream("w", 2).integers(0, 1000, size=20)
        b = RngStreams(9).stream("w", 2).integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_consuming_one_stream_leaves_others_alone(self):
        rngs1 = RngStreams(5)
        rngs1.stream("noise").integers(0, 10, size=100)  # consume
        x1 = rngs1.stream("signal").integers(0, 1000, size=10)

        rngs2 = RngStreams(5)
        x2 = rngs2.stream("signal").integers(0, 1000, size=10)
        assert np.array_equal(x1, x2)

    def test_fresh_is_uncached(self):
        rngs = RngStreams(5)
        a = rngs.fresh("f").integers(0, 1000, size=5)
        b = rngs.fresh("f").integers(0, 1000, size=5)
        assert np.array_equal(a, b)  # same seed, fresh state each time


class TestDrawSources:
    """Batched sources replay the per-call draws of their stream exactly.

    They rely on numpy buffering bounded draws at the bit-generator level
    and on ``permuted`` shuffling rows as ``permutation`` does; these
    tests are the guard should a numpy release change either.
    """

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 31])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_permutations_match_per_call_draws(self, n, seed):
        src = RngStreams(seed).permutations(n, "victims", 2, 1)
        ref = RngStreams(seed).stream("victims", 2, 1)
        for _ in range(N_DRAWS):
            assert src.draw() == ref.permutation(n).tolist()

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 31])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_indices_match_per_call_draws(self, n, seed):
        src = RngStreams(seed).indices(n, "lifeline-victims", 0, 3)
        ref = RngStreams(seed).stream("lifeline-victims", 0, 3)
        for _ in range(N_DRAWS):
            value = src.draw()
            assert type(value) is int
            assert value == int(ref.integers(n))

    @pytest.mark.parametrize("kind", ["permutations", "indices"])
    def test_state_equal_after_whole_batches(self, kind):
        src = getattr(RngStreams(4), kind)(15, "s")
        ref = RngStreams(4).stream("s")
        for _ in range(2 * BATCH):
            src.draw()
            if kind == "permutations":
                ref.permutation(15)
            else:
                ref.integers(15)
        assert src._gen.bit_generator.state == ref.bit_generator.state

    def test_same_path_same_source(self):
        rngs = RngStreams(3)
        assert rngs.permutations(7, "v", 1) is rngs.permutations(7, "v", 1)

    def test_templates_shared_and_read_only(self):
        rngs = RngStreams(3)
        a = rngs.permutations(7, "a")
        b = rngs.permutations(7, "b")
        assert a._template is b._template
        assert not a._template.flags.writeable

    def test_batched_path_refuses_raw_stream(self):
        rngs = RngStreams(3)
        rngs.permutations(7, "v", 1)
        with pytest.raises(ConfigError):
            rngs.stream("v", 1)

    def test_raw_path_refuses_batching(self):
        rngs = RngStreams(3)
        rngs.stream("v", 1)
        with pytest.raises(ConfigError):
            rngs.permutations(7, "v", 1)
        with pytest.raises(ConfigError):
            rngs.indices(7, "v", 1)

    def test_path_keeps_one_n(self):
        rngs = RngStreams(3)
        rngs.permutations(7, "v")
        rngs.indices(15, "i")
        with pytest.raises(ConfigError):
            rngs.permutations(8, "v")
        with pytest.raises(ConfigError):
            rngs.indices(14, "i")

    def test_path_keeps_one_kind(self):
        rngs = RngStreams(3)
        rngs.permutations(7, "v")
        rngs.indices(7, "i")
        with pytest.raises(ConfigError):
            rngs.indices(7, "v")
        with pytest.raises(ConfigError):
            rngs.permutations(7, "i")
