"""Tests for repro.common.rng."""

import json

import numpy as np
import pytest

from repro.common.rng import RandomState, get_rng, seed_all
from repro.ppl.inference.batched import TraceJob


class TestRandomState:
    def test_same_seed_same_stream(self):
        a = RandomState(7)
        b = RandomState(7)
        assert np.allclose(a.normal(size=10), b.normal(size=10))

    def test_different_seed_different_stream(self):
        a = RandomState(7)
        b = RandomState(8)
        assert not np.allclose(a.normal(size=10), b.normal(size=10))

    def test_reseed_restarts_stream(self):
        state = RandomState(3)
        first = state.uniform(size=5)
        state.reseed(3)
        assert np.allclose(state.uniform(size=5), first)

    def test_spawn_children_are_deterministic(self):
        parent = RandomState(11)
        child_a = parent.spawn(0)
        child_b = RandomState(11).spawn(0)
        assert np.allclose(child_a.normal(size=6), child_b.normal(size=6))

    def test_spawn_children_differ_by_key(self):
        parent = RandomState(11)
        assert not np.allclose(parent.spawn(0).normal(size=6), parent.spawn(1).normal(size=6))

    def test_spawn_name_includes_key(self):
        parent = RandomState(11, name="root")
        assert parent.spawn(3).name == "root/3"
        assert parent.spawn((3, 4)).name == "root/3/4"

    def test_spawn_tuple_keys_mix_instead_of_summing(self):
        # (b, i) and (b + 1, i - 1) sum to the same value; with entropy-word
        # mixing they must still be unrelated streams (the per-trace seed
        # collision fix relies on this).
        parent = RandomState(11)
        draws = {
            key: tuple(parent.spawn(key).normal(size=6))
            for key in [(5, 1), (6, 0), (4, 2), (5, 2), (6, 1)]
        }
        assert len(set(draws.values())) == len(draws)
        # Deterministic: the same composite key reproduces the same stream.
        again = RandomState(11).spawn((5, 1)).normal(size=6)
        assert np.allclose(again, draws[(5, 1)])
        # A tuple key is not the same stream as the flat sum of its parts.
        assert not np.allclose(parent.spawn((5, 1)).normal(size=6), parent.spawn(6).normal(size=6))

    def test_unseeded_parents_hand_out_independent_children(self):
        # Keying an unseeded parent's children by hash(None) gave every
        # unseeded parent the same child stream for the same key.
        first = RandomState().spawn(5).random()
        second = RandomState().spawn(5).random()
        assert first != second
        assert RandomState().spawn((5, 1)).random() != RandomState().spawn((5, 1)).random()

    def test_seeded_children_are_unchanged(self):
        # Frozen draws: the unseeded fix must not move any seeded derivation.
        assert RandomState(11).spawn(0).random() == np.random.default_rng(
            np.random.SeedSequence(entropy=[11, 0])
        ).random()
        child = RandomState(11).spawn((5, 1))
        assert child.seed == (11, 5, 1)
        grandchild = child.spawn(2)
        assert grandchild.random() == np.random.default_rng(
            np.random.SeedSequence(entropy=[hash((11, 5, 1)) & 0xFFFFFFFF, 2])
        ).random()

    def test_spawn_and_from_key_read_no_os_entropy(self, monkeypatch):
        # numpy reads OS entropy exactly when a generator is built unseeded
        # (default_rng(None)); a seeded parent's spawn and a keyed build must
        # each build one generator, from an explicit seed sequence.
        seeds = []
        build = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seeds.append(seed) or build(seed))
        RandomState()
        assert seeds == [None]  # the probe sees an unseeded build

        parent = RandomState(11)
        seeds.clear()
        child = parent.spawn((5, 1))
        assert len(seeds) == 1 and seeds[0] is not None
        rebuilt = RandomState.from_key(child.seed)
        assert len(seeds) == 2 and seeds[1] is not None
        assert rebuilt.seed == child.seed and rebuilt.random() == child.random()

    def test_integers_bounds(self):
        state = RandomState(0)
        draws = state.integers(0, 5, size=200)
        assert draws.min() >= 0 and draws.max() < 5

    def test_choice_with_probabilities(self):
        state = RandomState(0)
        draws = state.choice(3, size=3000, p=[0.8, 0.1, 0.1])
        assert (draws == 0).mean() > 0.7

    def test_convenience_distributions(self):
        state = RandomState(0)
        assert state.gamma(2.0, 1.0, size=10).shape == (10,)
        assert state.beta(2.0, 2.0, size=10).shape == (10,)
        assert state.poisson(3.0, size=10).shape == (10,)
        assert state.exponential(1.0, size=10).shape == (10,)
        assert state.standard_normal(4).shape == (4,)
        assert len(state.permutation(np.arange(5))) == 5


class TestStreamKeys:
    def test_spawn_is_the_stream_of_its_child_key(self):
        parent = RandomState(11)
        assert parent.child_key((5, 1)) == (11, 5, 1)
        assert parent.child_key(3) == (11, 3)
        assert RandomState.from_key((11, 5, 1)).random() == parent.spawn((5, 1)).random()

    def test_a_key_rebuilds_its_stream_from_the_start(self):
        # Every build from one key starts at the same first draw, whatever
        # an earlier build of it consumed: a re-run needs nothing rewound.
        key = RandomState(4).child_key((9, 2))
        used = RandomState.from_key(key)
        first = used.normal(size=5)
        assert np.array_equal(RandomState.from_key(key).normal(size=5), first)

    def test_a_key_survives_json(self):
        # A capture file stores a key as a JSON list of ints.
        key = RandomState(4).child_key((2**31 - 2, 7))
        again = json.loads(json.dumps(list(key)))
        assert RandomState.from_key(again).random() == RandomState.from_key(key).random()
        assert RandomState.from_key(again).seed == key

    def test_words_are_taken_modulo_two_to_the_32(self):
        # Keys keep the identity word as given (a large seed, a hash), and
        # seed the generator from its low 32 bits, as spawn always has.
        big = RandomState(2**40 + 11)
        key = big.child_key(3)
        assert key == (2**40 + 11, 3)
        assert RandomState.from_key(key).random() == np.random.default_rng(
            np.random.SeedSequence(entropy=[11, 3])
        ).random()

    def test_trace_jobs_whose_keys_sum_alike_draw_apart(self):
        # Job 1 of base 10 and job 0 of base 11: (7, 10, 1) and (7, 11, 0)
        # sum to the same number, so a stream seeded from the key's sum
        # would hand both requests one stream.  Mixed entropy words do not.
        job_1_of_base_10 = TraceJob.for_request(0, {}, None, 2, (7, 10))[1]
        job_0_of_base_11 = TraceJob.for_request(1, {}, None, 1, (7, 11))[0]
        assert job_1_of_base_10.key == (7, 10, 1)
        assert job_0_of_base_11.key == (7, 11, 0)
        assert job_1_of_base_10.stream().random() != job_0_of_base_11.stream().random()


class TestGlobalState:
    def test_seed_all_is_reproducible(self):
        seed_all(99)
        a = get_rng().normal(size=5)
        seed_all(99)
        b = get_rng().normal(size=5)
        assert np.allclose(a, b)


class TestSamplerEpochStreams:
    """The sampler's per-epoch shuffle stream must mix (seed, epoch), not sum.

    Additive keying (``seed + epoch``) makes (seed=4, epoch=1) and
    (seed=5, epoch=0) share one shuffle stream — the PR 3 seed-collision
    class resurfacing in the training pipeline.
    """

    def _order(self, seed, epoch):
        from repro.data.sampler import DistributedTraceSampler

        sampler = DistributedTraceSampler(
            list(range(320)), minibatch_size=8, num_ranks=1, lengths=[1] * 320, trace_types=["a"] * 320, seed=seed
        )
        sampler.set_epoch(epoch)
        return [group[0][0] for group in sampler]

    def test_adjacent_seed_epoch_pairs_do_not_collide(self):
        assert self._order(4, 1) != self._order(5, 0)

    def test_epoch_stream_is_deterministic(self):
        assert self._order(4, 1) == self._order(4, 1)

    def test_matches_spawned_child_stream(self):
        # The sampler's shuffle is exactly the (seed, epoch)-spawned child.
        order = np.arange(40)
        RandomState(4).spawn(1).generator.shuffle(order)
        first_indices = [int(i) * 8 for i in order]
        assert self._order(4, 1) == first_indices
