"""A forward-only LSTM pass cut into token-balanced groups, one thread each.

Every group count must give the one-thread pass's bits, for lstm_forward's
means and for every neural model's rankings. The group count is forced by
patching the usable CPUs (os.sched_getaffinity) and neural.GROUP_SEQUENCES.
"""

import contextlib
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evpirank import neural
from evpirank.baselines import NeuralBaselineModel
from evpirank.evpi import EvpiModel, NeuralParams
from evpirank.neural import LstmParams, lstm_forward
from evpirank.retrieval import CandidateSet

from tests.synthetic import make_embedding_table

EMBED_DIM = 8
HIDDEN_DIM = 6
N_WORDS = 40


@contextlib.contextmanager
def groups_of(cpus: int, per_group: int = 1):
    """Up to cpus groups of at least per_group sequences for the passes run inside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neural, "GROUP_SEQUENCES", per_group)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        yield


def random_lstm(rng) -> LstmParams:
    params = LstmParams.init(EMBED_DIM, HIDDEN_DIM, rng, scale=0.7)
    params.b[...] = rng.normal(size=params.b.shape)
    return params


def forward_means(params, tokens, lens, gather) -> np.ndarray:
    return lstm_forward(params, tokens, lens, gather, for_backward=False)[0]


class TestTokenGroups:
    @pytest.mark.parametrize("lens, cpus, bounds", [
        ([12, 1, 1, 1], 2, [0, 1, 4]),    # the longest alone, then the rest
        ([3, 3, 3, 3], 4, [0, 1, 2, 3, 4]),  # groups of exactly one sequence
        ([4, 3, 2, 1], 2, [0, 1, 4]),     # the first group holds at most half the tokens
        ([5, 0, 0, 0], 3, [0, 1, 4]),     # an empty sequence adds no tokens to cut at
        ([0, 0, 0], 2, [0, 3]),
        ([7], 4, [0, 1]),
        ([], 4, [0, 0]),
    ])
    def test_contiguous_groups_of_about_equal_tokens(self, lens, cpus, bounds):
        with groups_of(cpus):
            assert list(neural._token_groups(np.array(lens, dtype=np.int64))) == bounds

    def test_below_the_minimum_group_size_the_pass_stays_on_one_thread(self):
        with groups_of(cpus=4, per_group=64):
            assert list(neural._token_groups(np.full(127, 5))) == [0, 127]
            assert len(neural._token_groups(np.full(128, 5))) == 3
            assert len(neural._token_groups(np.full(280, 5))) == 5

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (4, 4)])
    def test_each_group_runs_on_a_thread_of_its_own(self, cpus, threads):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        seen = set()

        def gather(ids):
            seen.add(threading.current_thread())  # idents may be reused, threads are kept
            return table[ids]

        lens = [6, 5, 4, 3, 2, 2, 1, 1]
        tokens = rng.integers(0, N_WORDS, size=sum(lens))
        with groups_of(cpus):
            forward_means(random_lstm(rng), tokens, lens, gather)
        assert len(seen) == threads


@st.composite
def ragged_batches(draw):
    """(seed, lengths): 1..16 sequences of 0..10 tokens, empty ones included."""
    seed = draw(st.integers(0, 2**32 - 1))
    lengths = draw(st.lists(st.integers(0, 10), min_size=1, max_size=16))
    return seed, lengths


class TestSameBitsAtEveryGroupCount:
    @settings(max_examples=60, deadline=None)
    @given(ragged_batches())
    @example((0, [0]))
    @example((1, [9, 0, 1]))          # the longest alone; one group of only empty ones
    @example((2, [1, 12, 1, 1, 1]))   # a group holding only the longest sequence
    @example((3, [2, 2, 2, 2, 0, 0]))
    def test_lstm_forward_means(self, batch):
        seed, lens = batch
        rng = np.random.default_rng(seed)
        params = random_lstm(rng)
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        tokens = rng.integers(0, N_WORDS, size=sum(lens))
        with groups_of(cpus=1):
            expected = forward_means(params, tokens, lens, table.__getitem__)
        for cpus in (2, 3, 4):
            with groups_of(cpus):
                means = forward_means(params, tokens, lens, table.__getitem__)
            assert means.tobytes() == expected.tobytes(), cpus

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @pytest.mark.parametrize("model_name", ["evpi", "neural-pq", "neural-pa", "neural-pqa"])
    def test_rank_prepared_scores(self, model_name, seed, n_sets):
        rng = np.random.default_rng(seed)
        words = np.array([f"w{k}" for k in range(N_WORDS)])
        table = make_embedding_table(list(words), EMBED_DIM, rng)
        params = NeuralParams.init(model_name, EMBED_DIM, HIDDEN_DIM, rng)
        for tensor in params.tensors().values():
            tensor += rng.normal(scale=0.3, size=tensor.shape)
        model = (EvpiModel if model_name == "evpi" else NeuralBaselineModel)(params, table)

        def text(hi):
            return " ".join(rng.choice(words, size=int(rng.integers(0, hi + 1))))

        sets = [
            CandidateSet(
                post_id=f"p{i}",
                post_body=text(12),
                questions=[text(6) for _ in range(5)],
                answers=[text(8) for _ in range(5)],
                source_post_ids=[f"s{i}-{j}" for j in range(5)],
                original_index=0,
            )
            for i in range(n_sets)
        ]
        preps = [model.prepare(cs) for cs in sets]
        with groups_of(cpus=1):
            expected = model.rank_prepared(preps)
        for cpus in (2, 3, 4):
            with groups_of(cpus):
                ranked = model.rank_prepared(preps)
            for got, want in zip(ranked, expected, strict=True):
                assert got.order == want.order
                assert np.array(got.scores).tobytes() == np.array(want.scores).tobytes()

    def test_more_groups_than_cores_under_fast_thread_switches(self):
        # Each thread fills its own slot of one shared results list; a lost or
        # misplaced slot would change the means.
        rng = np.random.default_rng(11)
        params = random_lstm(rng)
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        lens = rng.integers(0, 20, size=64)
        tokens = rng.integers(0, N_WORDS, size=int(lens.sum()))
        with groups_of(cpus=1):
            expected = forward_means(params, tokens, lens, table.__getitem__)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with groups_of(cpus=16):
                assert len(neural._token_groups(np.sort(lens)[::-1])) == 17
                for _ in range(5):
                    means = forward_means(params, tokens, lens, table.__getitem__)
                    assert means.tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestAFailingGroup:
    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_raises_on_the_caller_and_leaves_no_thread(self, failing):
        # Sorted longest first, group 0 (the caller's) holds the long
        # sequence of token 1, group 1 (the helper's) the short ones of token 2.
        rng = np.random.default_rng(5)
        table = rng.normal(size=(3, EMBED_DIM))
        poison = 1 if failing == "caller" else 2
        error = RuntimeError(f"gather refused token {poison}")

        def gather(ids):
            if (ids == poison).any():
                raise error
            return table[ids]

        lens = [8, 2, 2, 2, 2]
        tokens = np.array([1] * 8 + [2] * 8)
        before = threading.active_count()
        with groups_of(cpus=2):
            assert list(neural._token_groups(np.array(lens))) == [0, 1, 5]
            with pytest.raises(RuntimeError) as raised:
                forward_means(random_lstm(rng), tokens, lens, gather)
        assert raised.value is error
        assert threading.active_count() == before
