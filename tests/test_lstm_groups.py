"""An LSTM call cut into token-balanced groups, stepped on one thread per CPU.

A forward-only call may run several encoders of one shape. Every group and
thread count must give the bits of one encoder at a time on one thread, for
lstm_forward's means, a pass for backward's cache and gradients, and every
neural model's rankings. The counts are
forced by patching the usable CPUs (os.sched_getaffinity) and the floors
neural.GROUP_SEQUENCES and neural.GROUP_FLOPS.
"""

import contextlib
import dataclasses
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
from evpirank.neural import LstmCache, LstmParams, lstm_backward, lstm_forward
from evpirank.retrieval import CandidateSet

from tests.synthetic import make_embedding_table

EMBED_DIM = 8
HIDDEN_DIM = 6
N_WORDS = 40


@contextlib.contextmanager
def groups_of(cpus: int, floors: bool = False):
    """cpus usable CPUs for the passes run inside; without floors a group may be one token."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if not floors:
            patch.setattr(neural, "GROUP_SEQUENCES", 1)
            patch.setattr(neural, "GROUP_FLOPS", 1)
        yield


def random_lstm(rng) -> LstmParams:
    params = LstmParams.init(EMBED_DIM, HIDDEN_DIM, rng, scale=0.7)
    params.b[...] = rng.normal(size=params.b.shape)
    return params


def forward_means(params, tokens, lens, gather) -> np.ndarray:
    return lstm_forward(params, tokens, lens, gather, for_backward=False)[0]


def gather_on_every_thread(table, cpus, seen: set):
    """table's gather, but each thread waits on its first rows until cpus threads hold a group.

    So no thread can take a second group before every thread has one, and
    seen ends up holding cpus threads.
    """
    everyone = threading.Barrier(cpus, timeout=30)

    def gather(ids):
        thread = threading.current_thread()  # idents may be reused, threads are kept
        if len(ids) and thread not in seen:
            seen.add(thread)
            everyone.wait()
        return table[ids]

    return gather


def encoders_of(rng, count) -> list[LstmParams]:
    return [random_lstm(rng) for _ in range(count)]


def plan_means(encoders, tokens, lens_of, gather) -> np.ndarray:
    """One forward-only call over every encoder's sequences, in order."""
    lens = [n for lens in lens_of for n in lens]
    others = [(lstm, len(lens)) for lstm, lens in zip(encoders[1:], lens_of[1:])]
    return lstm_forward(encoders[0], tokens, lens, gather, for_backward=False, others=others)[0]


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
            assert neural._token_groups(np.array(lens, dtype=np.int64), 1, cpus) == bounds

    def test_a_group_holds_at_least_the_sequence_and_work_floors(self):
        groups = neural._token_groups  # GROUP_SEQUENCES = 64, GROUP_FLOPS = 100 MFLOP
        # at a million FLOPs a token the work floor never binds
        assert groups(np.full(127, 5), 10**6, 4) == [0, 127]
        assert len(groups(np.full(128, 5), 10**6, 4)) == 3
        assert len(groups(np.full(280, 5), 10**6, 4)) == 5
        # H = 100 over d = 200 runs 240,000 FLOPs a token: 100 MFLOP is about 417 tokens
        flops = 8 * 100 * (200 + 100)
        assert groups(np.full(128, 4), flops, 4) == [0, 128]    # 123 MFLOP
        assert len(groups(np.full(128, 7), flops, 4)) == 3      # 215 MFLOP: two groups
        assert len(groups(np.full(280, 13), flops, 4)) == 5     # 874 MFLOP: one per CPU

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_each_usable_cpu_steps_a_group_at_once(self, cpus):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        seen = set()
        lens = [6, 5, 4, 3, 2, 2, 1, 1]
        tokens = rng.integers(0, N_WORDS, size=sum(lens))
        before = threading.active_count()
        with groups_of(cpus):
            forward_means(random_lstm(rng), tokens, lens, gather_on_every_thread(table, cpus, seen))
        assert len(seen) == cpus
        assert threading.active_count() == before


class TestSmallPassesStayOnOneThread:
    """Passes under the work floor run on the caller's thread alone.

    At H = 24 two threads of short products contend for the GIL, so a pass
    of a few hundred short texts ran slower split in two (2-core x86-64).
    """

    @staticmethod
    def threads_of(encoders, lens_of, embed_dim, rng, for_backward=False) -> set:
        table = rng.normal(size=(N_WORDS, embed_dim))
        seen = set()

        def gather(ids):
            seen.add(threading.current_thread())
            return table[ids]

        tokens = rng.integers(0, N_WORDS, size=sum(map(sum, lens_of)))
        with groups_of(cpus=2, floors=True):
            if len(encoders) == 1:
                lstm_forward(encoders[0], tokens, lens_of[0], gather, for_backward)
            else:
                plan_means(encoders, tokens, lens_of, gather)
        return seen

    @pytest.mark.parametrize("for_backward", [False, True])
    @pytest.mark.parametrize("texts", [128, 500])
    def test_an_h24_pass_of_hundreds_of_short_texts(self, texts, for_backward):
        rng = np.random.default_rng(texts)
        lstm = LstmParams.init(24, 24, rng)
        lens = rng.integers(1, 26, size=texts).tolist()  # about 60 MFLOP at 500 texts
        threads = self.threads_of([lstm], [lens], 24, rng, for_backward)
        assert threads == {threading.current_thread()}

    def test_train_tune_passes_of_three_encoders(self):
        # perfbench train's tune evaluation: at most 50 texts of 4 to 10 tokens, d = 16
        rng = np.random.default_rng(7)
        encoders = [LstmParams.init(16, 24, rng) for _ in range(3)]
        lens_of = [rng.integers(4, 11, size=50).tolist() for _ in encoders]
        assert self.threads_of(encoders, lens_of, 16, rng) == {threading.current_thread()}

    def test_a_rank_chunk_uses_both_cpus(self):
        # the shape of perfbench rank: 28 posts of 40-200 tokens, 280 questions and answers
        rng = np.random.default_rng(8)
        encoders = [LstmParams.init(EMBED_DIM, 100, rng) for _ in range(3)]
        lens_of = [rng.integers(40, 201, size=28).tolist(),
                   rng.integers(2, 38, size=280).tolist(), rng.integers(1, 41, size=280).tolist()]
        assert len(self.threads_of(encoders, lens_of, EMBED_DIM, rng)) == 2


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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(
        st.lists(st.integers(0, 10), max_size=12), min_size=1, max_size=3,
    ))
    @example(0, [[], [0, 0], [3]])           # an encoder with no sequences, one with only empty ones
    @example(1, [[20, 1], [1, 1, 1, 1], [2, 2]])  # the longest group first, whatever its encoder
    def test_one_call_over_several_encoders(self, seed, lens_of):
        rng = np.random.default_rng(seed)
        encoders = encoders_of(rng, len(lens_of))
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        tokens_of = [rng.integers(0, N_WORDS, size=sum(lens)) for lens in lens_of]
        with groups_of(cpus=1):
            expected = np.concatenate([
                forward_means(lstm, tokens, lens, table.__getitem__).reshape(-1, HIDDEN_DIM)
                for lstm, tokens, lens in zip(encoders, tokens_of, lens_of)
            ])
        for cpus in (1, 2, 4):
            with groups_of(cpus):
                means = plan_means(encoders, np.concatenate(tokens_of), lens_of, table.__getitem__)
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
        # Each group sums into its own rows of one shared array; a lost or
        # misplaced group would change the means.
        rng = np.random.default_rng(11)
        encoders = encoders_of(rng, 3)
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        lens_of = [rng.integers(0, 20, size=n).tolist() for n in (64, 40, 24)]
        tokens = rng.integers(0, N_WORDS, size=sum(map(sum, lens_of)))
        with groups_of(cpus=1):
            expected = plan_means(encoders, tokens, lens_of, table.__getitem__)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with groups_of(cpus=16):
                assert len(neural._token_groups(np.sort(lens_of[0])[::-1], 1, 16)) == 17
                for _ in range(5):
                    means = plan_means(encoders, tokens, lens_of, table.__getitem__)
                    assert means.tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)


def backward_pass(params, tokens, lens, gather, d_means):
    """(means, cache, gradients) of one pass for backward and lstm_backward over it."""
    means, cache = lstm_forward(params, tokens, lens, gather)
    return means, cache, lstm_backward(params, cache, d_means)


def assert_same_bits(got, want) -> None:
    (means, cache, grads), (want_means, want_cache, want_grads) = got, want
    assert means.tobytes() == want_means.tobytes()
    for name in (f.name for f in dataclasses.fields(LstmCache)):
        have, expected = getattr(cache, name), getattr(want_cache, name)
        assert (have.shape, have.tobytes()) == (expected.shape, expected.tobytes()), name
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert grad.tobytes() == want_grads[name].tobytes(), name


class TestGroupedPassForBackward:
    """A pass for backward cut into groups fills the one packed cache of one group."""

    @staticmethod
    def inputs(seed, lens):
        rng = np.random.default_rng(seed)
        params = random_lstm(rng)
        table = rng.normal(size=(N_WORDS, EMBED_DIM))
        tokens = rng.integers(0, N_WORDS, size=sum(lens))
        return params, table, tokens, rng.normal(size=(len(lens), HIDDEN_DIM))

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_each_usable_cpu_steps_a_group_at_once(self, cpus):
        lens = [6, 5, 4, 3, 2, 2, 1, 1]
        params, table, tokens, d_means = self.inputs(cpus, lens)
        with groups_of(cpus=1):
            expected = backward_pass(params, tokens, lens, table.__getitem__, d_means)
        seen = set()
        before = threading.active_count()
        with groups_of(cpus):
            assert len(neural._token_groups(np.array(lens), 1, cpus)) == cpus + 1
            gather = gather_on_every_thread(table, cpus, seen)
            got = backward_pass(params, tokens, lens, gather, d_means)
        assert len(seen) == cpus
        assert threading.active_count() == before
        assert_same_bits(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(ragged_batches())
    @example((0, [0]))
    @example((1, [9, 0, 1]))
    @example((2, [1, 12, 1, 1, 1]))
    @example((3, [2, 2, 2, 2, 0, 0]))
    def test_means_cache_and_gradients(self, batch):
        seed, lens = batch
        params, table, tokens, d_means = self.inputs(seed, lens)
        with groups_of(cpus=1):
            expected = backward_pass(params, tokens, lens, table.__getitem__, d_means)
        for cpus in (2, 3, 4):
            with groups_of(cpus):
                got = backward_pass(params, tokens, lens, table.__getitem__, d_means)
            assert_same_bits(got, expected)

    def test_more_groups_than_cores_under_fast_thread_switches(self):
        # Each group writes its own rows of the shared cache arrays; a lost or
        # misplaced row would change the cache or the gradients.
        lens = np.random.default_rng(12).integers(0, 20, size=64).tolist()
        params, table, tokens, d_means = self.inputs(12, lens)
        with groups_of(cpus=1):
            expected = backward_pass(params, tokens, lens, table.__getitem__, d_means)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with groups_of(cpus=16):
                assert len(neural._token_groups(np.sort(lens)[::-1], 1, 16)) == 17
                for _ in range(5):
                    got = backward_pass(params, tokens, lens, table.__getitem__, d_means)
                    assert_same_bits(got, expected)
        finally:
            sys.setswitchinterval(interval)


class TestAFailingGroup:
    @pytest.mark.parametrize("failing", ["long-group", "short-group"])
    def test_raises_on_the_caller_and_leaves_no_thread(self, failing):
        # Sorted longest first, group 0 holds the long sequence of token 1 and
        # group 1 the short ones of token 2; either thread may run either.
        rng = np.random.default_rng(5)
        table = rng.normal(size=(3, EMBED_DIM))
        poison = 1 if failing == "long-group" else 2
        error = RuntimeError(f"gather refused token {poison}")

        def gather(ids):
            if (ids == poison).any():
                raise error
            return table[ids]

        lens = [8, 2, 2, 2, 2]
        tokens = np.array([1] * 8 + [2] * 8)
        before = threading.active_count()
        with groups_of(cpus=2):
            assert neural._token_groups(np.array(lens), 1, 2) == [0, 1, 5]
            with pytest.raises(RuntimeError) as raised:
                forward_means(random_lstm(rng), tokens, lens, gather)
        assert raised.value is error
        assert threading.active_count() == before
