"""One packed LSTM pass over ragged sequences against the per-sequence loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank.evpi import NeuralParams, PreparedCandidates, SetEncoding
from evpirank.neural import LstmParams, lstm_backward, lstm_forward
from evpirank.retrieval import CandidateSet

from tests.oracles import sequence_lstm_backward, sequence_lstm_forward

EMBED_DIM = 4
HIDDEN_DIM = 5


def random_lstm(rng, input_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM) -> LstmParams:
    params = LstmParams.init(input_dim, hidden_dim, rng, scale=0.7)
    params.b[...] = rng.normal(size=params.b.shape)
    return params


@st.composite
def ragged_batches(draw):
    """(seed, sequences): B = 1..12 sequences of 0..12 rows, some repeated."""
    seed = draw(st.integers(0, 2**32 - 1))
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=12))
    # Sequence k repeats sequence copies[k] when that index is below k.
    copies = draw(st.lists(st.integers(0, 11), min_size=len(lengths), max_size=len(lengths)))
    rng = np.random.default_rng(seed)
    seqs = []
    for k, length in enumerate(lengths):
        fresh = rng.normal(size=(length, EMBED_DIM))
        seqs.append(seqs[copies[k]].copy() if copies[k] < k else fresh)
    return seed, seqs


def packed(params, seqs):
    return lstm_forward(params, np.concatenate(seqs), [len(s) for s in seqs])


class TestPackedAgainstPerSequenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(ragged_batches())
    def test_means_and_gradients_match_the_oracle(self, batch):
        seed, seqs = batch
        rng = np.random.default_rng(seed + 1)
        params = random_lstm(rng)
        d_means = rng.normal(size=(len(seqs), HIDDEN_DIM))
        means, cache = packed(params, seqs)
        grads = lstm_backward(params, cache, d_means)
        assert means.shape == (len(seqs), HIDDEN_DIM)
        assert cache.h.shape[0] == sum(len(s) for s in seqs)
        expected = {name: np.zeros_like(grad) for name, grad in grads.items()}
        for k, seq in enumerate(seqs):
            mean, seq_cache = sequence_lstm_forward(params, seq)
            np.testing.assert_allclose(means[k], mean, rtol=0, atol=1e-12)
            for name, grad in sequence_lstm_backward(params, seq_cache, d_means[k]).items():
                expected[name] += grad
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, expected[name], rtol=0, atol=1e-12, err_msg=name)

    def test_each_row_belongs_to_its_input_sequence(self):
        # Lengths out of order, with an empty sequence and a tie: the packed
        # pass runs them as [3, 2, 2, 1, 0] and must hand each row back.
        rng = np.random.default_rng(7)
        params = random_lstm(rng)
        seqs = [rng.normal(size=(length, EMBED_DIM)) for length in (1, 3, 0, 2, 2)]
        means, _ = packed(params, seqs)
        expected = np.stack([sequence_lstm_forward(params, seq)[0] for seq in seqs])
        np.testing.assert_allclose(means, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(means[2], np.zeros(HIDDEN_DIM))
        distances = np.abs(means[:, None, :] - expected[None, :, :]).max(axis=2)
        assert list(distances.argmin(axis=1)) == [0, 1, 2, 3, 4]

    def test_one_sequence_is_the_default(self):
        rng = np.random.default_rng(8)
        params = random_lstm(rng)
        xs = rng.normal(size=(6, EMBED_DIM))
        mean, cache = lstm_forward(params, xs)
        batched, _ = lstm_forward(params, xs, [6])
        assert mean.shape == (HIDDEN_DIM,)
        np.testing.assert_array_equal(mean, batched[0])
        direction = rng.normal(size=HIDDEN_DIM)
        one = lstm_backward(params, cache, direction)
        rows = lstm_backward(params, cache, direction[None, :])
        for name in one:
            np.testing.assert_array_equal(one[name], rows[name])

    @pytest.mark.parametrize("lengths", [[2, 1], [5], [-1, 5], [3, 3]])
    def test_lengths_must_split_the_rows(self, lengths):
        params = random_lstm(np.random.default_rng(9))
        with pytest.raises(ValueError, match="do not split 4 rows"):
            lstm_forward(params, np.ones((4, EMBED_DIM)), lengths)


class TestEqualTextsInOneSet:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.sampled_from([(4, 5), (8, 27), (32, 4)]),
    )
    def test_equal_token_matrices_get_bit_equal_encodings(self, seed, picks, dims):
        # Candidate j's question and answer are copies of pool[picks[j]].
        embed_dim, hidden_dim = dims
        rng = np.random.default_rng(seed)
        pool = [rng.normal(size=(int(rng.integers(0, 9)), embed_dim)) for _ in range(4)]
        params = NeuralParams(
            lstm_post=random_lstm(rng, embed_dim, hidden_dim),
            lstm_question=random_lstm(rng, embed_dim, hidden_dim),
            lstm_answer=random_lstm(rng, embed_dim, hidden_dim),
        )
        n = len(picks)
        prep = PreparedCandidates(
            cs=CandidateSet("t", "", [""] * n, [""] * n, [""] * n, 0),
            post_tokens=rng.normal(size=(5, embed_dim)),
            question_tokens=[pool[p].copy() for p in picks],
            answer_tokens=[pool[p].copy() for p in reversed(picks)],
        )
        inputs = SetEncoding(params, prep).inputs()
        blocks = np.hsplit(inputs, 3)
        for block, picked in ((blocks[1], picks), (blocks[2], picks[::-1])):
            for j in range(n):
                for k in range(n):
                    if picked[j] == picked[k]:
                        assert block[j].tobytes() == block[k].tobytes()
        np.testing.assert_array_equal(blocks[0], np.broadcast_to(blocks[0][0], blocks[0].shape))
