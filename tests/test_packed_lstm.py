"""One packed LSTM pass over ragged sequences against the per-sequence loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evpirank.embeddings import EmbeddingTable
from evpirank.evpi import NeuralParams, PreparedCandidates, SetEncoding
from evpirank.neural import LstmParams, lstm_backward, lstm_forward
from evpirank.retrieval import CandidateSet

from tests.oracles import hstack_lstm_backward, sequence_lstm_backward, sequence_lstm_forward
from tests.synthetic import forward_rows

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
    return forward_rows(params, np.concatenate(seqs), [len(s) for s in seqs])


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

    @pytest.mark.parametrize("for_backward", [True, False])
    def test_token_ids_name_rows_of_the_gathered_matrix(self, for_backward):
        # Ids out of order and repeated, over a matrix with rows no text uses.
        rng = np.random.default_rng(8)
        params = random_lstm(rng)
        rows = rng.normal(size=(9, EMBED_DIM))
        tokens = np.array([7, 2, 2, 0, 5, 7, 1])
        lengths = [3, 0, 4]
        means, _ = lstm_forward(params, tokens, lengths, rows.__getitem__, for_backward)
        expected, _ = forward_rows(params, rows[tokens], lengths)
        assert means.tobytes() == expected.tobytes()

    def test_gradients_are_bit_identical_to_the_hstack_recurrence(self):
        # Filling each step's dpre blocks in place is the same elementwise
        # product as multiplying by the hstacked (dc, dc, dh, dc).
        rng = np.random.default_rng(10)
        params = random_lstm(rng)
        seqs = [rng.normal(size=(length, EMBED_DIM)) for length in (4, 0, 7, 1, 7, 3)]
        _, cache = packed(params, seqs)
        d_means = rng.normal(size=(len(seqs), HIDDEN_DIM))
        expected = hstack_lstm_backward(params, cache, d_means)
        grads = lstm_backward(params, cache, d_means)
        assert grads.keys() == expected.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("lengths", [[2, 1], [5], [-1, 5], [3, 3]])
    def test_lengths_must_split_the_rows(self, lengths):
        params = random_lstm(np.random.default_rng(9))
        with pytest.raises(ValueError, match="do not split 4 tokens"):
            forward_rows(params, np.ones((4, EMBED_DIM)), lengths)


class TestEqualTextsInOneBatch:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.integers(0, 12),
        st.sampled_from([(4, 5), (8, 27), (32, 4)]),
        st.booleans(),
    )
    def test_equal_texts_get_bit_equal_encodings(self, seed, picks, cut, dims, for_backward):
        # The table holds every vector twice, under word k and word k + V, so
        # a text spelled with either copy of each word has the same LSTM
        # input but other token ids, and is encoded apart from its twin.
        # Row j's question and answer are spellings of pool[picks[j]] and
        # pool[picks[-1 - j]]; the rows are cut into two sets at cut, and
        # each set's post is a spelling of one of two posts.
        embed_dim, hidden_dim = dims
        rng = np.random.default_rng(seed)
        vocab = 6
        vectors = rng.normal(size=(vocab, embed_dim))
        table = EmbeddingTable.of([f"w{k}" for k in range(2 * vocab)], np.vstack([vectors] * 2))

        def spelling(ids):
            return ids + vocab * rng.integers(0, 2, size=len(ids))

        pool = [rng.integers(0, vocab, size=int(rng.integers(0, 9))) for _ in range(4)]
        posts = [rng.integers(0, vocab, size=5) for _ in range(2)]
        params = NeuralParams(
            lstm_post=random_lstm(rng, embed_dim, hidden_dim),
            lstm_question=random_lstm(rng, embed_dim, hidden_dim),
            lstm_answer=random_lstm(rng, embed_dim, hidden_dim),
        )
        n = len(picks)
        answer_picks = picks[::-1]
        bounds = [(0, min(cut, n)), (min(cut, n), n)]
        preps, post_picks = [], []
        for lo, hi in bounds:
            if lo == hi:
                continue
            post_picks += [int(rng.integers(0, 2))] * (hi - lo)
            preps.append(PreparedCandidates(
                cs=CandidateSet("t", "", [""] * (hi - lo), [""] * (hi - lo), [""] * (hi - lo), 0),
                post_tokens=spelling(posts[post_picks[-1]]),
                question_tokens=[spelling(pool[p]) for p in picks[lo:hi]],
                answer_tokens=[spelling(pool[p]) for p in answer_picks[lo:hi]],
            ))
        enc = SetEncoding(params, table, preps, for_backward=for_backward)
        assert list(enc.offsets) == [0] + [hi for lo, hi in bounds if lo < hi]
        blocks = np.hsplit(enc.inputs(), 3)
        for block, picked in zip(blocks, (post_picks, picks, answer_picks)):
            for j in range(n):
                for k in range(n):
                    if picked[j] == picked[k]:
                        assert block[j].tobytes() == block[k].tobytes()


class TestForwardOnlyPass:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 40), min_size=1, max_size=40),
        st.sampled_from([(4, 3), (32, 27)]),
    )
    # About 1,200 tokens at (32, 27), where 4 * 27 = 108 gate columns are
    # padded to 112 (neural.PRODUCT_COLUMNS).
    @example(seed=0, lengths=[30] * 40, dims=(32, 27))
    def test_forward_only_encodings_equal_the_cached_pass(self, seed, lengths, dims):
        # Forward-only SetEncoding runs the three encoders in one
        # lstm_forward call; with for_backward each encoder makes its own
        # pass and keeps its cache. Both step the same loop, whatever the
        # usable CPUs, and every encoding has the same bits.
        embed_dim, hidden_dim = dims
        rng = np.random.default_rng(seed)
        vocab = 50
        words = [f"w{k}" for k in range(vocab)]
        table = EmbeddingTable.of(words, rng.normal(size=(vocab, embed_dim)))
        texts = [rng.integers(0, vocab, size=length) for length in lengths]
        params = NeuralParams(
            lstm_post=random_lstm(rng, embed_dim, hidden_dim),
            lstm_question=random_lstm(rng, embed_dim, hidden_dim),
            lstm_answer=random_lstm(rng, embed_dim, hidden_dim),
        )
        n = len(texts)
        prep = PreparedCandidates(
            cs=CandidateSet("t", "", [""] * n, [""] * n, [""] * n, 0),
            post_tokens=texts[0],
            question_tokens=texts,
            answer_tokens=texts[::-1],
        )
        forward_only = SetEncoding(params, table, [prep]).inputs()
        cached = SetEncoding(params, table, [prep], for_backward=True).inputs()
        assert forward_only.tobytes() == cached.tobytes()
