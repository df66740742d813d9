"""A candidate set as one matrix: one feedforward pass per head, ties kept, oracle agreement."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evpirank.evpi as evpi_module
from evpirank import cli, training
from evpirank.baselines import NeuralBaselineModel
from evpirank.embeddings import EmbeddingTable
from evpirank.evaluation import evaluate
from evpirank.evpi import EvpiModel, NeuralParams, read_rankings
from evpirank.ingest import split_name
from evpirank.neural import FeedForwardParams, feedforward_forward, save_checkpoint, sigmoid
from evpirank.retrieval import CandidateSet, write_candidates
from evpirank.rng import substream
from evpirank.training import original_mode_map, ranked_in_chunks

from tests.oracles import encode_text, evpi_score, per_set_loss_and_grads
from tests.synthetic import table_of

N_WORDS = 10

# Shapes (n, embed_dim, hidden_dim) at which a plain BLAS product gives two
# rows of equal inputs different bits, so a tie test below fails: X @ W.T in
# feedforward_forward without its column padding (neural.PRODUCT_COLUMNS) and
# P @ u in expected_value in place of its einsum at the first, the answer
# cosines in rank_prepared at the second, the question cosines in prepare at
# the third.
TIE_SHAPES = [(9, 8, 27), (9, 32, 4), (12, 32, 27)]

def toy_table(rng, dim) -> EmbeddingTable:
    return table_of({f"w{k}": rng.normal(size=dim) for k in range(N_WORDS)})


def perturbed(tensors, rng, scale):
    for tensor in tensors.values():
        tensor += rng.normal(scale=scale, size=tensor.shape)


def candidate_set(questions, answers, post="w0 w1 w2", original=0, post_id="t") -> CandidateSet:
    return CandidateSet(
        post_id=post_id,
        post_body=post,
        questions=list(questions),
        answers=list(answers),
        source_post_ids=[f"s{j}" for j in range(len(questions))],
        original_index=original,
    )


def evpi_and_pqa(rng, embed_dim, hidden_dim):
    table = toy_table(rng, embed_dim)
    evpi = NeuralParams.init("evpi", embed_dim, hidden_dim, rng)
    pqa = NeuralParams.init("neural-pqa", embed_dim, hidden_dim, rng)
    perturbed(evpi.tensors(), rng, 0.3)
    perturbed(pqa.tensors(), rng, 0.3)
    return EvpiModel(evpi, table), NeuralBaselineModel(pqa, table)


@pytest.fixture
def ff_calls(monkeypatch):
    """Count the feedforward passes the heads make (they call them through evpi)."""
    calls = {"forward": 0, "backward": 0}
    for key in calls:
        fn = getattr(evpi_module, f"feedforward_{key}")

        def counted(*args, _fn=fn, _key=key):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(evpi_module, f"feedforward_{key}", counted)
    return calls


class TestOnePassPerHead:
    def sets(self, n):
        words = [f"w{k} w{(k + 3) % N_WORDS}" for k in range(n)]
        return [candidate_set(words, words[::-1], original=o) for o in (0, n - 1)]

    def test_evpi_two_passes_per_batch_in_training_and_ranking(self, ff_calls):
        rng = substream(0, "test/one-pass/evpi")
        model, _ = evpi_and_pqa(rng, 5, 3)
        preps = [model.prepare(cs) for cs in self.sets(6)]
        model.loss_and_grads(preps)
        assert ff_calls == {"forward": 2, "backward": 2}
        model.rank_prepared(preps)
        assert ff_calls == {"forward": 4, "backward": 2}

    @pytest.mark.parametrize("variant", ["pq", "pa", "pqa"])
    def test_neural_baseline_one_pass_per_batch(self, ff_calls, variant):
        rng = substream(0, f"test/one-pass/{variant}")
        params = NeuralParams.init(f"neural-{variant}", 5, 3, rng)
        model = NeuralBaselineModel(params, toy_table(rng, 5))
        preps = [model.prepare(cs) for cs in self.sets(6)]
        model.loss_and_grads(preps)
        assert ff_calls == {"forward": 1, "backward": 1}
        model.rank_prepared(preps)
        assert ff_calls == {"forward": 2, "backward": 1}


class TestTiesSurviveBatching:
    @pytest.mark.parametrize("n", [9, 10])
    def test_identical_candidates_score_bit_identically(self, n):
        rng = substream(0, "test/ties")
        cs = candidate_set(["w3 w4 w7?"] * n, ["w5 w6 w8"] * n, original=n // 2)
        for model in evpi_and_pqa(rng, *TIE_SHAPES[0][1:]):
            ranked = model.rank_prepared([model.prepare(cs)])[0]
            assert ranked.order == list(range(n)), model.name
            assert len(set(ranked.scores)) == 1, (model.name, ranked.scores)

    @pytest.mark.parametrize("n, embed_dim, hidden_dim", TIE_SHAPES)
    def test_same_question_with_different_answers_scores_equal(self, n, embed_dim, hidden_dim):
        rng = substream(0, "test/ties/question")
        model, _ = evpi_and_pqa(rng, embed_dim, hidden_dim)
        questions = [f"w{k} w{(2 * k + 1) % N_WORDS}?" for k in range(n)]
        questions[-1] = questions[1]  # the last row, where BLAS rounding differs
        answers = [f"w{(k + 4) % N_WORDS} w{(3 * k) % N_WORDS}" for k in range(n)]
        ranked = model.rank_prepared([model.prepare(candidate_set(questions, answers))])[0]
        scores = dict(zip(ranked.order, ranked.scores))
        assert scores[1] == scores[n - 1]
        assert ranked.order.index(1) + 1 == ranked.order.index(n - 1)


class TestHeadsAreBatchInvariant:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 400),
        st.sampled_from([24, 100, 300]),
        st.lists(st.sampled_from([24, 100, 200]), max_size=2),
        st.sampled_from([1, 24, 100, 200]),
    )
    def test_a_row_gets_the_same_bits_alone_duplicated_and_in_any_batch(
        self, seed, rows, input_dim, hidden_dims, output_dim
    ):
        rng = np.random.default_rng(seed)
        params = FeedForwardParams.init([input_dim, *hidden_dims, output_dim], rng)
        for bias in params.biases:
            bias += rng.normal(size=bias.shape)
        wide = rng.normal(size=(rows, input_dim + 5))
        batch = wide[:, :input_dim]  # a strided view, as the heads' column blocks are
        pick = int(rng.integers(rows))
        alone = feedforward_forward(params, batch[pick])[0]
        assert alone.shape == (output_dim,)
        duplicated = feedforward_forward(params, np.stack([batch[pick]] * 2))[0]
        for got in (
            duplicated[0],
            duplicated[1],
            feedforward_forward(params, batch)[0][pick],
            feedforward_forward(params, np.ascontiguousarray(batch))[0][pick],
        ):
            assert got.tobytes() == alone.tobytes()


# ---------------------------------------------------------------------------
# Random candidate sets against the per-candidate reference path


# Texts over the toy vocabulary plus out-of-vocabulary words ("oov*"); an
# all-OOV text has a zero-norm average vector and an empty token matrix.
_word = st.sampled_from([f"w{k}" for k in range(N_WORDS)] + ["oov1", "oov2"])
_text = st.lists(_word, min_size=1, max_size=5).map(" ".join)


@st.composite
def candidate_sets(draw):
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.tuples(_text, _text), min_size=1, max_size=n))
    # Draw candidates from a pool smaller than n, so sets repeat candidates.
    pairs = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    return candidate_set(
        [q for q, _ in pairs], [a for _, a in pairs], post=draw(_text),
        original=draw(st.integers(0, n - 1)),
    )


@pytest.fixture(scope="module")
def models():
    return evpi_and_pqa(substream(0, "test/batched-oracle"), 4, 3)


def by_candidate(ranked):
    scores = [0.0] * len(ranked.order)
    for candidate, score in zip(ranked.order, ranked.scores):
        scores[candidate] = score
    return scores


def assert_ranking_invariants(ranked):
    assert sorted(ranked.order) == list(range(len(ranked.order)))
    assert all(a >= b for a, b in zip(ranked.scores, ranked.scores[1:]))


_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestBatchedAgainstOracle:
    @_settings
    @given(cs=candidate_sets())
    def test_evpi_scores_match_the_scalar_reference(self, models, cs):
        model = models[0]
        ranked = model.rank_prepared([model.prepare(cs)])[0]
        assert_ranking_invariants(ranked)
        for i, score in enumerate(by_candidate(ranked)):
            expected = evpi_score(model.params, cs.post_body, cs.questions[i], cs, model.table)
            assert score == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @_settings
    @given(cs=candidate_sets())
    def test_neural_pqa_scores_match_per_candidate_feedforward(self, models, cs):
        model = models[1]
        params, table = model.params, model.table
        ranked = model.rank_prepared([model.prepare(cs)])[0]
        assert_ranking_invariants(ranked)
        p_bar = encode_text(params.lstm_post, table, cs.post_body)
        for j, score in enumerate(by_candidate(ranked)):
            x = np.concatenate([
                p_bar,
                encode_text(params.lstm_question, table, cs.questions[j]),
                encode_text(params.lstm_answer, table, cs.answers[j]),
            ])
            expected = float(sigmoid(feedforward_forward(params.ff, x)[0][0]))
            assert score == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @_settings
    @given(cs=candidate_sets())
    def test_losses_and_gradients_stay_finite(self, models, cs):
        for model in models:
            loss, grads = model.loss_and_grads([model.prepare(cs)])
            assert math.isfinite(loss)
            assert all(np.all(np.isfinite(grad)) for grad in grads.values())


# ---------------------------------------------------------------------------
# A batch as one packed encoding against each set on its own


@st.composite
def batches(draw):
    """1 to 5 candidate sets whose posts, questions and answers share one small pool."""
    pick = st.sampled_from(draw(st.lists(_text, min_size=1, max_size=6)))
    sets = []
    for k in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 8))
        sets.append(candidate_set(
            [draw(pick) for _ in range(n)], [draw(pick) for _ in range(n)], post=draw(pick),
            original=draw(st.integers(0, n - 1)), post_id=f"t{k}",
        ))
    return sets


@pytest.fixture(scope="module")
def every_neural_model():
    rng = substream(0, "test/packed-batch")
    table = toy_table(rng, 4)
    models = []
    for name in ("evpi", "neural-pq", "neural-pa", "neural-pqa"):
        params = NeuralParams.init(name, 4, 3, rng)
        perturbed(params.tensors(), rng, 0.3)
        models.append((EvpiModel if name == "evpi" else NeuralBaselineModel)(params, table))
    return models


class TestPackedBatchAgainstPerSet:
    @_settings
    @given(sets=batches())
    def test_loss_and_gradients_match_the_per_set_mean(self, every_neural_model, sets):
        for model in every_neural_model:
            preps = [model.prepare(cs) for cs in sets]
            loss, grads = model.loss_and_grads(preps)
            expected_loss, expected_grads = per_set_loss_and_grads(model, preps)
            assert abs(loss - expected_loss) <= 1e-12, model.name
            assert grads.keys() == expected_grads.keys()
            for name, grad in grads.items():
                np.testing.assert_allclose(
                    grad, expected_grads[name], rtol=0, atol=1e-12, err_msg=f"{model.name} {name}"
                )

    @_settings
    @given(sets=batches())
    def test_ranking_a_list_matches_ranking_each_set(self, every_neural_model, sets):
        for model in every_neural_model:
            preps = [model.prepare(cs) for cs in sets]
            ranked = model.rank_prepared(preps)
            assert len(ranked) == len(preps)
            for prep, together in zip(preps, ranked):
                alone = model.rank_prepared([prep])[0]
                assert together.post_id == alone.post_id == prep.cs.post_id
                assert together.order == alone.order, model.name
                assert together.scores == alone.scores, model.name


def fresh(model):
    """A model of model's parameters and table whose prepare memo is empty."""
    return type(model)(model.params, model.table)


def ranked_alone(model, sets) -> list:
    """Each set prepared by a fresh model and ranked alone: no text is shared with another set."""
    ranked = []
    for cs in sets:
        alone = fresh(model)
        ranked.append(alone.rank_prepared([alone.prepare(cs)])[0])
    return ranked


def split_ids() -> list[str]:
    """Five post ids, two of train, two of tune and one of test, in an order that mixes them."""
    ids = {
        split: [f"t{k}" for k in range(100) if split_name(f"t{k}") == split][:2]
        for split in ("train", "tune", "test")
    }
    return [ids["train"][0], ids["tune"][0], ids["test"][0], ids["train"][1], ids["tune"][1]]


class TestBatchInvariance:
    """A set's RankedList has the same bits alone and in any chunk of a pass that shares texts."""

    @_settings
    @given(sets=batches())
    def test_a_set_ranks_bit_equal_alone_and_in_chunks_of_any_size(self, every_neural_model, sets):
        # The model's one prepare memo for the list and one encoding memo per
        # pass, as training and `rank` run them, against each set prepared alone.
        for model in map(fresh, every_neural_model):
            alone = ranked_alone(model, sets)
            preps = [model.prepare(cs) for cs in sets]
            expected_map = evaluate(alone, None, sets, "original").map
            for size in range(1, len(preps) + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(training, "RANK_CHUNK", size)
                    assert list(ranked_in_chunks(model, preps)) == alone, (model.name, size)
                    assert original_mode_map(model, preps) == expected_map, (model.name, size)

    @_settings
    @given(sets=batches(), size=st.integers(1, 5))
    def test_memos_past_their_bound_rank_bit_equal(self, every_neural_model, sets, size):
        bound = 3
        for model in every_neural_model:
            alone = ranked_alone(model, sets)
            held = []

            def recording(chunk, memo, model=model):
                ranked = model.rank_prepared(chunk, memo)
                held.append(len(memo))
                return ranked

            recorder = types.SimpleNamespace(rank_prepared=recording)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(training, "RANK_CHUNK", size)
                unbounded = list(ranked_in_chunks(recorder, map(fresh(model).prepare, sets)))
                encodings = held[-1]  # every distinct text of each encoder
                held.clear()
                mp.setattr(evpi_module, "MEMO_TEXTS", bound)
                bounded = fresh(model)
                preps = [bounded.prepare(cs) for cs in sets]
                assert len(bounded.prepare_memo) <= bound
                assert list(ranked_in_chunks(recorder, preps)) == alone == unbounded
            assert max(held) == min(bound, encodings), model.name

    @settings(max_examples=15, deadline=None)
    @given(sets=batches())
    def test_rank_under_every_split_writes_each_set_ranked_alone(
        self, every_neural_model, rank_inputs, sets
    ):
        sets = [dataclasses.replace(cs, post_id=post_id) for cs, post_id in zip(sets, split_ids())]
        candidates = rank_inputs / "candidates.jsonl"
        write_candidates(candidates, sets)
        for model in every_neural_model:
            alone = {rl.post_id: rl for rl in ranked_alone(model, sets)}
            for split in ("all", "train", "tune", "test"):
                out = rank_inputs / "out.rank"
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(training, "RANK_CHUNK", 2)
                    code = cli.main([
                        "rank", "--model", model.name, "--candidates", str(candidates),
                        "--embeddings", str(rank_inputs / "embeddings.txt"),
                        "--checkpoint", str(rank_inputs / f"{model.name}.ckpt"),
                        "--out", str(out), "--split", split,
                    ])
                wanted = [alone[p] for p in sorted(alone) if split in ("all", split_name(p))]
                if not wanted:
                    assert code == 2
                    continue
                assert code == 0 and read_rankings(out) == wanted, (model.name, split)


@pytest.fixture(scope="module")
def rank_inputs(every_neural_model, tmp_path_factory):
    """A directory holding every_neural_model's table as a vectors file and each model's checkpoint."""
    root = tmp_path_factory.mktemp("rank-inputs")
    table = every_neural_model[0].table
    with open(root / "embeddings.txt", "w", encoding="utf-8") as handle:
        for word in (f"w{k}" for k in range(N_WORDS)):
            vector = table.gather(table.token_ids([word]))[0]
            handle.write(" ".join([word, *map(repr, vector.tolist())]) + "\n")
    for model in every_neural_model:
        save_checkpoint(root / f"{model.name}.ckpt", model.tensors())
    return root
