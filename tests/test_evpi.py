"""EVPI scoring: distances, answer likelihood, utility, losses, ranking."""

import math

import numpy as np
import pytest

from evpirank.baselines import NeuralBaselineModel
from evpirank.embeddings import EmbeddingTable
from evpirank.evpi import (
    EvpiModel,
    NeuralParams,
    RankedList,
    expected_value,
    rank_from_scores,
    read_rankings,
    write_rankings,
)
from evpirank.neural import (
    AdamState,
    FeedForwardParams,
    adam_step,
    assign_tensors,
    load_checkpoint,
    save_checkpoint,
)
from evpirank.retrieval import CandidateSet
from evpirank.rng import substream

from tests.gradsuite import grad_check
from tests.oracles import (
    answer_prob,
    dist,
    evpi_score,
    f_ans,
    joint_loss,
    loss_ans,
    loss_util,
    utility,
)
from tests.synthetic import make_clustered_corpus, table_of, zero_params


def toy_candidate_set(n=3, original=0, post_id="t1") -> CandidateSet:
    return CandidateSet(
        post_id=post_id,
        post_body="w0 w1 w2",
        questions=[f"w{3 + j} w0?" for j in range(n)],
        answers=[f"w{3 + j} w1" for j in range(n)],
        source_post_ids=[f"src{j}" for j in range(n)],
        original_index=original,
    )


def toy_table(rng, n_words=10, dim=5) -> EmbeddingTable:
    return table_of({f"w{k}": rng.normal(size=dim) for k in range(n_words)})


def zeroed_evpi(embed_dim=2, hidden_dim=2) -> NeuralParams:
    rng = np.random.default_rng(0)
    params = NeuralParams.init("evpi", embed_dim, hidden_dim, rng)
    for tensor in params.tensors().values():
        tensor[...] = 0.0
    return params


class TestDist:
    def test_identical_direction_is_zero(self):
        assert dist(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        assert dist(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_is_two(self):
        assert dist(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0, abs=1e-12)


class TestAnswerProb:
    def table(self):
        return table_of(
            {"qa": [1.0, 0.0], "qb": [0.0, 1.0], "ansx": [1.0, 0.0], "ansy": [0.0, 1.0]}
        )

    def params_with_rep(self, rep):
        # All-zero params with a final answer-net bias produce a constant
        # representation, making the formula's factors directly controllable.
        params = zeroed_evpi()
        params.ff_ans.biases[-1][...] = rep
        return params

    def test_perfect_match_gives_one(self):
        params = self.params_with_rep([1.0, 0.0])
        got = answer_prob(params, "post", "qa?", "ansx", "qa?", self.table())
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_question_similarity_gives_zero(self):
        params = self.params_with_rep([1.0, 0.0])
        got = answer_prob(params, "post", "qa?", "ansx", "qb?", self.table())
        assert got == 0.0

    def test_unit_distance_gives_exp_minus_one(self):
        params = self.params_with_rep([1.0, 0.0])
        got = answer_prob(params, "post", "qa?", "ansy", "qa?", self.table())
        assert got == pytest.approx(math.exp(-1.0), abs=1e-5)

    def test_fuzz_stays_in_unit_interval(self):
        rng = np.random.default_rng(40)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        for tensor in params.tensors().values():
            tensor += rng.normal(scale=0.3, size=tensor.shape)
        for _ in range(200):
            words = lambda n: " ".join(f"w{int(rng.integers(0, 10))}" for _ in range(n))
            p = answer_prob(params, words(5), words(3), words(4), words(3), table)
            assert 0.0 <= p <= 1.0


class TestLossAns:
    def test_duplicate_original_candidate_doubles_distance(self):
        rng = np.random.default_rng(41)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        cs = CandidateSet(
            post_id="t",
            post_body="w0 w1",
            questions=["w2 w3?", "w2 w3?"],
            answers=["w4 w5", "w4 w5"],
            source_post_ids=["a", "b"],
            original_index=0,
        )
        rep = f_ans(params, cs.post_body, cs.questions[0], table)
        from evpirank.embeddings import avg_vector
        from evpirank.retrieval import tokenize

        base = dist(rep, avg_vector(table, tokenize(cs.answers[0])))
        assert loss_ans(params, cs, table) == pytest.approx(2.0 * base, abs=1e-9)

    def test_orthogonal_candidate_questions_leave_first_term(self):
        table = table_of(
            {"qa": [1.0, 0.0], "qb": [0.0, 1.0], "ax": [1.0, 1.0], "ay": [0.5, -0.5]}
        )
        params = zeroed_evpi()
        params.ff_ans.biases[-1][...] = [1.0, 0.0]
        cs = CandidateSet(
            post_id="t",
            post_body="qa",
            questions=["qa?", "qb?"],
            answers=["ax", "ay"],
            source_post_ids=["a", "b"],
            original_index=0,
        )
        rep = np.array([1.0, 0.0])
        expected = 1.0 - (1.0 / math.sqrt(2.0))  # dist to ax only
        assert loss_ans(params, cs, table) == pytest.approx(expected, abs=1e-9)

    def test_two_candidate_hand_sum(self):
        # rep = [1, 0]; answers at cosines 1/sqrt(2) and 0; question weights 1
        # and cos(qa, qm) = 1/sqrt(2).
        table = table_of(
            {
                "qa": [1.0, 0.0],
                "qm": [1.0, 1.0],
                "ax": [1.0, 1.0],
                "ay": [0.0, 1.0],
            }
        )
        params = zeroed_evpi()
        params.ff_ans.biases[-1][...] = [1.0, 0.0]
        cs = CandidateSet(
            post_id="t",
            post_body="qa",
            questions=["qa?", "qm?"],
            answers=["ax", "ay"],
            source_post_ids=["a", "b"],
            original_index=0,
        )
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        expected = (1.0 - inv_sqrt2) + (1.0 - 0.0) * inv_sqrt2
        assert loss_ans(params, cs, table) == pytest.approx(expected, abs=1e-6)


class TestFAns:
    def test_all_zero_params_output_final_bias(self):
        params = zeroed_evpi()
        params.ff_ans.biases[-1][...] = [0.25, -0.5]
        table = table_of({"w": [1.0, 0.0]})
        np.testing.assert_allclose(f_ans(params, "w", "w?", table), [0.25, -0.5], atol=1e-15)

    def test_one_dim_hand_composition(self):
        # Hand-chain the scalar recurrence through both encoders and a
        # two-layer answer net: encoders open their input/output gates
        # (b_i = b_o = 50) with W_g = 1; the net computes 2 * tanh(sum) + 1.
        table = table_of({"px": [0.5], "qx": [0.25]})
        rng = np.random.default_rng(0)
        params = NeuralParams.init("evpi", embed_dim=1, hidden_dim=1, rng=rng)
        for tensor in params.tensors().values():
            tensor[...] = 0.0
        for lstm in (params.lstm_post, params.lstm_question):
            gates = lstm.tensors()
            gates["b_i"][0] = 50.0
            gates["b_o"][0] = 50.0
            gates["W_g"][0, 0] = 1.0
        params.ff_ans = FeedForwardParams(
            weights=[np.array([[1.0, 1.0]]), np.array([[2.0]])],
            biases=[np.array([0.0]), np.array([1.0])],
        )
        s50 = 1.0 / (1.0 + math.exp(-50.0))
        p_bar = s50 * math.tanh(s50 * math.tanh(0.5))
        q_bar = s50 * math.tanh(s50 * math.tanh(0.25))
        expected = 2.0 * math.tanh(p_bar + q_bar) + 1.0
        got = f_ans(params, "px", "qx?", table)
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(49)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        a = f_ans(params, "w0 w1", "w2?", table)
        b = f_ans(params, "w0 w1", "w2?", table)
        np.testing.assert_array_equal(a, b)


class TestUtility:
    def test_all_zero_params_give_half(self):
        params = zeroed_evpi()
        table = table_of({"w": [1.0, 0.0]})
        assert utility(params, "w", "w?", "w", table) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_final_bias(self):
        table = table_of({"w": [1.0, 0.0]})
        values = []
        for bias in (-1.0, 0.0, 1.0):
            params = zeroed_evpi()
            params.ff_util.biases[-1][...] = bias
            values.append(utility(params, "w", "w?", "w", table))
        assert values[0] < values[1] < values[2]


class TestLossUtil:
    def test_confident_correct_positive_is_near_zero(self):
        assert loss_util(1, 1.0 - 1e-13) == pytest.approx(0.0, abs=1e-10)

    def test_negative_at_half_is_ln_two(self):
        assert loss_util(0, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_positive_at_half_is_ln_two(self):
        assert loss_util(1, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clamp_keeps_loss_finite(self):
        assert math.isfinite(loss_util(1, 0.0))
        assert math.isfinite(loss_util(0, 1.0))


class TestJointLoss:
    def test_empty_batch_is_zero(self):
        params = zeroed_evpi()
        table = table_of({"w": [1.0, 0.0]})
        assert joint_loss(params, [], table) == 0.0

    def test_additive_over_posts(self):
        rng = np.random.default_rng(42)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        cs1 = toy_candidate_set(n=3, original=1, post_id="a")
        cs2 = toy_candidate_set(n=3, original=2, post_id="b")
        total = joint_loss(params, [cs1, cs2], table)
        split = joint_loss(params, [cs1], table) + joint_loss(params, [cs2], table)
        assert total == pytest.approx(split, abs=1e-12)

    def test_matches_hand_composition(self):
        rng = np.random.default_rng(43)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        cs = toy_candidate_set(n=3, original=1)
        by_parts = loss_ans(params, cs, table)
        for j in range(3):
            y = 1 if j == 1 else 0
            by_parts += loss_util(y, utility(params, cs.post_body, cs.questions[j], cs.answers[j], table))
        assert joint_loss(params, [cs], table) == pytest.approx(by_parts, abs=1e-12)

    def test_model_loss_is_mean_of_joint_loss(self):
        rng = np.random.default_rng(44)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        model = EvpiModel(params, table)
        sets = [toy_candidate_set(n=3, original=0, post_id="a"),
                toy_candidate_set(n=3, original=2, post_id="b")]
        preps = [model.prepare(cs) for cs in sets]
        loss, _ = model.loss_and_grads(preps)
        assert loss == pytest.approx(joint_loss(params, sets, table) / 2.0, abs=1e-12)


class TestExpectedValue:
    def test_hand_example(self):
        probs = [0.3, 0.2, 0.0, 0.0]
        utils = [0.5, 1.0, 0.9, 0.1]
        assert expected_value(probs, utils) == pytest.approx(0.35, abs=1e-9)

    def test_positive_scaling_preserves_argsort(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            probs = rng.uniform(0.0, 1.0, size=(10, 10))
            utils = rng.uniform(0.0, 1.0, size=10)
            c = float(rng.uniform(0.1, 50.0))
            base = [expected_value(probs[i], utils) for i in range(10)]
            scaled = [expected_value(probs[i], c * utils) for i in range(10)]
            assert np.argsort(-np.array(base)).tolist() == np.argsort(-np.array(scaled)).tolist()
            for b, s in zip(base, scaled):
                assert s == pytest.approx(c * b, rel=1e-12)

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError):
            expected_value([0.1], [0.2, 0.3])


class TestEvpiScoreDegenerate:
    def test_suppressed_utilities_give_near_zero_score(self):
        params = zeroed_evpi()
        params.ff_util.biases[-1][...] = -50.0  # sigma(-50) ~ 2e-22
        table = table_of({"qa": [1.0, 0.0], "ax": [1.0, 0.0]})
        cs = CandidateSet(
            post_id="t", post_body="qa",
            questions=["qa?", "qa?"], answers=["ax", "ax"],
            source_post_ids=["a", "b"], original_index=0,
        )
        got = evpi_score(params, cs.post_body, cs.questions[0], cs, table)
        assert 0.0 <= got < 1e-20


class TestRanking:
    def test_equal_scores_keep_index_order(self):
        ranked = rank_from_scores("p", [0.5] * 10)
        assert ranked.order == list(range(10))
        assert ranked.scores == [0.5] * 10

    def test_rank_questions_all_equal_candidates_tie_to_index_order(self):
        rng = np.random.default_rng(55)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        cs = CandidateSet(
            post_id="t", post_body="w0 w1 w2",
            questions=["w3 w4?"] * 10, answers=["w5 w6"] * 10,
            source_post_ids=[f"s{j}" for j in range(10)], original_index=0,
        )
        model = EvpiModel(params, table)
        assert model.rank_prepared([model.prepare(cs)])[0].order == list(range(10))

    def test_distinct_scores_match_argsort_oracle(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            scores = rng.permutation(10).astype(float).tolist()
            ranked = rank_from_scores("p", scores)
            oracle = sorted(range(10), key=lambda j: (-scores[j], j))
            assert ranked.order == oracle
            assert ranked.scores == sorted(scores, reverse=True)

    def test_rank_questions_agrees_with_evpi_score(self):
        rng = np.random.default_rng(47)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        for tensor in params.tensors().values():
            tensor += rng.normal(scale=0.2, size=tensor.shape)
        cs = toy_candidate_set(n=4, original=2)
        model = EvpiModel(params, table)
        ranked = model.rank_prepared([model.prepare(cs)])[0]
        direct = [evpi_score(params, cs.post_body, cs.questions[i], cs, table) for i in range(4)]
        for rank_pos, candidate in enumerate(ranked.order):
            assert ranked.scores[rank_pos] == pytest.approx(direct[candidate], abs=1e-12)
        assert ranked.order == sorted(range(4), key=lambda j: (-direct[j], j))

    def test_deterministic(self):
        rng = np.random.default_rng(48)
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 3, rng)
        cs = toy_candidate_set(n=4, original=1)
        a, b = (
            model.rank_prepared([model.prepare(cs)])[0]
            for model in (EvpiModel(params, table), EvpiModel(params, table))
        )
        assert a.order == b.order and a.scores == b.scores


class TestGradientsAndDescent:
    def test_joint_loss_grad_check(self):
        rng = substream(0, "test/joint-grad")
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 4, rng)
        for tensor in params.tensors().values():
            tensor += rng.normal(scale=0.5, size=tensor.shape)
        model = EvpiModel(params, table)
        preps = [
            model.prepare(toy_candidate_set(n=3, original=1, post_id="a")),
            model.prepare(toy_candidate_set(n=3, original=0, post_id="b")),
        ]

        def loss_fn(_):  # grad_check perturbs model through its tensors() views
            return model.loss_and_grads(preps)

        assert grad_check(loss_fn, model.tensors(), n_probes=20, rng=rng) < 1e-4

    @staticmethod
    def count_lstm_calls(monkeypatch, model) -> dict[str, int]:
        """LSTM forward and backward calls in one training step on three 4-candidate sets."""
        import evpirank.evpi as evpi_module

        calls = {"forward": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(evpi_module, "lstm_forward", counted("forward", evpi_module.lstm_forward))
        monkeypatch.setattr(evpi_module, "lstm_backward", counted("backward", evpi_module.lstm_backward))
        model.loss_and_grads([
            model.prepare(toy_candidate_set(n=4, original=k, post_id=f"p{k}")) for k in range(3)
        ])
        return calls

    def test_training_step_encodes_each_text_once(self, monkeypatch):
        # The answer and utility heads share one packed encoding of the batch's
        # posts, of all its questions and of all its answers, and one backward
        # pass per encoder.
        rng = substream(0, "test/encode-once")
        model = EvpiModel(NeuralParams.init("evpi", 5, 3, rng), toy_table(rng))
        assert self.count_lstm_calls(monkeypatch, model) == {"forward": 3, "backward": 3}

    def test_neural_pq_step_runs_one_pass_per_encoder(self, monkeypatch):
        rng = substream(0, "test/encode-once-pq")
        model = NeuralBaselineModel(NeuralParams.init("neural-pq", 5, 3, rng), toy_table(rng))
        assert self.count_lstm_calls(monkeypatch, model) == {"forward": 2, "backward": 2}

    def test_fifty_adam_steps_reduce_loss(self):
        rng = substream(0, "test/descent")
        table = toy_table(rng)
        params = NeuralParams.init("evpi", 5, 4, rng)
        model = EvpiModel(params, table)
        preps = [model.prepare(toy_candidate_set(n=4, original=i % 4, post_id=f"p{i}")) for i in range(4)]
        tensors = model.tensors()
        state = AdamState.fresh(tensors)
        loss0, _ = model.loss_and_grads(preps)
        loss = loss0
        for _ in range(50):
            loss, grads = model.loss_and_grads(preps)
            adam_step(tensors, grads, state, lr=1e-3)
        assert loss < loss0


class TestPrepare:
    def test_each_text_is_tokenized_once(self, monkeypatch):
        # One token list per question and answer feeds both its average vector
        # and its LSTM input: 1 + 2n tokenize calls for n candidates. The sets
        # one model prepares share a text they repeat (its prepare_memo): on
        # the clustered corpus each set holds its family's ten questions and
        # answers, and every distinct text is tokenized, and for evpi
        # averaged, once.
        import evpirank.evpi as evpi_module

        texts, averaged = [], []
        tokenize, avg_vector = evpi_module.tokenize, evpi_module.avg_vector
        monkeypatch.setattr(evpi_module, "tokenize", lambda text: texts.append(text) or tokenize(text))
        monkeypatch.setattr(
            evpi_module, "avg_vector",
            lambda table, tokens: averaged.append(" ".join(tokens)) or avg_vector(table, tokens),
        )
        rng = substream(0, "test/tokenize-once")
        corpus_table, sets = make_clustered_corpus()
        shared = {text for cs in sets for text in [*cs.questions, *cs.answers]}
        assert len(shared) == 2 * len(sets) and all(len(cs) == 10 for cs in sets)
        for name, model_class in (("evpi", EvpiModel), ("neural-pqa", NeuralBaselineModel)):
            texts.clear(), averaged.clear()
            model = model_class(NeuralParams.init(name, 5, 3, rng), toy_table(rng))
            model.prepare(toy_candidate_set(n=4))
            assert len(texts) == 1 + 2 * 4, name
            assert len(averaged) == (2 * 4 if name == "evpi" else 0), name

            texts.clear(), averaged.clear()
            model = model_class(NeuralParams.init(name, corpus_table.dim, 3, rng), corpus_table)
            preps = [model.prepare(cs) for cs in sets]
            assert sorted(texts) == sorted(shared | {cs.post_body for cs in sets}), name
            assert len(averaged) == len(set(averaged)) == (len(shared) if name == "evpi" else 0)
            # a repeated text's sets share one token-id array
            first = {}
            for prep in preps:
                for text, ids in zip(prep.cs.questions, prep.question_tokens):
                    assert first.setdefault(text, ids) is ids, name


class TestPerGateCheckpoint:
    def test_hand_written_v1_checkpoint_loads_and_resaves_byte_identically(self, tmp_path):
        # A v1 checkpoint stores each LSTM gate as its own tensor, in the
        # order W_i..W_g, U_i..U_g, b_i..b_g; the stacked model must keep it.
        rng = np.random.default_rng(61)
        d, h = 2, 3
        tensors = {}
        for enc in ("post", "question", "answer"):
            for kind, shape in (("W", (h, d)), ("U", (h, h)), ("b", (h,))):
                for gate in "ifog":
                    tensors[f"lstm_{enc}/{kind}_{gate}"] = rng.normal(size=shape)
        ff_dims = {"ff_ans/": [2 * h] + [h] * 5 + [d], "ff_util/": [3 * h] + [h] * 5 + [1]}
        for prefix, dims in ff_dims.items():
            for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
                tensors[f"{prefix}W{layer}"] = rng.normal(size=(fan_out, fan_in))
                tensors[f"{prefix}b{layer}"] = rng.normal(size=fan_out)
        header = ["EVPIRANK-CKPT v1", str(len(tensors))]
        for name, arr in tensors.items():
            header.append(f"{name} {arr.ndim} " + " ".join(map(str, arr.shape)))
        blob = ("\n".join(header + ["data"]) + "\n").encode("utf-8")
        blob += b"".join(arr.astype("<f8").tobytes() for arr in tensors.values())
        path = tmp_path / "per_gate.ckpt"
        path.write_bytes(blob)

        params = zero_params("evpi", d, h)
        assign_tensors(params.tensors(), load_checkpoint(path))
        assert list(params.tensors()) == list(tensors)
        # gate f is the second row block of the stacked U
        np.testing.assert_array_equal(params.lstm_answer.U[h : 2 * h], tensors["lstm_answer/U_f"])
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, params.tensors())
        assert again.read_bytes() == blob


class TestRankingsFile:
    def test_round_trip(self, tmp_path):
        ranked = [rank_from_scores("p1", [0.3, 0.9, 0.1]), rank_from_scores("p2", [0.5, 0.5, 0.5])]
        path = tmp_path / "rankings.jsonl"
        write_rankings(path, "evpi", ranked)
        loaded = read_rankings(path)
        assert [rl.post_id for rl in loaded] == ["p1", "p2"]
        assert loaded[0].order == [1, 0, 2]
        assert loaded[1].order == [0, 1, 2]

    def test_non_finite_score_is_not_written(self, tmp_path):
        # Once the inputs are checked a non-finite score is a bug: refuse to
        # write it as the invalid JSON token NaN, and leave no partial file.
        ranked = [
            rank_from_scores("p1", [0.3, 0.9]),
            RankedList(post_id="p2", order=[0, 1], scores=[float("nan"), 0.5]),
        ]
        path = tmp_path / "rankings.jsonl"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_rankings(path, "evpi", ranked)
        assert not path.exists()

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "rankings.jsonl"
        path.write_text('{"post_id": "p1"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_rankings(path)
