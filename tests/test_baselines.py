"""Random, bag-of-ngrams, community QA, and neural baseline rankers."""

import numpy as np
import pytest

from evpirank.baselines import (
    CqaModel,
    NeuralBaselineModel,
    NgramModel,
    cqa_features,
    cqa_train,
    hash_feature,
    labeled_examples,
    ngram_features,
    ngram_train,
    random_rankings,
    NGRAM_FEATURE_SPACE,
)
from evpirank.evpi import NeuralParams
from evpirank.evaluation import LabelSet, per_post_metrics
from evpirank.retrieval import CandidateSet
from evpirank.rng import substream
from evpirank.training import TrainConfig, train

from tests.gradsuite import grad_check
from tests.synthetic import make_random_rankings_fixture, table_of


def labeled_set(post, questions, answers, post_id="t", original=0):
    """A candidate set whose original pair is labeled 1 and every other pair 0."""
    return CandidateSet(
        post_id=post_id,
        post_body=post,
        questions=questions,
        answers=answers,
        source_post_ids=[f"{post_id}-{j}" for j in range(len(questions))],
        original_index=original,
    )


def toy_table(rng, n_words=12, dim=6):
    return table_of({f"w{k}": rng.normal(size=dim) for k in range(n_words)})


def toy_candidate_set(rng, post_id="b1", n=4, original=0):
    words = lambda k: " ".join(f"w{int(rng.integers(0, 12))}" for _ in range(k))
    return CandidateSet(
        post_id=post_id,
        post_body=words(6),
        questions=[words(3) + "?" for _ in range(n)],
        answers=[words(4) for _ in range(n)],
        source_post_ids=[f"s{j}" for j in range(n)],
        original_index=original,
    )


class TestNgramFeatures:
    def test_feature_ids_stable(self):
        feats1 = ngram_features("alpha beta", "what gamma?", "delta answer")
        feats2 = ngram_features("alpha beta", "what gamma?", "delta answer")
        assert feats1 == feats2
        assert all(0 <= fid < NGRAM_FEATURE_SPACE for fid in feats1)

    def test_known_hash_pinned(self):
        # Frozen output of the keyed 64-bit hash folded into 2^20 bins;
        # guards against accidental hash or key changes.
        assert hash_feature("pq|alpha|beta") == 295649

    def test_counts_multiply(self):
        feats = ngram_features("a a", "b", "c")
        fid = hash_feature("pq|a|b")
        assert feats[fid] == 2.0  # tf(a) = 2 in the post, tf(b) = 1


class TestNgramTraining:
    def test_linearly_separable_toy_reaches_zero_loss(self):
        sets = [labeled_set("alpha post", ["good question?", "bad question?"],
                            ["useful answer", "useless reply"])]
        model = NgramModel(ngram_train(sets, epochs=10, lr=0.1))
        for post, question, answer, label in labeled_examples(sets):
            y = 1.0 if label == 1 else -1.0
            assert y * model.score(post, question, answer) >= 1.0  # zero hinge loss

    def test_zero_weights_rank_by_tie_break(self):
        rng = np.random.default_rng(51)
        model = NgramModel(weights=np.zeros(NGRAM_FEATURE_SPACE))
        cs = toy_candidate_set(rng)
        assert model.rank(cs).order == list(range(4))


class TestCqa:
    def test_zero_weights_score_half(self):
        rng = np.random.default_rng(52)
        table = toy_table(rng)
        model = CqaModel(weights=np.zeros(6), bias=np.zeros(1))
        assert model.score("post w0", "w1 question?", table) == 0.5

    def test_separable_on_overlap_feature(self):
        rng = np.random.default_rng(53)
        table = toy_table(rng)
        sets = [
            labeled_set(f"w{k} w{(k+1) % 12} topic", [f"w{k} overlap?", "w9 w10 w11 nothing?"],
                        ["", ""], post_id=f"t{k}")
            for k in range(6)
        ]
        model = cqa_train(sets, table, epochs=400, lr=0.5)
        correct = 0
        for post, question, _, label in labeled_examples(sets):
            p = model.score(post, question, table)
            correct += int((p > 0.5) == bool(label))
        assert correct == 12

    def test_score_monotone_in_logit(self):
        rng = np.random.default_rng(54)
        table = toy_table(rng)
        feats = cqa_features("w0 w1 post", "w0 what?", table)
        low = CqaModel(weights=np.zeros(6), bias=np.array([-1.0]))
        high = CqaModel(weights=np.zeros(6), bias=np.array([2.0]))
        assert low.score("w0 w1 post", "w0 what?", table) < high.score("w0 w1 post", "w0 what?", table)
        assert len(feats) == 6

    def test_constant_features_warn(self):
        rng = np.random.default_rng(55)
        table = toy_table(rng)
        sets = [labeled_set("w0", ["w1?", "w1?"], ["", ""])]
        with pytest.warns(UserWarning, match="constant"):
            cqa_train(sets, table, epochs=1, lr=0.5)

    def test_contains_you_flag(self):
        rng = np.random.default_rng(56)
        table = toy_table(rng)
        with_you = cqa_features("post", "do you know?", table)
        without = cqa_features("post", "what version?", table)
        assert with_you[5] == 1.0
        assert without[5] == 0.0


class TestNeuralBaselines:
    def test_variant_input_dims(self):
        rng = np.random.default_rng(57)
        for variant, factor in (("pq", 2), ("pa", 2), ("pqa", 3)):
            params = NeuralParams.init(f"neural-{variant}", embed_dim=6, hidden_dim=5, rng=rng)
            assert params.ff.input_dim == factor * 5
            assert len(params.ff.weights) == 11  # 10 hidden + 1 output

    def test_zeroed_final_layer_ties_to_index_order(self):
        rng = np.random.default_rng(58)
        table = toy_table(rng)
        params = NeuralParams.init("neural-pqa", embed_dim=6, hidden_dim=5, rng=rng)
        params.ff.weights[-1][...] = 0.0
        params.ff.biases[-1][...] = 0.0
        model = NeuralBaselineModel(params, table)
        cs = toy_candidate_set(rng)
        assert model.rank_prepared([model.prepare(cs)])[0].order == list(range(4))

    def test_bce_gradients_pass_finite_differences(self):
        rng = substream(0, "test/baseline-grad")
        table = toy_table(rng)
        params = NeuralParams.init("neural-pqa", embed_dim=6, hidden_dim=8, rng=rng)
        for tensor in params.tensors().values():
            tensor += rng.normal(scale=0.6, size=tensor.shape)
        model = NeuralBaselineModel(params, table)
        prep = model.prepare(toy_candidate_set(rng))

        def loss_fn(_):  # grad_check perturbs model through its tensors() views
            return model.loss_and_grads([prep])

        assert grad_check(loss_fn, model.tensors(), n_probes=20, rng=rng) < 1e-4

    def test_short_training_reduces_loss(self):
        rng = np.random.default_rng(59)
        table = toy_table(rng)
        sets = [toy_candidate_set(rng, post_id=f"b{i}", original=i % 4) for i in range(6)]
        config = TrainConfig(hidden_dim=6, lr=3e-3, batch_size=3, epochs=8, patience=100, seed=0)
        model, result = train("neural-pq", sets, sets, table, config)
        assert result.log[-1].train_loss < result.log[0].train_loss

    def test_unknown_variant_is_error(self):
        rng = np.random.default_rng(60)
        with pytest.raises(ValueError, match="unknown neural model"):
            NeuralParams.init("neural-pz", embed_dim=4, hidden_dim=4, rng=rng)


class TestParameterParity:
    def test_evpi_nets_comparable_to_pqa_baseline_net(self):
        rng = np.random.default_rng(61)
        hidden = 100
        evpi = NeuralParams.init("evpi", embed_dim=50, hidden_dim=hidden, rng=rng)
        pqa = NeuralParams.init("neural-pqa", embed_dim=50, hidden_dim=hidden, rng=rng)
        def size(*nets):
            return sum(t.size for net in nets for t in net.tensors().values())

        evpi_ff = size(evpi.ff_ans, evpi.ff_util)
        pqa_ff = size(pqa.ff)
        ratio = evpi_ff / pqa_ff
        assert 0.5 <= ratio <= 2.0


class TestRandomRankings:
    def test_deterministic_per_post(self):
        rng = np.random.default_rng(62)
        sets = [toy_candidate_set(rng, post_id=f"r{i}") for i in range(5)]
        a = random_rankings(sets, seed=4)
        b = random_rankings(list(reversed(sets)), seed=4)
        by_post_a = {rl.post_id: rl.order for rl in a}
        by_post_b = {rl.post_id: rl.order for rl in b}
        assert by_post_a == by_post_b

    def test_orders_are_permutations(self):
        rng = np.random.default_rng(63)
        sets = [toy_candidate_set(rng, post_id=f"r{i}", n=10) for i in range(10)]
        for rl in random_rankings(sets, seed=0):
            assert sorted(rl.order) == list(range(10))

    def test_same_seed_same_rankings_and_metrics(self):
        sets, labels = make_random_rankings_fixture(n_posts=20)
        a, b = random_rankings(sets, seed=7), random_rankings(sets, seed=7)
        assert a == b
        assert per_post_metrics(a, labels, sets, "original") == per_post_metrics(
            b, labels, sets, "original"
        )

    def test_all_relevant_gives_perfect_metrics(self):
        sets, _ = make_random_rankings_fixture(n_posts=10)
        labels = [LabelSet(post_id=cs.post_id, relevant=set(range(10))) for cs in sets]
        for seed in range(5):
            per_post = per_post_metrics(random_rankings(sets, seed=seed), labels, sets, "original")
            assert all(value == 1.0 for values in per_post.values() for value in values.values())

    def test_m_of_ten_relevant_converges_to_m_tenths(self):
        sets, _ = make_random_rankings_fixture(n_posts=150)
        rng = np.random.default_rng(50)
        labels = {
            m: [
                LabelSet(
                    post_id=cs.post_id,
                    relevant=set(int(v) for v in rng.choice(10, size=m, replace=False)),
                )
                for cs in sets
            ]
            for m in (1, 2, 5)
        }
        n_seeds = 100
        totals = {m: np.zeros(3) for m in labels}
        for seed in range(n_seeds):
            rankings = random_rankings(sets, seed=seed)
            for m, labelsets in labels.items():
                for values in per_post_metrics(rankings, labelsets, sets, "original").values():
                    totals[m] += [values["p_at_1"], values["p_at_3"], values["p_at_5"]]
        for m, total in totals.items():
            means = total / (n_seeds * len(sets))
            assert means == pytest.approx([m / 10.0] * 3, abs=0.015), m


class TestBuildLabeledExamples:
    def test_flattening(self):
        rng = np.random.default_rng(64)
        sets = [toy_candidate_set(rng, post_id="x", original=2)]
        examples = list(labeled_examples(sets))
        assert len(examples) == 4
        assert sum(label for *_, label in examples) == 1
        assert examples[2][3] == 1

    def test_one_positive_rest_negative(self):
        rng = np.random.default_rng(65)
        sets = [
            toy_candidate_set(rng, post_id="x", n=5, original=3),
            toy_candidate_set(rng, post_id="y", n=3, original=0),
        ]
        examples = list(labeled_examples(sets))
        assert [label for *_, label in examples] == [0, 0, 0, 1, 0, 1, 0, 0]
        expected = [(cs.post_body, q, a) for cs in sets for q, a in zip(cs.questions, cs.answers)]
        assert [example[:3] for example in examples] == expected
