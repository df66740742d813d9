"""Shared fit loop: early stopping, best-checkpoint restore, determinism."""

import numpy as np
import pytest

import evpirank.evpi as evpi_module
from evpirank import training
from evpirank.evpi import EvpiModel, NeuralParams
from evpirank.neural import save_checkpoint
from evpirank.retrieval import CandidateSet
from evpirank.training import TrainConfig, fit, neural_model, original_mode_map

from tests.synthetic import make_clustered_corpus, table_of


def toy_table(rng, dim=5):
    return table_of({f"w{k}": rng.normal(size=dim) for k in range(10)})


def toy_sets(rng, n=6):
    words = lambda k: " ".join(f"w{int(rng.integers(0, 10))}" for _ in range(k))
    return [
        CandidateSet(
            post_id=f"p{i}",
            post_body=words(5),
            questions=[words(3) + "?" for _ in range(3)],
            answers=[words(3) for _ in range(3)],
            source_post_ids=[f"s{j}" for j in range(3)],
            original_index=i % 3,
        )
        for i in range(n)
    ]


def fresh_model(seed=0):
    rng = np.random.default_rng(seed)
    table = toy_table(rng)
    params = NeuralParams.init("evpi", 5, 4, rng)
    return EvpiModel(params, table), toy_sets(rng)


class TestFit:
    def test_zero_lr_keeps_params_and_loss_constant(self):
        model, sets = fresh_model()
        before = {k: v.copy() for k, v in model.tensors().items()}
        config = TrainConfig(hidden_dim=4, lr=0.0, batch_size=3, epochs=3, patience=10, seed=0)
        result = fit(model, sets, sets, config)
        losses = [entry.train_loss for entry in result.log]
        assert losses[0] == pytest.approx(losses[-1], abs=1e-12)
        for name, tensor in model.tensors().items():
            np.testing.assert_array_equal(tensor, before[name])

    def test_same_seed_gives_identical_checkpoints(self, tmp_path):
        config = TrainConfig(hidden_dim=4, lr=1e-3, batch_size=3, epochs=3, patience=10, seed=5)
        paths = []
        for tag in ("a", "b"):
            model, sets = fresh_model(seed=1)
            fit(model, sets, sets, config)
            path = tmp_path / f"{tag}.ckpt"
            save_checkpoint(path, model.tensors())
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_early_stopping_respects_patience(self):
        model, sets = fresh_model()
        config = TrainConfig(hidden_dim=4, lr=0.0, batch_size=3, epochs=50, patience=2, seed=0)
        result = fit(model, sets, sets, config)
        # flat MAP: best at epoch 0, patience exhausted after 3 more epochs
        assert len(result.log) == 4
        assert result.best_epoch == 0

    def test_restores_best_checkpoint(self):
        model, sets = fresh_model()
        config = TrainConfig(hidden_dim=4, lr=1e-3, batch_size=3, epochs=4, patience=10, seed=0)
        result = fit(model, sets, sets, config)
        restored_map = original_mode_map(model, [model.prepare(cs) for cs in sets])
        assert restored_map == pytest.approx(result.best_tune_map, abs=1e-12)

    @pytest.mark.parametrize("shared", [True, False])
    def test_prepares_each_set_once(self, monkeypatch, shared):
        model, sets = fresh_model()
        # the unshared lists overlap in two sets, whose texts both then hold
        train_sets, tune_sets = (sets, sets) if shared else (sets[:4], sets[2:])
        calls, tokenized = [], []
        prepare, tokenize = model.prepare, evpi_module.tokenize

        def counting_prepare(cs):
            calls.append(cs.post_id)
            return prepare(cs)

        monkeypatch.setattr(model, "prepare", counting_prepare)
        monkeypatch.setattr(evpi_module, "tokenize", lambda t: tokenized.append(t) or tokenize(t))
        config = TrainConfig(hidden_dim=4, lr=1e-3, batch_size=3, epochs=2, patience=10, seed=0)
        fit(model, train_sets, tune_sets, config)
        # One call per set of each list: a shared list is not prepared again for tuning.
        assert calls == [cs.post_id for cs in (sets if shared else train_sets + tune_sets)]
        # Train and tune sets share the model's one prepare memo: each text
        # is tokenized once, for the one entry it holds.
        keys = {(cs.post_body, False) for cs in sets} | {
            (text, True) for cs in sets for text in [*cs.questions, *cs.answers]
        }
        assert len(tokenized) == len(model.prepare_memo) == len(keys)
        assert set(model.prepare_memo) == keys

    def test_empty_train_set_is_error(self):
        model, sets = fresh_model()
        config = TrainConfig()
        with pytest.raises(ValueError):
            fit(model, [], sets, config)


class TestOriginalModeMap:
    @pytest.mark.parametrize("chunk", [1, 4, 6, 32])
    def test_reciprocal_rank_of_original(self, monkeypatch, chunk):
        # 6 sets: one per chunk, a ragged last chunk, one chunk, fewer sets than a chunk
        monkeypatch.setattr(training, "RANK_CHUNK", chunk)
        model, sets = fresh_model()
        preps = [model.prepare(cs) for cs in sets]
        value = original_mode_map(model, preps)
        manual = []
        for prep in preps:
            order = model.rank_prepared([prep])[0].order
            manual.append(1.0 / (order.index(prep.cs.original_index) + 1))
        assert value == pytest.approx(sum(manual) / len(manual), abs=1e-12)

    @pytest.mark.parametrize("model_name", ["evpi", "neural-pqa"])
    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_encodes_each_distinct_text_once_per_encoder(self, monkeypatch, model_name, chunk):
        # The clustered corpus repeats each question and answer in the ten
        # sets of its family; one tune evaluation encodes it once.
        monkeypatch.setattr(training, "RANK_CHUNK", chunk)
        table, sets = make_clustered_corpus()
        params = NeuralParams.init(model_name, table.dim, 3, np.random.default_rng(0))
        model = neural_model(params, table)
        preps = [model.prepare(cs) for cs in sets]
        encoded = {"lstm_post": [], "lstm_question": [], "lstm_answer": []}
        lstm_forward = evpi_module.lstm_forward

        def recording(lstm, tokens, lengths, *rest, others=()):
            # one call runs every encoder: lstm its first texts, each of others its next count
            texts = np.split(tokens, np.cumsum(lengths)[:-1])
            counts = [len(lengths) - sum(count for _, count in others)]
            for encoder, count in zip([lstm, *(p for p, _ in others)], counts + [c for _, c in others]):
                part = next(name for name in encoded if getattr(params, name) is encoder)
                encoded[part] += [ids.tobytes() for ids in texts[:count]]
                texts = texts[count:]
            return lstm_forward(lstm, tokens, lengths, *rest, others=others)

        monkeypatch.setattr(evpi_module, "lstm_forward", recording)
        original_mode_map(model, preps)
        texts = {
            "lstm_post": [prep.post_tokens for prep in preps],
            "lstm_question": [ids for prep in preps for ids in prep.question_tokens],
            "lstm_answer": [ids for prep in preps for ids in prep.answer_tokens],
        }
        for part, ids in texts.items():
            assert sorted(encoded[part]) == sorted({t.tobytes() for t in ids}), part
        assert len(encoded["lstm_question"]) == len(sets) < len(texts["lstm_question"])
