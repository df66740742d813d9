"""Shared fit loop: early stopping, best-checkpoint restore, determinism."""

import numpy as np
import pytest

from evpirank.embeddings import EmbeddingTable
from evpirank.evpi import EvpiModel, NeuralParams
from evpirank.neural import save_checkpoint
from evpirank.retrieval import CandidateSet
from evpirank.training import TrainConfig, fit, original_mode_map


def toy_table(rng, dim=5):
    return EmbeddingTable(dim=dim, vectors={f"w{k}": rng.normal(size=dim) for k in range(10)})


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
        restored_map = original_mode_map(model, [model.prepare(cs) for cs in sets], 3)
        assert restored_map == pytest.approx(result.best_tune_map, abs=1e-12)

    @pytest.mark.parametrize("shared", [True, False])
    def test_prepares_each_set_once(self, monkeypatch, shared):
        model, sets = fresh_model()
        train_sets, tune_sets = (sets, sets) if shared else (sets[:4], sets[4:])
        calls = []
        prepare = model.prepare

        def counting_prepare(cs):
            calls.append(cs.post_id)
            return prepare(cs)

        monkeypatch.setattr(model, "prepare", counting_prepare)
        config = TrainConfig(hidden_dim=4, lr=1e-3, batch_size=3, epochs=2, patience=10, seed=0)
        fit(model, train_sets, tune_sets, config)
        # One call per set: a shared list is not prepared again for tuning.
        assert calls == [cs.post_id for cs in sets]

    def test_empty_train_set_is_error(self):
        model, sets = fresh_model()
        config = TrainConfig()
        with pytest.raises(ValueError):
            fit(model, [], sets, config)


class TestOriginalModeMap:
    @pytest.mark.parametrize("batch_size", [1, 4, 6, 32])
    def test_reciprocal_rank_of_original(self, batch_size):
        # 6 sets: one per chunk, a ragged last chunk, one chunk, fewer sets than a chunk
        model, sets = fresh_model()
        preps = [model.prepare(cs) for cs in sets]
        value = original_mode_map(model, preps, batch_size)
        manual = []
        for prep in preps:
            order = model.rank_prepared([prep])[0].order
            manual.append(1.0 / (order.index(prep.cs.original_index) + 1))
        assert value == pytest.approx(sum(manual) / len(manual), abs=1e-12)
