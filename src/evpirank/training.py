"""Shared mini-batch training loop with early stopping on tune-set MAP.

fit works for any model object exposing tensors(), its own arrays (not
copies; there is no load method), prepare(), loss_and_grads(batch), and
rank_prepared(batch). It keeps a copy of the tensors with the best tune MAP
(evaluated against the original question) and assigns it back into them at
the end. train draws a neural model's initial parameters and fits them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .baselines import NeuralBaselineModel
from .embeddings import EmbeddingTable
from .evaluation import evaluate
from .evpi import EvpiModel, NeuralModel, NeuralParams, RankedList
from .neural import AdamState, adam_step, assign_tensors, copy_tensors
from .retrieval import CandidateSet
from .rng import substream


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


@dataclass
class TrainConfig:
    hidden_dim: int = 100
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    patience: int = 5
    seed: int = 0


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    tune_map: float


@dataclass
class FitResult:
    tensors: dict
    log: list[EpochLog] = field(default_factory=list)
    best_epoch: int = -1
    best_tune_map: float = 0.0


def ranked_in_chunks(model, prepared: Iterable, batch_size: int) -> Iterator[RankedList]:
    """model.rank_prepared over prepared, batch_size sets per call: one RankedList per set.

    prepared may be lazy; only one chunk of it is held at a time. A set's
    RankedList does not depend on its chunk, so batch_size bounds memory only.
    """
    sets = iter(prepared)
    while chunk := list(itertools.islice(sets, batch_size)):
        yield from model.rank_prepared(chunk)


def original_mode_map(model, prepared: Sequence, batch_size: int) -> float:
    """The MAP `evaluate --mode original` reports for model's rankings of prepared.

    The sets are ranked batch_size at a time (ranked_in_chunks).
    """
    ranked = list(ranked_in_chunks(model, prepared, batch_size))
    return evaluate(ranked, None, [prep.cs for prep in prepared], "original").map


def fit(
    model,
    train_sets: Sequence[CandidateSet],
    tune_sets: Sequence[CandidateSet],
    config: TrainConfig,
) -> FitResult:
    """Minimize the model's loss with Adam; return the best-MAP checkpoint."""
    if not train_sets:
        raise ValueError("training set is empty")
    if not tune_sets:
        raise ValueError("tune set is empty")
    rng = substream(config.seed, f"train/{model.name}")
    train_prepared = [model.prepare(cs) for cs in train_sets]
    tune_prepared = (
        train_prepared if tune_sets is train_sets else [model.prepare(cs) for cs in tune_sets]
    )

    tensors = model.tensors()
    state = AdamState.fresh(tensors)
    result = FitResult(tensors=copy_tensors(tensors))
    epochs_since_best = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_prepared))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_prepared[i] for i in order[start : start + config.batch_size]]
            loss, grads = model.loss_and_grads(batch)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, n_batches, loss)
            adam_step(tensors, grads, state, config.lr)
            epoch_loss += loss
            n_batches += 1
        tune_map = original_mode_map(model, tune_prepared, config.batch_size)
        result.log.append(EpochLog(epoch=epoch, train_loss=epoch_loss / n_batches, tune_map=tune_map))
        if tune_map > result.best_tune_map or result.best_epoch < 0:
            result.best_tune_map = tune_map
            result.best_epoch = epoch
            result.tensors = copy_tensors(tensors)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > config.patience:
                break
    assign_tensors(tensors, result.tensors)
    return result


def neural_model(params: NeuralParams, table: EmbeddingTable) -> NeuralModel:
    """The EvpiModel or NeuralBaselineModel that runs params."""
    return (EvpiModel if params.model == "evpi" else NeuralBaselineModel)(params, table)


def train(
    model_name: str,
    train_sets: Sequence[CandidateSet],
    tune_sets: Sequence[CandidateSet],
    table: EmbeddingTable,
    config: TrainConfig,
) -> tuple[NeuralModel, FitResult]:
    """Fit a fresh model_name, a MODEL_PARTS key, drawn from substream init/<model_name>.

    Returns the model restored to its best tune-MAP checkpoint, and the fit log.
    """
    rng = substream(config.seed, f"init/{model_name}")
    model = neural_model(NeuralParams.init(model_name, table.dim, config.hidden_dim, rng), table)
    return model, fit(model, train_sets, tune_sets, config)
