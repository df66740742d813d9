"""Standard gradient-fidelity suite over every trainable component.

Each entry checks analytic gradients against central finite differences on
freshly drawn random parameters and tiny random inputs. Used both by the
`gradcheck` CLI command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .evpi import NeuralParams, answer_losses, batch_loss_and_grads, utility_losses
from .neural import (
    FeedForwardParams,
    LstmParams,
    feedforward_backward,
    feedforward_forward,
    grad_check,
    lstm_backward,
    lstm_forward,
)
from .retrieval import CandidateSet
from .rng import substream
from .training import neural_model

EMBED_DIM = 5
HIDDEN_DIM = 4
# The ten-hidden-layer baselines need a wider stack and larger weights for
# every coordinate's gradient to stay above finite-difference resolution.
BASELINE_HIDDEN_DIM = 8
GRAD_TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    def passed(self, tolerance: float = GRAD_TOLERANCE) -> bool:
        return self.max_rel_error < tolerance


def _toy_table(rng: np.random.Generator, n_words: int = 30) -> EmbeddingTable:
    words = [f"w{k}" for k in range(n_words)]
    return EmbeddingTable.of(words, rng.normal(size=(n_words, EMBED_DIM)))


def _toy_text(rng: np.random.Generator, length: int) -> str:
    return " ".join(f"w{int(rng.integers(0, 30))}" for _ in range(length))


def _toy_candidate_set(rng: np.random.Generator, post_id: str, n_candidates: int = 3) -> CandidateSet:
    return CandidateSet(
        post_id=post_id,
        post_body=_toy_text(rng, 6),
        questions=[_toy_text(rng, 4) for _ in range(n_candidates)],
        answers=[_toy_text(rng, 5) for _ in range(n_candidates)],
        source_post_ids=[f"{post_id}-{j}" for j in range(n_candidates)],
        original_index=int(rng.integers(0, n_candidates)),
    )


def _perturbed(
    tensors: dict[str, np.ndarray], rng: np.random.Generator, scale: float = 0.2
) -> None:
    # Push the parameters away from the near-linear init region so the check
    # exercises saturating activations too. Deep stacks need a larger scale:
    # near-zero weights attenuate gradients below what eps=1e-5 central
    # differences can resolve against floating-point noise.
    for tensor in tensors.values():
        tensor += rng.normal(scale=scale, size=tensor.shape)


def _model(rng: np.random.Generator, table: EmbeddingTable, name: str):
    hidden_dim, scale = (HIDDEN_DIM, 0.5) if name == "evpi" else (BASELINE_HIDDEN_DIM, 0.6)
    params = NeuralParams.init(name, EMBED_DIM, hidden_dim, rng)
    _perturbed(params.tensors(), rng, scale)
    return neural_model(params, table)


def _check_lstm(rng: np.random.Generator, n_probes: int, lengths: list[int]) -> float:
    """One packed pass over sequences of the given lengths."""
    params = LstmParams.init(EMBED_DIM, HIDDEN_DIM, rng, scale=0.4)
    xs = rng.normal(size=(sum(lengths), EMBED_DIM))
    direction = rng.normal(size=(len(lengths), HIDDEN_DIM))

    def loss_fn(tensors):
        p = LstmParams.from_tensors(tensors)
        means, cache = lstm_forward(p, np.arange(len(xs)), lengths, xs.__getitem__)
        return float(np.sum(direction * means)), lstm_backward(p, cache, direction)

    return grad_check(loss_fn, params.tensors(), n_probes=n_probes, rng=rng)


def _check_feedforward(rng: np.random.Generator, n_probes: int, n_hidden: int) -> float:
    dims = [EMBED_DIM] + [HIDDEN_DIM] * n_hidden + [3]
    params = FeedForwardParams.init(dims, rng, scale=0.4)
    # Three rows, so the check covers the weight gradients' sum over rows.
    x = rng.normal(size=(3, EMBED_DIM))
    direction = rng.normal(size=(3, 3))

    def loss_fn(tensors):
        p = FeedForwardParams.from_tensors(tensors)
        out, acts = feedforward_forward(p, x)
        grads, _ = feedforward_backward(p, acts, direction)
        return float(np.sum(direction * out)), grads

    return grad_check(loss_fn, params.tensors(), n_probes=n_probes, rng=rng)


def _check_evpi_head(rng: np.random.Generator, n_probes: int, post_id: str, head) -> float:
    """Check one EVPI head alone through the training path: encode, head, backward."""
    table = _toy_table(rng)
    model = _model(rng, table, "evpi")
    prep = model.prepare(_toy_candidate_set(rng, post_id))

    def loss_fn(tensors):
        return batch_loss_and_grads(
            NeuralParams.from_tensors("evpi", tensors), table, [prep], [head]
        )

    return grad_check(loss_fn, model.tensors(), n_probes=n_probes, rng=rng)


def _check_model_loss(rng: np.random.Generator, n_probes: int, name: str) -> float:
    """Check a whole model's loss_and_grads: EVPI's over two sets, a baseline's over one."""
    table = _toy_table(rng)
    model = _model(rng, table, name)
    n_sets = 2 if name == "evpi" else 1
    preps = [model.prepare(_toy_candidate_set(rng, f"gc-{name}-{k}")) for k in range(n_sets)]

    def loss_fn(tensors):
        return neural_model(NeuralParams.from_tensors(name, tensors), table).loss_and_grads(preps)

    return grad_check(loss_fn, model.tensors(), n_probes=n_probes, rng=rng)


def run_gradient_suite(seed: int = 0, draws: int = 10, n_probes: int = 8) -> list[CheckResult]:
    """Run every gradient check `draws` times; report the worst error of each."""
    checks = [
        ("lstm_encoder", lambda rng, probes: _check_lstm(rng, probes, [4])),
        ("lstm_ragged_batch", lambda rng, probes: _check_lstm(rng, probes, [5, 0, 1, 3])),
        ("feedforward_5_hidden", lambda rng, probes: _check_feedforward(rng, probes, 5)),
        ("feedforward_10_hidden", lambda rng, probes: _check_feedforward(rng, probes, 10)),
        ("answer_loss", lambda rng, probes: _check_evpi_head(rng, probes, "gc-ans", answer_losses)),
        ("utility_bce_loss", lambda rng, probes: _check_evpi_head(rng, probes, "gc-util", utility_losses)),
        ("joint_loss", lambda rng, probes: _check_model_loss(rng, probes, "evpi")),
        ("neural_baseline_pq", lambda rng, probes: _check_model_loss(rng, probes, "neural-pq")),
        ("neural_baseline_pa", lambda rng, probes: _check_model_loss(rng, probes, "neural-pa")),
        ("neural_baseline_pqa", lambda rng, probes: _check_model_loss(rng, probes, "neural-pqa")),
    ]
    results = []
    for name, check in checks:
        worst = 0.0
        for draw in range(draws):
            rng = substream(seed, f"gradcheck/{name}/{draw}")
            worst = max(worst, check(rng, n_probes))
        results.append(CheckResult(name=name, max_rel_error=worst))
    return results
