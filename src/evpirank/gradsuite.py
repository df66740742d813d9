"""Standard gradient-fidelity suite over every trainable component.

Each entry checks analytic gradients against central finite differences on
freshly drawn random parameters and tiny random inputs. Used both by the
`gradcheck` CLI command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import NeuralBaselineModel, NeuralBaselineParams, init_neural_baseline
from .embeddings import EmbeddingTable
from .evpi import (
    EvpiModel,
    EvpiParams,
    answer_losses,
    batch_loss_and_grads,
    init_evpi_params,
    utility_losses,
)
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
    vectors = {f"w{k}": rng.normal(size=EMBED_DIM) for k in range(n_words)}
    return EmbeddingTable(dim=EMBED_DIM, vectors=vectors)


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


def _evpi_model(rng: np.random.Generator, table: EmbeddingTable) -> EvpiModel:
    params = init_evpi_params(EMBED_DIM, HIDDEN_DIM, rng)
    _perturbed(params.tensors(), rng, scale=0.5)
    return EvpiModel(params, table)


def _check_lstm(rng: np.random.Generator, n_probes: int) -> float:
    params = LstmParams.init(EMBED_DIM, HIDDEN_DIM, rng, scale=0.4)
    xs = rng.normal(size=(4, EMBED_DIM))
    direction = rng.normal(size=HIDDEN_DIM)

    def loss_fn(tensors):
        p = LstmParams.from_tensors(tensors)
        mean, cache = lstm_forward(p, xs)
        return float(direction @ mean), lstm_backward(p, cache, direction)

    return grad_check(loss_fn, params.tensors(), n_probes=n_probes, rng=rng)


def _check_lstm_ragged(rng: np.random.Generator, n_probes: int) -> float:
    """One packed pass over sequences of lengths 5, 0, 1 and 3."""
    params = LstmParams.init(EMBED_DIM, HIDDEN_DIM, rng, scale=0.4)
    lengths = [5, 0, 1, 3]
    xs = rng.normal(size=(sum(lengths), EMBED_DIM))
    direction = rng.normal(size=(len(lengths), HIDDEN_DIM))

    def loss_fn(tensors):
        p = LstmParams.from_tensors(tensors)
        means, cache = lstm_forward(p, xs, lengths)
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
    model = _evpi_model(rng, table)
    prep = model.prepare(_toy_candidate_set(rng, post_id))

    def loss_fn(tensors):
        return batch_loss_and_grads(EvpiParams.from_tensors(tensors), [prep], [head])

    return grad_check(loss_fn, model.tensors(), n_probes=n_probes, rng=rng)


def _check_joint_loss(rng: np.random.Generator, n_probes: int) -> float:
    table = _toy_table(rng)
    model = _evpi_model(rng, table)
    preps = [model.prepare(_toy_candidate_set(rng, f"gc-joint-{k}")) for k in range(2)]

    def loss_fn(tensors):
        probe = EvpiModel(EvpiParams.from_tensors(tensors), table)
        return probe.loss_and_grads(preps)

    return grad_check(loss_fn, model.tensors(), n_probes=n_probes, rng=rng)


def _check_neural_baseline(rng: np.random.Generator, n_probes: int, variant: str) -> float:
    table = _toy_table(rng)
    params = init_neural_baseline(variant, EMBED_DIM, BASELINE_HIDDEN_DIM, rng)
    _perturbed(params.tensors(), rng, scale=0.6)
    model = NeuralBaselineModel(params, table)
    prep = model.prepare(_toy_candidate_set(rng, f"gc-{variant}"))

    def loss_fn(tensors):
        probe = NeuralBaselineModel(NeuralBaselineParams.from_tensors(variant, tensors), table)
        return probe.loss_and_grads([prep])

    return grad_check(loss_fn, model.tensors(), n_probes=n_probes, rng=rng)


def run_gradient_suite(seed: int = 0, draws: int = 10, n_probes: int = 8) -> list[CheckResult]:
    """Run every gradient check `draws` times; report the worst error of each."""
    checks = [
        ("lstm_encoder", _check_lstm),
        ("lstm_ragged_batch", _check_lstm_ragged),
        ("feedforward_5_hidden", lambda rng, probes: _check_feedforward(rng, probes, 5)),
        ("feedforward_10_hidden", lambda rng, probes: _check_feedforward(rng, probes, 10)),
        ("answer_loss", lambda rng, probes: _check_evpi_head(rng, probes, "gc-ans", answer_losses)),
        ("utility_bce_loss", lambda rng, probes: _check_evpi_head(rng, probes, "gc-util", utility_losses)),
        ("joint_loss", _check_joint_loss),
        ("neural_baseline_pq", lambda rng, probes: _check_neural_baseline(rng, probes, "pq")),
        ("neural_baseline_pa", lambda rng, probes: _check_neural_baseline(rng, probes, "pa")),
        ("neural_baseline_pqa", lambda rng, probes: _check_neural_baseline(rng, probes, "pqa")),
    ]
    results = []
    for name, check in checks:
        worst = 0.0
        for draw in range(draws):
            rng = substream(seed, f"gradcheck/{name}/{draw}")
            worst = max(worst, check(rng, n_probes))
        results.append(CheckResult(name=name, max_rel_error=worst))
    return results
