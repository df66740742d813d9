"""Standard gradient-fidelity suite over every trainable component.

Each entry checks analytic gradients against central finite differences on
freshly drawn random parameters and tiny random inputs. grad_check perturbs
a component through its tensors(), which are views of its own arrays, so
each loss function simply runs the component it closes over. Acceptance
criterion 1 runs the whole suite; the per-module tests call grad_check on
their own components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from evpirank.embeddings import EmbeddingTable
from evpirank.evpi import NeuralParams, answer_losses, batch_loss_and_grads, utility_losses
from evpirank.neural import (
    FeedForwardParams,
    LstmParams,
    feedforward_backward,
    feedforward_forward,
    lstm_backward,
    lstm_forward,
)
from evpirank.retrieval import CandidateSet
from evpirank.rng import substream
from evpirank.training import neural_model

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


def grad_check(
    loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    n_probes: int = 10,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params) must return (scalar loss, gradient dict). n_probes
    randomly chosen coordinates are perturbed by +/- eps; the relative error
    is |g_a - g_n| / max(1e-8, |g_a| + |g_n|).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    loss, grads = loss_fn(params)
    if not math.isfinite(loss):
        raise ValueError(f"loss is not finite: {loss}")
    names = sorted(params)
    sizes = np.array([params[name].size for name in names])
    total = int(sizes.sum())
    if total == 0:
        raise ValueError("no parameters to probe")
    worst = 0.0
    for _ in range(n_probes):
        flat = int(rng.integers(0, total))
        cum = 0
        for name, size in zip(names, sizes):
            if flat < cum + size:
                idx = flat - cum
                break
            cum += size
        tensor = params[name]
        original = tensor.flat[idx]
        tensor.flat[idx] = original + eps
        loss_plus = loss_fn(params)[0]
        tensor.flat[idx] = original - eps
        loss_minus = loss_fn(params)[0]
        tensor.flat[idx] = original
        if not (math.isfinite(loss_plus) and math.isfinite(loss_minus)):
            raise ValueError("perturbed loss is not finite")
        g_numeric = (loss_plus - loss_minus) / (2.0 * eps)
        g_analytic = grads[name].flat[idx]
        rel = abs(g_analytic - g_numeric) / max(1e-8, abs(g_analytic) + abs(g_numeric))
        worst = max(worst, rel)
    return worst


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

    def loss_fn(_):
        means, cache = lstm_forward(params, np.arange(len(xs)), lengths, xs.__getitem__)
        return float(np.sum(direction * means)), lstm_backward(params, cache, direction)

    return grad_check(loss_fn, params.tensors(), n_probes=n_probes, rng=rng)


def _check_feedforward(rng: np.random.Generator, n_probes: int, n_hidden: int) -> float:
    dims = [EMBED_DIM] + [HIDDEN_DIM] * n_hidden + [3]
    params = FeedForwardParams.init(dims, rng, scale=0.4)
    # Three rows, so the check covers the weight gradients' sum over rows.
    x = rng.normal(size=(3, EMBED_DIM))
    direction = rng.normal(size=(3, 3))

    def loss_fn(_):
        out, acts = feedforward_forward(params, x)
        return float(np.sum(direction * out)), feedforward_backward(params, acts, direction)[0]

    return grad_check(loss_fn, params.tensors(), n_probes=n_probes, rng=rng)


def _check_evpi_head(rng: np.random.Generator, n_probes: int, post_id: str, head) -> float:
    """Check one EVPI head alone through the training path: encode, head, backward."""
    table = _toy_table(rng)
    model = _model(rng, table, "evpi")
    prep = model.prepare(_toy_candidate_set(rng, post_id))

    def loss_fn(_):
        return batch_loss_and_grads(model.params, table, [prep], [head])

    return grad_check(loss_fn, model.tensors(), n_probes=n_probes, rng=rng)


def _check_model_loss(rng: np.random.Generator, n_probes: int, name: str) -> float:
    """Check a whole model's loss_and_grads: EVPI's over two sets, a baseline's over one."""
    table = _toy_table(rng)
    model = _model(rng, table, name)
    n_sets = 2 if name == "evpi" else 1
    preps = [model.prepare(_toy_candidate_set(rng, f"gc-{name}-{k}")) for k in range(n_sets)]

    def loss_fn(_):
        return model.loss_and_grads(preps)

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
