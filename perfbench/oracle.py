"""Reference scores for the rank workload, computed without evpirank.

The benchmark generates the checkpoints itself, so it can score every
candidate set with its own implementation of the two models and compare
the scores that `rank` wrote. This code writes the four LSTM gates as one
stacked matrix and projects all inputs in one product, so it also stands in
for the float reordering a fused kernel would bring; SCORE_RTOL absorbs it.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Relative tolerance on each rank score. Reordering float64 sums moves the
# scores by about 1e-15 relative; a model or formula error moves them by far
# more than 1e-7.
SCORE_RTOL = 1e-7
SCORE_ATOL = 1e-12

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class _Lstm:
    def __init__(self, tensors: dict, prefix: str):
        gates = "ifog"
        self.W = np.vstack([tensors[f"{prefix}W_{g}"] for g in gates])
        self.U = np.vstack([tensors[f"{prefix}U_{g}"] for g in gates])
        self.b = np.concatenate([tensors[f"{prefix}b_{g}"] for g in gates])
        self.hidden = self.U.shape[1]

    def mean(self, xs: np.ndarray) -> np.ndarray:
        h_dim = self.hidden
        if len(xs) == 0:
            return np.zeros(h_dim)
        pre_x = xs @ self.W.T + self.b
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        total = np.zeros(h_dim)
        for t in range(len(xs)):
            z = pre_x[t] + self.U @ h
            i, f, o = (_sigmoid(z[k * h_dim:(k + 1) * h_dim]) for k in range(3))
            c = f * c + i * np.tanh(z[3 * h_dim:])
            h = o * np.tanh(c)
            total += h
        return total / len(xs)


def _feedforward(tensors: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    layers = sum(1 for name in tensors if name.startswith(f"{prefix}W"))
    for layer in range(layers):
        x = tensors[f"{prefix}W{layer}"] @ x + tensors[f"{prefix}b{layer}"]
        if layer < layers - 1:
            x = np.tanh(x)
    return x


def _cos(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


class Scorer:
    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        self.vectors = vectors
        self.dim = dim

    def tokens(self, text: str) -> np.ndarray:
        rows = [self.vectors[t] for t in tokenize(text) if t in self.vectors]
        return np.array(rows) if rows else np.zeros((0, self.dim))

    def avg(self, text: str) -> np.ndarray:
        found = [t for t in tokenize(text) if t in self.vectors]
        if not found:
            return np.zeros(self.dim)
        return np.mean([self.vectors[t] for t in found], axis=0)

    def _encode(self, tensors: dict, record: dict):
        lstms = {enc: _Lstm(tensors, f"lstm_{enc}/") for enc in ("post", "question", "answer")}
        p = lstms["post"].mean(self.tokens(record["post_body"]))
        qs = [lstms["question"].mean(self.tokens(q)) for q in record["questions"]]
        answers = [lstms["answer"].mean(self.tokens(a)) for a in record["answers"]]
        return p, qs, answers

    def pqa_scores(self, tensors: dict, record: dict) -> list[float]:
        p, qs, answers = self._encode(tensors, record)
        return [
            float(_sigmoid(_feedforward(tensors, "ff/", np.concatenate([p, q, a]))[0]))
            for q, a in zip(qs, answers)
        ]

    def evpi_scores(self, tensors: dict, record: dict) -> list[float]:
        """Expected utility over the candidate answers, clamped question weights."""
        p, qs, answers = self._encode(tensors, record)
        q_hats = [self.avg(q) for q in record["questions"]]
        a_hats = [self.avg(a) for a in record["answers"]]
        utils = [
            float(_sigmoid(_feedforward(tensors, "ff_util/", np.concatenate([p, q, a]))[0]))
            for q, a in zip(qs, answers)
        ]
        scores = []
        for i, q in enumerate(qs):
            rep = _feedforward(tensors, "ff_ans/", np.concatenate([p, q]))
            scores.append(sum(
                math.exp(-(1.0 - _cos(rep, a_hats[j]))) * max(0.0, _cos(q_hats[i], q_hats[j]))
                * utils[j]
                for j in range(len(qs))
            ))
        return scores


def scores_match(got: float, want: float) -> bool:
    return abs(got - want) <= SCORE_ATOL + SCORE_RTOL * max(abs(got), abs(want))
