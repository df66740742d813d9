"""Reference rankers: random, bag-of-ngrams, community QA, neural variants.

The neural baselines rank candidates with a single deep feedforward network
over LSTM encodings, trained with binary cross-entropy on the same
one-positive/nine-negative labeling the utility model uses. Their parameters
are evpi's NeuralParams with the parts MODEL_PARTS gives neural-pq, neural-pa
and neural-pqa, and they run on the utility model's scorer code in evpi.
ngrams and cqa train on that labeling too (labeled_examples): ngram_train
returns an NgramModel and cqa_train a CqaModel, which holds its table, so
each ranks a set with rank(cs). No trainer here checks that its sets hold a
negative: cli's train does, for every model.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable, avg_vector, cos_sim
from .evpi import (
    NeuralModel,
    NeuralParams,
    PreparedCandidates,
    RankedList,
    SetEncoding,
    batch_loss_and_grads,
    bce_losses,
    bce_scores,
    rank_from_scores,
)
from .neural import sigmoid
from .retrieval import CandidateSet, tokenize
from .rng import substream

NGRAM_FEATURE_BITS = 20
NGRAM_FEATURE_SPACE = 1 << NGRAM_FEATURE_BITS
_NGRAM_HASH_KEY = b"evpirank-ngrams-v1"

QUESTION_WORDS = frozenset(
    {"what", "when", "where", "who", "whom", "whose", "why", "how", "which"}
)


# ---------------------------------------------------------------------------
# Random baseline


def random_rankings(
    candidate_sets: Sequence[CandidateSet], seed: int = 0
) -> list[RankedList]:
    """One seeded uniform permutation per post, for rankings files."""
    out = []
    for cs in candidate_sets:
        n = len(cs)
        rng = substream(seed, f"rank/random/{cs.post_id}")
        order = [int(v) for v in rng.permutation(n)]
        scores = [(n - r) / n for r in range(n)]
        out.append(RankedList(post_id=cs.post_id, order=order, scores=scores))
    return out


# ---------------------------------------------------------------------------
# Labeled examples: the training input of the ngrams and cqa baselines


def labeled_examples(sets: Iterable[CandidateSet]) -> list[tuple[str, str, str, int]]:
    """(post, question, answer, label) of every candidate, set by set in index order.

    Each set gives one positive, its original question, and n-1 negatives.
    The caller sees to it that some set has a negative: `train` refuses sets
    that hold their original question alone, for every model.
    """
    return [
        (cs.post_body, cs.questions[j], cs.answers[j], int(j == cs.original_index))
        for cs in sets
        for j in range(len(cs))
    ]


# ---------------------------------------------------------------------------
# Bag-of-ngrams with hinge loss


def _ngrams(tokens: Sequence[str], max_n: int = 3) -> dict[str, int]:
    counts: dict[str, int] = {}
    for n in range(1, max_n + 1):
        for start in range(len(tokens) - n + 1):
            gram = "_".join(tokens[start : start + n])
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def hash_feature(key: str) -> int:
    """Stable feature id in [0, 2^20); fixed keyed hash across runs."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8, key=_NGRAM_HASH_KEY).digest()
    return int.from_bytes(digest, "little") % NGRAM_FEATURE_SPACE


def ngram_features(post: str, question: str, answer: str) -> dict[int, float]:
    """Hashed cross-product n-gram counts over (p,q), (q,a) and (p,a)."""
    grams = {
        "p": _ngrams(tokenize(post)),
        "q": _ngrams(tokenize(question)),
        "a": _ngrams(tokenize(answer)),
    }
    features: dict[int, float] = {}
    for tag, left, right in (("pq", "p", "q"), ("qa", "q", "a"), ("pa", "p", "a")):
        for gx, cx in grams[left].items():
            for gy, cy in grams[right].items():
                fid = hash_feature(f"{tag}|{gx}|{gy}")
                features[fid] = features.get(fid, 0.0) + cx * cy
    return features


def _sparse_dot(weights: np.ndarray, features: dict[int, float]) -> float:
    return float(sum(weights[fid] * value for fid, value in features.items()))


def ngram_train(sets: Sequence[CandidateSet], epochs: int, lr: float) -> "NgramModel":
    """Sub-gradient descent on the hinge loss max(0, 1 - y w.x), y = +/-1, over n-gram features.

    The labeled_examples of sets are visited in their given order each
    epoch, which keeps the result deterministic.
    """
    examples = labeled_examples(sets)
    features = [ngram_features(post, question, answer) for post, question, answer, _ in examples]
    signs = [1.0 if label == 1 else -1.0 for *_, label in examples]
    weights = np.zeros(NGRAM_FEATURE_SPACE)
    for _ in range(epochs):
        for y, feats in zip(signs, features):
            if y * _sparse_dot(weights, feats) < 1.0:
                for fid, value in feats.items():
                    weights[fid] += lr * y * value
    return NgramModel(weights)


@dataclass
class NgramModel:
    name = "ngrams"
    weights: np.ndarray

    def score(self, post: str, question: str, answer: str) -> float:
        return _sparse_dot(self.weights, ngram_features(post, question, answer))

    def rank(self, cs: CandidateSet) -> RankedList:
        scores = [self.score(cs.post_body, cs.questions[j], cs.answers[j]) for j in range(len(cs))]
        return rank_from_scores(cs.post_id, scores)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"ngrams/w": self.weights}


# ---------------------------------------------------------------------------
# Community QA baseline (logistic regression over string/embedding features)


def cqa_features(post: str, question: str, table: EmbeddingTable) -> np.ndarray:
    """Dense similarity features of a (post, question) pair.

    [cos(p_hat, q_hat), token overlap, bigram overlap, length ratio,
    question-word count, contains-you flag]
    """
    p_tokens = tokenize(post)
    q_tokens = tokenize(question)
    p_set, q_set = set(p_tokens), set(q_tokens)
    p_bi = {tuple(p_tokens[i : i + 2]) for i in range(len(p_tokens) - 1)}
    q_bi = {tuple(q_tokens[i : i + 2]) for i in range(len(q_tokens) - 1)}
    cos = cos_sim(avg_vector(table, p_tokens).values, avg_vector(table, q_tokens).values)
    token_overlap = len(p_set & q_set) / max(1, len(q_set))
    bigram_overlap = len(p_bi & q_bi) / max(1, len(q_bi))
    length_ratio = len(q_tokens) / max(1, len(p_tokens))
    question_words = float(sum(1 for tok in q_tokens if tok in QUESTION_WORDS))
    has_you = 1.0 if "you" in q_set else 0.0
    return np.array([cos, token_overlap, bigram_overlap, length_ratio, question_words, has_you])


@dataclass
class CqaModel:
    name = "cqa"
    weights: np.ndarray
    bias: np.ndarray  # (1,), so tensors() hands out the model's own array
    table: EmbeddingTable

    def score(self, post: str, question: str) -> float:
        logit = self.weights @ cqa_features(post, question, self.table) + self.bias[0]
        return float(sigmoid(logit))

    def rank(self, cs: CandidateSet) -> RankedList:
        scores = [self.score(cs.post_body, cs.questions[j]) for j in range(len(cs))]
        return rank_from_scores(cs.post_id, scores)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"cqa/w": self.weights, "cqa/b": self.bias}


def cqa_train(
    sets: Sequence[CandidateSet],
    table: EmbeddingTable,
    epochs: int,
    lr: float,
) -> CqaModel:
    """Batch gradient descent for logistic regression on CQA features of labeled_examples(sets)."""
    examples = labeled_examples(sets)
    X = np.stack([cqa_features(post, question, table) for post, question, _, _ in examples])
    y = np.array([float(label) for *_, label in examples])
    constant = np.all(X == X[0:1, :], axis=0)
    if np.all(constant):
        warnings.warn("all CQA features are constant across examples", stacklevel=2)
    weights = np.zeros(X.shape[1])
    bias = 0.0
    n = X.shape[0]
    for _ in range(epochs):
        probs = sigmoid(X @ weights + bias)
        error = probs - y
        weights -= lr * (X.T @ error) / n
        bias -= lr * float(error.mean())
    return CqaModel(weights=weights, bias=np.array([bias]), table=table)


# ---------------------------------------------------------------------------
# Neural baselines


def _scorer_losses(params: NeuralParams, enc: SetEncoding, preps, grads) -> float:
    """The baselines' only head: bce_losses of ff over the model's encodings."""
    return bce_losses(params.ff, "ff/", enc, grads)


class NeuralBaselineModel(NeuralModel):
    """neural-pq, neural-pa or neural-pqa: sigma(ff(encodings)) scores, BCE training loss."""

    def prepare(self, cs: CandidateSet) -> PreparedCandidates:
        # Texts of an unused encoder are tokenized but never encoded.
        questions = [self._text(q) for q in cs.questions]
        return self._prepared(cs, questions, [self._text(a) for a in cs.answers])

    def loss_and_grads(
        self, batch: Sequence[PreparedCandidates]
    ) -> tuple[float, dict[str, np.ndarray]]:
        return batch_loss_and_grads(self.params, self.table, batch, (_scorer_losses,))

    def rank_prepared(
        self, preps: Sequence[PreparedCandidates], memo: dict | None = None
    ) -> list[RankedList]:
        enc = SetEncoding(self.params, self.table, preps, memo=memo)
        return [
            rank_from_scores(prep.cs.post_id, scores)
            for prep, scores in zip(preps, enc.per_set(bce_scores(self.params.ff, enc)))
        ]
