"""Expected-value-of-perfect-information question ranking.

An answer model scores how likely each candidate answer is for a given
question, a utility model scores how much an answer would improve the post,
and a question's value is the utility expectation over the candidate answer
pool. Both models share three LSTM text encoders and are trained jointly.
The utility model's scorer, sigma(FF([p; q; a])) with a clamped BCE loss,
is also the neural baselines' scorer: both run on SetEncoding, bce_scores
and bce_losses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .embeddings import AvgVector, EmbeddingTable, avg_vector, cos_sim
from .neural import (
    FeedForwardParams,
    LstmParams,
    feedforward_backward,
    feedforward_forward,
    lstm_backward,
    lstm_forward,
    sigmoid,
    zeros_like_tensors,
)
from .retrieval import CandidateSet, tokenize

FF_HIDDEN_LAYERS = 5

BCE_CLAMP = 1e-12


@dataclass
class EvpiParams:
    """Three LSTM encoders plus the answer and utility feedforward nets.

    ff_ans maps the concatenated post/question encodings (2 * hidden) to the
    embedding space (dim d) so it can be compared to average answer vectors;
    ff_util maps the concatenated post/question/answer encodings (3 * hidden)
    to a scalar squashed by a sigmoid at the call site.
    """

    lstm_post: LstmParams
    lstm_question: LstmParams
    lstm_answer: LstmParams
    ff_ans: FeedForwardParams
    ff_util: FeedForwardParams

    @property
    def hidden_dim(self) -> int:
        return self.lstm_post.hidden_dim

    @property
    def embed_dim(self) -> int:
        return self.lstm_post.input_dim

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        out.update(self.lstm_post.tensors("lstm_post/"))
        out.update(self.lstm_question.tensors("lstm_question/"))
        out.update(self.lstm_answer.tensors("lstm_answer/"))
        out.update(self.ff_ans.tensors("ff_ans/"))
        out.update(self.ff_util.tensors("ff_util/"))
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "EvpiParams":
        return cls(
            lstm_post=LstmParams.from_tensors(tensors, "lstm_post/"),
            lstm_question=LstmParams.from_tensors(tensors, "lstm_question/"),
            lstm_answer=LstmParams.from_tensors(tensors, "lstm_answer/"),
            ff_ans=FeedForwardParams.from_tensors(tensors, "ff_ans/"),
            ff_util=FeedForwardParams.from_tensors(tensors, "ff_util/"),
        )


def init_evpi_params(
    embed_dim: int, hidden_dim: int, rng: np.random.Generator
) -> EvpiParams:
    ans_dims = [2 * hidden_dim] + [hidden_dim] * FF_HIDDEN_LAYERS + [embed_dim]
    util_dims = [3 * hidden_dim] + [hidden_dim] * FF_HIDDEN_LAYERS + [1]
    return EvpiParams(
        lstm_post=LstmParams.init(embed_dim, hidden_dim, rng),
        lstm_question=LstmParams.init(embed_dim, hidden_dim, rng),
        lstm_answer=LstmParams.init(embed_dim, hidden_dim, rng),
        ff_ans=FeedForwardParams.init(ans_dims, rng),
        ff_util=FeedForwardParams.init(util_dims, rng),
    )


@dataclass
class TrainingExample:
    """One labeled (post, question, answer) instance from a candidate set."""

    post: str
    question: str
    answer: str
    label: int
    candidate_index: int


def candidate_training_examples(cs: CandidateSet) -> list[TrainingExample]:
    """The one positive and n-1 negative examples a candidate set induces."""
    return [
        TrainingExample(
            post=cs.post_body,
            question=cs.questions[j],
            answer=cs.answers[j],
            label=1 if j == cs.original_index else 0,
            candidate_index=j,
        )
        for j in range(len(cs))
    ]


@dataclass
class RankedList:
    """A model's ordering of one candidate set, best first.

    scores are aligned with order: scores[r] belongs to candidate order[r]
    and is non-increasing in r.
    """

    post_id: str
    order: list[int]
    scores: list[float]


def rank_from_scores(post_id: str, scores: Sequence[float]) -> RankedList:
    """Descending-score ordering with ties broken by ascending index."""
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return RankedList(post_id=post_id, order=order, scores=[float(scores[j]) for j in order])


# ---------------------------------------------------------------------------
# Text encoding helpers


def token_matrix(table: EmbeddingTable, text: str) -> np.ndarray:
    """Embedding rows for the in-vocabulary tokens of text, in order."""
    vectors = [table.vectors[tok] for tok in tokenize(text) if tok in table.vectors]
    if not vectors:
        return np.zeros((0, table.dim))
    return np.asarray(vectors, dtype=np.float64)


# ---------------------------------------------------------------------------
# Scoring primitives


def dist(rep: np.ndarray, a_hat: AvgVector | np.ndarray) -> float:
    """1 - cos_sim(rep, a_hat); lies in [0, 2]."""
    values = a_hat.values if isinstance(a_hat, AvgVector) else a_hat
    return 1.0 - cos_sim(rep, values)


def _dist_grad_wrt_rep(rep: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of dist(rep, target) with respect to rep.

    Zero at the degenerate points where either vector has zero norm (the
    cosine is defined as 0 there, a locally constant choice).
    """
    nr = float(np.linalg.norm(rep))
    nt = float(np.linalg.norm(target))
    if nr == 0.0 or nt == 0.0:
        return np.zeros_like(rep)
    cos = float(np.dot(rep, target) / (nr * nt))
    return cos * rep / nr**2 - target / (nr * nt)


def similarity_weight(q_hat_i: np.ndarray, q_hat_j: np.ndarray, clamp: bool = True) -> float:
    """Question-similarity weight; negative similarities clamp to 0."""
    sim = cos_sim(q_hat_i, q_hat_j)
    if clamp:
        return max(0.0, sim)
    return sim


def expected_value(answer_probs: Sequence[float], utilities: Sequence[float]) -> float:
    """Sum over candidate answers of probability times utility."""
    if len(answer_probs) != len(utilities):
        raise ValueError("probability and utility lists must have equal length")
    return float(np.dot(np.asarray(answer_probs, dtype=np.float64), np.asarray(utilities, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Prepared inputs, the shared encoding pass and the scoring heads


@dataclass
class PreparedCandidates:
    """Token matrices of one candidate set, cached once.

    Only the answer model reads the average vectors and sim_weights (the
    weight of candidate j in the answer loss); a neural baseline leaves them
    empty.
    """

    cs: CandidateSet
    post_tokens: np.ndarray
    question_tokens: list[np.ndarray]
    answer_tokens: list[np.ndarray]
    q_hats: list[np.ndarray] = field(default_factory=list)
    a_hats: list[np.ndarray] = field(default_factory=list)
    sim_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))


class SetEncoding:
    """Every text of a prepared set run through its LSTM encoder once.

    params is any model with lstm_post, lstm_question and lstm_answer; the
    last two may be None. The sequences are the post, then each question,
    then each answer. With for_backward, each sequence keeps its LSTM cache
    and an accumulator of d(loss)/d(encoding): every head adds into the
    accumulators, and backward() then runs one lstm_backward per sequence.
    Without it the pass is forward-only and keeps neither.
    """

    def __init__(self, params, prep: PreparedCandidates, for_backward: bool = False):
        self.n = len(prep.cs)
        self.lstms = [("lstm_post/", params.lstm_post)]
        texts = [prep.post_tokens]
        for prefix, lstm, tokens in (
            ("lstm_question/", params.lstm_question, prep.question_tokens),
            ("lstm_answer/", params.lstm_answer, prep.answer_tokens),
        ):
            if lstm is not None:
                self.lstms += [(prefix, lstm)] * len(tokens)
                texts += tokens
        self.n_q = self.n if params.lstm_question is not None else 0
        self.has_answers = params.lstm_answer is not None
        if for_backward:
            outs = [lstm_forward(lstm, xs) for (_, lstm), xs in zip(self.lstms, texts)]
            self.bars = [mean for mean, _ in outs]
            self.caches = [cache for _, cache in outs]
            self.d_bars = [np.zeros_like(mean) for mean in self.bars]
        else:
            self.bars = [lstm_forward(lstm, xs)[0] for (_, lstm), xs in zip(self.lstms, texts)]

    def _slots(self, j: int, with_answer: bool) -> list[int]:
        slots = [0]
        if self.n_q:
            slots.append(1 + j)
        if with_answer and self.has_answers:
            slots.append(1 + self.n_q + j)
        return slots

    def head_input(self, j: int, with_answer: bool = True) -> np.ndarray:
        """[p; q_j; a_j] over the encoders present; with_answer=False drops a_j."""
        return np.concatenate([self.bars[k] for k in self._slots(j, with_answer)])

    def add_grad(self, j: int, d_input: np.ndarray, with_answer: bool = True) -> None:
        """Split d(loss)/d(head_input(j)) into the per-sequence accumulators."""
        hidden = len(self.bars[0])
        for pos, k in enumerate(self._slots(j, with_answer)):
            self.d_bars[k] += d_input[pos * hidden : (pos + 1) * hidden]

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        for (prefix, lstm), cache, d_bar in zip(self.lstms, self.caches, self.d_bars):
            for name, grad in lstm_backward(lstm, cache, d_bar).items():
                grads[prefix + name] += grad


def bce_scores(ff: FeedForwardParams, enc: SetEncoding) -> list[float]:
    """sigma(ff([p; q_j; a_j])) for every candidate j: utility or baseline score."""
    return [sigmoid(float(feedforward_forward(ff, enc.head_input(j))[0][0])) for j in range(enc.n)]


def bce_losses(
    ff: FeedForwardParams,
    prefix: str,
    enc: SetEncoding,
    original_index: int,
    grads: dict[str, np.ndarray],
) -> list[float]:
    """Per-candidate BCE of bce_scores against the one-positive labels.

    The probability is clamped away from 0 and 1. Adds ff's gradients to
    grads under prefix and the input gradients to enc's accumulators.
    """
    losses = []
    for j in range(enc.n):
        y = 1 if j == original_index else 0
        s_out, acts = feedforward_forward(ff, enc.head_input(j))
        u = sigmoid(float(s_out[0]))
        u_c = min(max(u, BCE_CLAMP), 1.0 - BCE_CLAMP)
        losses.append(-(y * math.log(u_c) + (1 - y) * math.log(1.0 - u_c)))
        # Where the clamp is active the loss is locally flat in s.
        d_s = u - y if BCE_CLAMP < u < 1.0 - BCE_CLAMP else 0.0
        ff_grads, d_in = feedforward_backward(ff, acts, np.array([d_s]))
        for name, grad in ff_grads.items():
            grads[prefix + name] += grad
        enc.add_grad(j, d_in)
    return losses


# A head is head(params, enc, prep, grads) -> losses: it scores one encoded
# set, adds its gradients as bce_losses does, and returns its loss terms.


def utility_losses(
    params: EvpiParams, enc: SetEncoding, prep: PreparedCandidates, grads: dict[str, np.ndarray]
) -> list[float]:
    """The utility head: bce_losses of ff_util over [p; q_j; a_j]."""
    return bce_losses(params.ff_util, "ff_util/", enc, prep.cs.original_index, grads)


def answer_losses(
    params: EvpiParams, enc: SetEncoding, prep: PreparedCandidates, grads: dict[str, np.ndarray]
) -> list[float]:
    """The answer head: one loss term per post.

    Distance of F_ans(p, q_o) to the original answer, plus the distances to
    the other candidates' answers weighted by how similar their questions
    are to the original question.
    """
    o = prep.cs.original_index
    rep, acts = feedforward_forward(params.ff_ans, enc.head_input(o, with_answer=False))
    loss = dist(rep, prep.a_hats[o])
    d_rep = _dist_grad_wrt_rep(rep, prep.a_hats[o])
    for j, weight in enumerate(prep.sim_weights):
        if j == o or weight == 0.0:
            continue
        loss += dist(rep, prep.a_hats[j]) * weight
        d_rep = d_rep + weight * _dist_grad_wrt_rep(rep, prep.a_hats[j])
    ff_grads, d_in = feedforward_backward(params.ff_ans, acts, d_rep)
    for name, grad in ff_grads.items():
        grads[f"ff_ans/{name}"] += grad
    enc.add_grad(o, d_in, with_answer=False)
    return [loss]


def batch_loss_and_grads(
    params, batch: Sequence[PreparedCandidates], heads: Sequence[Callable]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean over the batch of the heads' summed losses, with its gradient.

    Each set is encoded once and backpropagated once, whatever the heads.
    """
    grads = zeros_like_tensors(params.tensors())
    total = 0.0
    for prep in batch:
        enc = SetEncoding(params, prep, for_backward=True)
        for head in heads:
            for loss in head(params, enc, prep, grads):
                total += loss
        enc.backward(grads)
    n = max(1, len(batch))
    for name in grads:
        grads[name] /= n
    return total / n, grads


class EvpiModel:
    """Trainable wrapper: joint loss with gradients, and prepared ranking."""

    name = "evpi"

    def __init__(
        self, params: EvpiParams, table: EmbeddingTable, clamp_negative_sim: bool = True
    ):
        self.params = params
        self.table = table
        self.clamp_negative_sim = clamp_negative_sim

    def tensors(self) -> dict[str, np.ndarray]:
        return self.params.tensors()

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        self.params = EvpiParams.from_tensors({k: v.copy() for k, v in tensors.items()})

    def prepare(self, cs: CandidateSet) -> PreparedCandidates:
        table = self.table
        q_hats = [avg_vector(table, tokenize(q)).values for q in cs.questions]
        a_hats = [avg_vector(table, tokenize(a)).values for a in cs.answers]
        o = cs.original_index
        weights = np.array(
            [similarity_weight(q_hats[o], q_hats[j], self.clamp_negative_sim) for j in range(len(cs))]
        )
        return PreparedCandidates(
            cs=cs,
            post_tokens=token_matrix(table, cs.post_body),
            question_tokens=[token_matrix(table, q) for q in cs.questions],
            answer_tokens=[token_matrix(table, a) for a in cs.answers],
            q_hats=q_hats,
            a_hats=a_hats,
            sim_weights=weights,
        )

    def loss_and_grads(
        self, batch: Sequence[PreparedCandidates]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean per-post joint loss (answer plus utility) and its gradient."""
        return batch_loss_and_grads(self.params, batch, (answer_losses, utility_losses))

    def rank_prepared(self, prep: PreparedCandidates) -> RankedList:
        params = self.params
        n = len(prep.cs)
        enc = SetEncoding(params, prep)
        reps = [
            feedforward_forward(params.ff_ans, enc.head_input(i, with_answer=False))[0]
            for i in range(n)
        ]
        utils = bce_scores(params.ff_util, enc)
        scores = []
        for i in range(n):
            probs = np.array(
                [
                    math.exp(-dist(reps[i], prep.a_hats[j]))
                    * similarity_weight(prep.q_hats[i], prep.q_hats[j], self.clamp_negative_sim)
                    for j in range(n)
                ]
            )
            scores.append(expected_value(probs, utils))
        return rank_from_scores(prep.cs.post_id, scores)

    def rank(self, cs: CandidateSet) -> RankedList:
        return self.rank_prepared(self.prepare(cs))


def train(
    train_sets: Sequence[CandidateSet],
    tune_sets: Sequence[CandidateSet],
    table: EmbeddingTable,
    config,
) -> tuple["EvpiModel", "object"]:
    """Joint training of the answer and utility models.

    Minimizes the joint loss with Adam and returns the model restored to the
    checkpoint with the best tune-set MAP, plus the fit log.
    """
    from .rng import substream
    from .training import fit

    rng = substream(config.seed, "init/evpi")
    params = init_evpi_params(table.dim, config.hidden_dim, rng)
    model = EvpiModel(params, table, config.clamp_negative_sim)
    result = fit(model, train_sets, tune_sets, config)
    return model, result


# ---------------------------------------------------------------------------
# Rankings file


def write_rankings(path: str | Path, model_name: str, ranked: Iterable[RankedList]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for rl in ranked:
            record = {
                "post_id": rl.post_id,
                "model": model_name,
                "order": rl.order,
                "scores": rl.scores,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_rankings(path: str | Path) -> list[RankedList]:
    ranked = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                ranked.append(
                    RankedList(
                        post_id=raw["post_id"],
                        order=[int(v) for v in raw["order"]],
                        scores=[float(v) for v in raw["scores"]],
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return ranked
