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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable, avg_vector, unit_rows
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
from .retrieval import CandidateSet, read_jsonl, tokenize

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


def expected_value(answer_probs, utilities):
    """Expected utility: (..., n) answer probabilities times (n,) utilities, summed over n."""
    probs = np.asarray(answer_probs, dtype=np.float64)
    utils = np.asarray(utilities, dtype=np.float64)
    if probs.shape[-1:] != utils.shape:
        raise ValueError("probability and utility lists must have equal length")
    return np.einsum("...j,j->...", probs, utils)


# ---------------------------------------------------------------------------
# Prepared inputs, the shared encoding pass and the scoring heads


@dataclass
class PreparedCandidates:
    """Token matrices of one candidate set, cached once.

    Only the answer model reads a_units (the average answer vectors scaled
    to unit norm, n x d), q_sims (the n x n cosines of the average question
    vectors, negatives clamped to 0 unless the model says otherwise) and
    sim_weights (the original question's row of q_sims: the weight of
    candidate j in the answer loss); a neural baseline leaves them empty.
    """

    cs: CandidateSet
    post_tokens: np.ndarray
    question_tokens: list[np.ndarray]
    answer_tokens: list[np.ndarray]
    a_units: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    q_sims: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    sim_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _distinct(mats: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct matrices of mats, and for each of mats the index of its copy."""
    index: dict[tuple, int] = {}
    inverse = [index.setdefault((m.shape, m.tobytes()), len(index)) for m in mats]
    return [mats[inverse.index(k)] for k in range(len(index))], np.array(inverse)


class SetEncoding:
    """Every text of a prepared set run through its LSTM encoder once.

    params is any model with lstm_post, lstm_question and lstm_answer; the
    last two may be None. Each encoder makes one packed lstm_forward over the
    distinct token matrices of its texts (equal matrices share one encoding,
    so they stay bit-equal whatever rows a product rounds differently). The
    encodings are the column blocks of the heads' (n, k*H) input: the post's
    encoding on every row, then the question encodings, then the answer
    encodings, one row per candidate. With for_backward, each block keeps its
    LSTM cache and an (n, H) accumulator of d(loss)/d(block) that
    backprop_head adds into, and backward() runs one lstm_backward per
    encoder. Without it the pass is forward-only and keeps neither.
    """

    def __init__(self, params, prep: PreparedCandidates, for_backward: bool = False):
        self.n = len(prep.cs)
        self.lstms, self.blocks, self.text_ids, self.caches = [], [], [], []
        for prefix, lstm, texts in (
            ("lstm_post/", params.lstm_post, [prep.post_tokens]),
            ("lstm_question/", params.lstm_question, prep.question_tokens),
            ("lstm_answer/", params.lstm_answer, prep.answer_tokens),
        ):
            if lstm is None:
                continue
            distinct, inverse = _distinct(texts)
            means, cache = lstm_forward(lstm, np.concatenate(distinct), [len(m) for m in distinct])
            text_ids = np.broadcast_to(inverse, self.n)  # the post's one text serves every row
            self.lstms.append((prefix, lstm))
            self.blocks.append(means[text_ids])
            self.text_ids.append(text_ids)
            if for_backward:
                self.caches.append(cache)
        if for_backward:
            self.d_blocks = [np.zeros(block.shape) for block in self.blocks]

    def inputs(self) -> np.ndarray:
        """The (n, k*H) rows [p; q_j; a_j] over the encoders present."""
        return np.hstack(self.blocks)

    def backprop_head(self, ff, prefix: str, acts, d_out, grads, rows=slice(None)) -> None:
        """Backpropagate head ff, run on inputs()[rows, :m], from d(loss)/d(output).

        ff's gradients go into grads under prefix; the input gradient goes
        into the accumulators, one column block each.
        """
        ff_grads, d_in = feedforward_backward(ff, acts, d_out)
        for name, grad in ff_grads.items():
            grads[prefix + name] += grad
        hidden = self.blocks[0].shape[1]
        for d_block, part in zip(self.d_blocks, np.hsplit(d_in, d_in.shape[-1] // hidden)):
            d_block[rows] += part

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        for (prefix, lstm), cache, text_ids, d_block in zip(
            self.lstms, self.caches, self.text_ids, self.d_blocks
        ):
            d_means = np.zeros((len(cache.lengths), lstm.hidden_dim))
            np.add.at(d_means, text_ids, d_block)
            for name, grad in lstm_backward(lstm, cache, d_means).items():
                grads[prefix + name] += grad


def bce_scores(ff: FeedForwardParams, enc: SetEncoding) -> np.ndarray:
    """sigma(ff([p; q_j; a_j])) for every candidate j: utility or baseline scores."""
    return sigmoid(feedforward_forward(ff, enc.inputs())[0][:, 0])


def bce_losses(
    ff: FeedForwardParams,
    prefix: str,
    enc: SetEncoding,
    original_index: int,
    grads: dict[str, np.ndarray],
) -> float:
    """Summed BCE of bce_scores against the one-positive labels.

    The probability is clamped away from 0 and 1. Backpropagates through
    enc.backprop_head.
    """
    out, acts = feedforward_forward(ff, enc.inputs())
    u = sigmoid(out[:, 0])
    y = np.zeros(enc.n)
    y[original_index] = 1.0
    u_c = np.clip(u, BCE_CLAMP, 1.0 - BCE_CLAMP)
    losses = -(y * np.log(u_c) + (1.0 - y) * np.log(1.0 - u_c))
    # Where the clamp is active the loss is locally flat in s.
    d_s = np.where((BCE_CLAMP < u) & (u < 1.0 - BCE_CLAMP), u - y, 0.0)
    enc.backprop_head(ff, prefix, acts, d_s[:, None], grads)
    return float(losses.sum())


# A head is head(params, enc, prep, grads) -> loss: it scores one encoded
# set, backpropagates through enc.backprop_head, and returns its summed loss.


def utility_losses(
    params: EvpiParams, enc: SetEncoding, prep: PreparedCandidates, grads: dict[str, np.ndarray]
) -> float:
    """The utility head: bce_losses of ff_util over [p; q_j; a_j]."""
    return bce_losses(params.ff_util, "ff_util/", enc, prep.cs.original_index, grads)


def answer_losses(
    params: EvpiParams, enc: SetEncoding, prep: PreparedCandidates, grads: dict[str, np.ndarray]
) -> float:
    """The answer head: one loss term per post.

    Distance 1 - cos of F_ans(p, q_o) to the original answer, plus the
    distances to the other candidates' answers weighted by how similar their
    questions are to the original question. The cosine and its gradient are
    0 where either vector has zero norm.
    """
    o = prep.cs.original_index
    # [p; q_o]: the first two column blocks of row o
    rep, acts = feedforward_forward(params.ff_ans, enc.inputs()[o, : 2 * params.hidden_dim])
    weights = prep.sim_weights.copy()
    weights[o] = 1.0
    unit = unit_rows(rep)
    cos = prep.a_units @ unit
    norm = np.linalg.norm(rep)
    # d(1 - cos_j)/d(rep) = (cos_j unit - a_units_j) / |rep|, and 0 where rep = 0
    d_rep = (weights @ cos) * unit - weights @ prep.a_units
    d_rep = d_rep / norm if norm > 0.0 else np.zeros_like(rep)
    enc.backprop_head(params.ff_ans, "ff_ans/", acts, d_rep, grads, rows=o)
    return float(weights @ (1.0 - cos))


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
            total += head(params, enc, prep, grads)
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
        def units(texts):  # average vectors scaled to unit norm, one row per text
            return unit_rows(np.stack([avg_vector(self.table, tokenize(t)).values for t in texts]))

        q_units = units(cs.questions)
        q_sims = np.einsum("ik,jk->ij", q_units, q_units)
        if self.clamp_negative_sim:
            q_sims = np.maximum(q_sims, 0.0)
        return PreparedCandidates(
            cs=cs,
            post_tokens=token_matrix(self.table, cs.post_body),
            question_tokens=[token_matrix(self.table, q) for q in cs.questions],
            answer_tokens=[token_matrix(self.table, a) for a in cs.answers],
            a_units=units(cs.answers),
            q_sims=q_sims,
            sim_weights=q_sims[cs.original_index],
        )

    def loss_and_grads(
        self, batch: Sequence[PreparedCandidates]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean per-post joint loss (answer plus utility) and its gradient."""
        return batch_loss_and_grads(self.params, batch, (answer_losses, utility_losses))

    def rank_prepared(self, prep: PreparedCandidates) -> RankedList:
        """score_i = sum_j exp(-(1 - cos(F_ans(p, q_i), a_hat_j))) * q_sims[i, j] * U_j.

        Every product whose rows become per-candidate scores is an einsum, so
        identical candidates get bit-identical scores.
        """
        params = self.params
        enc = SetEncoding(params, prep)
        # [p; q_i]: the first two column blocks
        reps = feedforward_forward(params.ff_ans, enc.inputs()[:, : 2 * params.hidden_dim])[0]
        probs = np.exp(np.einsum("ik,jk->ij", unit_rows(reps), prep.a_units) - 1.0) * prep.q_sims
        scores = expected_value(probs, bce_scores(params.ff_util, enc))
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
    """Load rankings.jsonl; each order must be a permutation with one score per entry."""

    def build(raw: dict) -> RankedList:
        rl = RankedList(
            post_id=raw["post_id"],
            order=[int(v) for v in raw["order"]],
            scores=[float(v) for v in raw["scores"]],
        )
        where, n = f"post {rl.post_id!r}", len(rl.order)
        if sorted(rl.order) != list(range(n)):
            raise ValueError(f"{where}: order {rl.order} is not a permutation of range({n})")
        if len(rl.scores) != n:
            raise ValueError(f"{where}: {len(rl.scores)} scores for {n} entries")
        return rl

    return read_jsonl(path, build)
