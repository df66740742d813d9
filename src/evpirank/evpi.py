"""Expected-value-of-perfect-information ranking and its neural model family.

An answer model scores how likely each candidate answer is for a given
question, a utility model scores how much an answer would improve the post,
and a question's value is the utility expectation over the candidate answer
pool. Both models share three LSTM text encoders and are trained jointly.

EVPI and the neural baselines are one family: NeuralParams holds the parts
of any of them, MODEL_PARTS says which parts each has, and NeuralModel
holds what they share. The utility model's scorer, sigma(FF([p; q; a]))
with a clamped BCE loss, is also the baselines' scorer: both run on
SetEncoding, bce_scores and bce_losses.
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

BCE_CLAMP = 1e-12

# Hidden layers of EVPI's answer and utility heads, and of a baseline's scorer.
FF_HIDDEN_LAYERS = 5
BASELINE_HIDDEN_LAYERS = 10

# The parts of each neural model, in init and checkpoint order.
MODEL_PARTS = {
    "evpi": ("lstm_post", "lstm_question", "lstm_answer", "ff_ans", "ff_util"),
    "neural-pq": ("lstm_post", "lstm_question", "ff"),
    "neural-pa": ("lstm_post", "lstm_answer", "ff"),
    "neural-pqa": ("lstm_post", "lstm_question", "lstm_answer", "ff"),
}


def _parts(model: str) -> tuple[str, ...]:
    if model not in MODEL_PARTS:
        raise ValueError(f"unknown neural model {model!r}; valid: {', '.join(MODEL_PARTS)}")
    return MODEL_PARTS[model]


@dataclass
class NeuralParams:
    """LSTM encoders plus feedforward heads; the parts a model lacks are None.

    ff_ans maps the concatenated post/question encodings (2 * hidden) to the
    embedding space (dim d) so it can be compared to average answer vectors.
    ff_util maps the post/question/answer encodings (3 * hidden), and a
    baseline's ff the encodings of its inputs, to a scalar squashed by a
    sigmoid at the call site. Tensors are named <part>/<tensor>.
    """

    lstm_post: LstmParams | None = None
    lstm_question: LstmParams | None = None
    lstm_answer: LstmParams | None = None
    ff_ans: FeedForwardParams | None = None
    ff_util: FeedForwardParams | None = None
    ff: FeedForwardParams | None = None

    @property
    def hidden_dim(self) -> int:
        return self.lstm_post.hidden_dim

    @property
    def model(self) -> str:
        """The MODEL_PARTS name of the parts present."""
        present = tuple(part for part, value in vars(self).items() if value is not None)
        return next(name for name, parts in MODEL_PARTS.items() if parts == present)

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for part, value in vars(self).items():
            if value is not None:
                out.update(value.tensors(f"{part}/"))
        return out

    @classmethod
    def init(
        cls, model: str, embed_dim: int, hidden_dim: int, rng: np.random.Generator
    ) -> "NeuralParams":
        """Fresh parameters of model, drawn from rng part by part in MODEL_PARTS order."""
        parts = _parts(model)
        encoders = sum(part.startswith("lstm_") for part in parts)
        ff_dims = {
            "ff_ans": [2 * hidden_dim] + [hidden_dim] * FF_HIDDEN_LAYERS + [embed_dim],
            "ff_util": [3 * hidden_dim] + [hidden_dim] * FF_HIDDEN_LAYERS + [1],
            "ff": [encoders * hidden_dim] + [hidden_dim] * BASELINE_HIDDEN_LAYERS + [1],
        }
        return cls(**{
            part: LstmParams.init(embed_dim, hidden_dim, rng)
            if part.startswith("lstm_")
            else FeedForwardParams.init(ff_dims[part], rng)
            for part in parts
        })


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
    """The token ids of one candidate set's texts, cached once.

    Each text is its in-vocabulary tokens as an int64 array of embedding
    table rows (EmbeddingTable.token_ids); lstm_forward gathers its vectors.
    Only the answer model reads a_units (the average answer vectors scaled
    to unit norm, n x d), q_sims (the n x n cosines of the average question
    vectors, negatives clamped to 0) and sim_weights (the original
    question's row of q_sims: the weight of candidate j in the answer loss);
    a neural baseline leaves them empty.
    """

    cs: CandidateSet
    post_tokens: np.ndarray
    question_tokens: list[np.ndarray]
    answer_tokens: list[np.ndarray]
    a_units: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    q_sims: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    sim_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))


# The most entries a memo keeps. A memo holds one pass's shared work: a prepare
# memo a text's token ids and, for evpi, its average vector; an encoding memo
# a text's encoding, for each encoder. Past this count a memo adds nothing and
# the texts it lacks are prepared and encoded per call, as without one. At
# H = 100 and d = 200 an entry takes 1,600 bytes (an average vector) or 800 (an
# encoding) plus 8 bytes per token id, so a pass's two memos hold at most
# 4,096 x (2,400 + 16 x tokens) bytes: under 32 MiB for texts of up to 300
# tokens on average.
MEMO_TEXTS = 4096


def _remember(memo: dict, key, value):
    """value, stored in memo under key while memo holds fewer than MEMO_TEXTS entries."""
    if len(memo) < MEMO_TEXTS:
        memo[key] = value
    return value


def _distinct(texts: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[bytes], np.ndarray]:
    """The distinct token-id arrays of texts, their bytes, and each text's index among them."""
    index: dict[bytes, int] = {}
    inverse = np.array([index.setdefault(ids.tobytes(), len(index)) for ids in texts])
    # inverse counts up in order of first appearance; return_index gives each value's first text
    return [texts[i] for i in np.unique(inverse, return_index=True)[1]], list(index), inverse


def _encoded(passes, table, memo: dict) -> list[np.ndarray]:
    """Forward-only encodings of each (prefix, lstm, distinct texts, their token-id bytes) pass.

    Only the texts memo holds no encoding of go through lstm_forward, those
    of every encoder in one call; their encodings are remembered under
    (prefix, bytes).
    """
    rows = [[memo.get((prefix, key)) for key in keys] for prefix, _, _, keys in passes]
    missing = [[i for i, row in enumerate(encoder) if row is None] for encoder in rows]
    todo = [
        (lstm, [texts[i] for i in wanted])
        for (_, lstm, texts, _), wanted in zip(passes, missing)
        if wanted
    ]
    if todo:
        texts = [ids for _, encoder_texts in todo for ids in encoder_texts]
        means, _ = lstm_forward(
            todo[0][0], np.concatenate(texts), [len(ids) for ids in texts], table.gather, False,
            others=[(lstm, len(encoder_texts)) for lstm, encoder_texts in todo[1:]],
        )
        fresh = iter(means)
        for (prefix, _, _, keys), encoder, wanted in zip(passes, rows, missing):
            for i in wanted:
                encoder[i] = _remember(memo, (prefix, keys[i]), next(fresh))
    return [np.stack(encoder) for encoder in rows]


class SetEncoding:
    """Every text of a batch of prepared sets run through its LSTM encoder once.

    params is a NeuralParams and table the EmbeddingTable the sets' token
    ids index; the encoders params lacks are skipped. The rows are every
    set's candidates, concatenated: set s owns rows offsets[s]:offsets[s + 1],
    and originals[s] is the row of its original question. Each encoder
    present encodes the distinct texts of the whole batch once (equal token
    ids share one encoding). The encodings are the column blocks of the
    heads' (n, k*H) input: a set's post encoding on each of its rows, then
    the question encodings, then the answer encodings, one row per
    candidate.

    The texts' vectors are gathered with table.gather. A text's encoding
    has the same bits whatever batch it is in (see neural.PRODUCT_COLUMNS),
    so a set ranks bit-equal alone or in any chunk. With for_backward each
    encoder makes one packed lstm_forward over its distinct texts, each
    block keeps its LSTM cache and an (n, H) accumulator of d(loss)/d(block)
    that backprop_head adds into, and backward() runs one lstm_backward per
    encoder. Without it the pass is forward-only: one lstm_forward call runs
    every encoder's texts, its groups stepped side by side on the usable
    CPUs, and each step gathers the vectors of its running texts only, so
    no buffer has a float row per token. A forward-only encoding also reuses
    the encodings in memo, an encoding memo of one model whose weights do
    not change while it is used (one ranking pass), and remembers the ones
    it computes (MEMO_TEXTS).
    """

    def __init__(
        self,
        params: NeuralParams,
        table: EmbeddingTable,
        preps: Sequence[PreparedCandidates],
        for_backward: bool = False,
        memo: dict | None = None,
    ):
        memo = {} if memo is None else memo
        sizes = [len(prep.cs) for prep in preps]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.originals = self.offsets[:-1] + [prep.cs.original_index for prep in preps]
        self.n = int(self.offsets[-1])
        self.lstms, self.text_ids, passes = [], [], []
        for prefix, lstm, texts, rows_per_text in (
            ("lstm_post/", params.lstm_post, [prep.post_tokens for prep in preps], sizes),
            ("lstm_question/", params.lstm_question,
             [ids for prep in preps for ids in prep.question_tokens], 1),
            ("lstm_answer/", params.lstm_answer,
             [ids for prep in preps for ids in prep.answer_tokens], 1),
        ):
            if lstm is None:
                continue
            distinct, keys, inverse = _distinct(texts)
            passes.append((prefix, lstm, distinct, keys))
            self.lstms.append((prefix, lstm))
            # a set's post serves each of its rows
            self.text_ids.append(np.repeat(inverse, rows_per_text))
        if for_backward:
            means, self.caches = zip(*(
                lstm_forward(lstm, np.concatenate(texts), [len(ids) for ids in texts], table.gather)
                for _, lstm, texts, _ in passes
            ))
        else:
            means, self.caches = _encoded(passes, table, memo), [None] * len(passes)
        self.blocks = [rows[text_ids] for rows, text_ids in zip(means, self.text_ids)]
        if for_backward:
            self.d_blocks = [np.zeros(block.shape) for block in self.blocks]

    def inputs(self) -> np.ndarray:
        """The (n, k*H) rows [p; q_j; a_j] over the encoders present."""
        return np.hstack(self.blocks)

    def per_set(self, rows: np.ndarray) -> list[np.ndarray]:
        """rows, one per encoded row, cut into one view per set."""
        return np.split(rows, self.offsets[1:-1])

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
    """sigma(ff([p; q_j; a_j])) for every encoded row: utility or baseline scores."""
    return sigmoid(feedforward_forward(ff, enc.inputs())[0][:, 0])


def bce_losses(
    ff: FeedForwardParams,
    prefix: str,
    enc: SetEncoding,
    grads: dict[str, np.ndarray],
) -> float:
    """Summed BCE of bce_scores against the labels: 1 on enc.originals, 0 elsewhere.

    The probability is clamped away from 0 and 1. Backpropagates through
    enc.backprop_head.
    """
    out, acts = feedforward_forward(ff, enc.inputs())
    u = sigmoid(out[:, 0])
    y = np.zeros(enc.n)
    y[enc.originals] = 1.0
    u_c = np.clip(u, BCE_CLAMP, 1.0 - BCE_CLAMP)
    losses = -(y * np.log(u_c) + (1.0 - y) * np.log(1.0 - u_c))
    # Where the clamp is active the loss is locally flat in s.
    d_s = np.where((BCE_CLAMP < u) & (u < 1.0 - BCE_CLAMP), u - y, 0.0)
    enc.backprop_head(ff, prefix, acts, d_s[:, None], grads)
    return float(losses.sum())


# A head is head(params, enc, preps, grads) -> loss: it scores the sets
# preps encoded in enc, backpropagates through enc.backprop_head, and
# returns its loss summed over the sets.


def utility_losses(
    params: NeuralParams,
    enc: SetEncoding,
    preps: Sequence[PreparedCandidates],
    grads: dict[str, np.ndarray],
) -> float:
    """The utility head: bce_losses of ff_util over [p; q_j; a_j]."""
    return bce_losses(params.ff_util, "ff_util/", enc, grads)


def answer_losses(
    params: NeuralParams,
    enc: SetEncoding,
    preps: Sequence[PreparedCandidates],
    grads: dict[str, np.ndarray],
) -> float:
    """The answer head: one loss term per post.

    Distance 1 - cos of F_ans(p, q_o) to the original answer, plus the
    distances to the other candidates' answers weighted by how similar their
    questions are to the original question. F_ans runs once over the
    original rows of all sets; only the cosines against each set's own
    answers are per set. The cosine and its gradient are 0 where either
    vector has zero norm.
    """
    # [p; q_o]: the first two column blocks of each set's original row
    reps, acts = feedforward_forward(
        params.ff_ans, enc.inputs()[enc.originals, : 2 * params.hidden_dim]
    )
    units = unit_rows(reps)
    norms = np.linalg.norm(reps, axis=1)
    d_reps = np.zeros_like(reps)
    total = 0.0
    for s, prep in enumerate(preps):
        weights = prep.sim_weights.copy()
        weights[prep.cs.original_index] = 1.0
        cos = prep.a_units @ units[s]
        # d(1 - cos_j)/d(rep) = (cos_j unit - a_units_j) / |rep|, and 0 where rep = 0
        if norms[s] > 0.0:
            d_reps[s] = ((weights @ cos) * units[s] - weights @ prep.a_units) / norms[s]
        total += float(weights @ (1.0 - cos))
    enc.backprop_head(params.ff_ans, "ff_ans/", acts, d_reps, grads, rows=enc.originals)
    return total


def batch_loss_and_grads(
    params: NeuralParams,
    table: EmbeddingTable,
    batch: Sequence[PreparedCandidates],
    heads: Sequence[Callable],
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean over the batch of the heads' summed losses, with its gradient.

    The whole batch is one SetEncoding: one packed forward and one backward
    pass per encoder, whatever the heads, and each head's feedforward runs
    once over the stacked rows.
    """
    grads = zeros_like_tensors(params.tensors())
    enc = SetEncoding(params, table, batch, for_backward=True)
    total = sum(head(params, enc, batch, grads) for head in heads)
    enc.backward(grads)
    for name in grads:
        grads[name] /= len(batch)
    return total / len(batch), grads


class NeuralModel:
    """A NeuralParams model over an embedding table, named by its MODEL_PARTS entry.

    Subclasses supply prepare, loss_and_grads and rank_prepared, which encodes
    a list of prepared sets as one forward-only batch and returns one
    RankedList per set. A set's RankedList is bit-equal whatever batch it is
    ranked in (SetEncoding), so callers rank in chunks of batch_size sets
    (training.ranked_in_chunks) only to bound memory: one chunk holds its sets'
    token ids and rows per text and per candidate, never a row per token.
    rank_prepared(preps, memo) reuses and fills the encoding memo of a pass.

    prepare(cs, memo) prepares one set; calls that share a prepare memo
    tokenize, look up and average each distinct text once, and their sets
    share the resulting arrays, which nothing writes to.
    """

    def __init__(self, params: NeuralParams, table: EmbeddingTable):
        self.params = params
        self.table = table
        self.name = params.model

    def tensors(self) -> dict[str, np.ndarray]:
        return self.params.tensors()

    def _text(self, text: str, memo: dict, averaged: bool = False):
        """(token ids, avg_vector values) of text, made once per memo; values only if averaged."""
        key = (text, averaged)
        if key in memo:
            return memo[key]
        tokens = tokenize(text)
        avg = avg_vector(self.table, tokens).values if averaged else None
        return _remember(memo, key, (self.table.token_ids(tokens), avg))

    def _prepared(
        self, cs: CandidateSet, memo: dict, questions, answers, **head_inputs
    ) -> PreparedCandidates:
        """cs with the token ids of its post and of the _text results questions and answers."""
        return PreparedCandidates(
            cs=cs,
            post_tokens=self._text(cs.post_body, memo)[0],
            question_tokens=[ids for ids, _ in questions],
            answer_tokens=[ids for ids, _ in answers],
            **head_inputs,
        )


class EvpiModel(NeuralModel):
    """The joint answer and utility model: its loss with gradients, and prepared ranking."""

    def prepare(self, cs: CandidateSet, memo: dict | None = None) -> PreparedCandidates:
        memo = {} if memo is None else memo
        questions = [self._text(q, memo, averaged=True) for q in cs.questions]
        answers = [self._text(a, memo, averaged=True) for a in cs.answers]

        def units(texts):  # average vectors scaled to unit norm, one row per text
            return unit_rows(np.stack([avg for _, avg in texts]))

        q_units = units(questions)
        q_sims = np.maximum(np.einsum("ik,jk->ij", q_units, q_units), 0.0)
        return self._prepared(
            cs, memo, questions, answers,
            a_units=units(answers), q_sims=q_sims, sim_weights=q_sims[cs.original_index],
        )

    def loss_and_grads(
        self, batch: Sequence[PreparedCandidates]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean per-post joint loss (answer plus utility) and its gradient."""
        return batch_loss_and_grads(
            self.params, self.table, batch, (answer_losses, utility_losses)
        )

    def rank_prepared(
        self, preps: Sequence[PreparedCandidates], memo: dict | None = None
    ) -> list[RankedList]:
        """score_i = sum_j exp(-(1 - cos(F_ans(p, q_i), a_hat_j))) * q_sims[i, j] * U_j.

        F_ans and the utilities run once over the rows of all sets; the n x n
        answer probabilities are per set. Every product whose rows become
        per-candidate scores is batch-invariant, the heads' on the padded
        BLAS product (neural.PRODUCT_COLUMNS) and the others an einsum, so
        identical candidates get bit-identical scores.
        """
        params = self.params
        enc = SetEncoding(params, self.table, preps, memo=memo)
        # [p; q_i]: the first two column blocks
        reps = feedforward_forward(params.ff_ans, enc.inputs()[:, : 2 * params.hidden_dim])[0]
        ranked = []
        for prep, units, utils in zip(
            preps, enc.per_set(unit_rows(reps)), enc.per_set(bce_scores(params.ff_util, enc))
        ):
            probs = np.exp(np.einsum("ik,jk->ij", units, prep.a_units) - 1.0) * prep.q_sims
            ranked.append(rank_from_scores(prep.cs.post_id, expected_value(probs, utils)))
        return ranked


# ---------------------------------------------------------------------------
# Rankings file


def write_rankings(path: str | Path, model_name: str, ranked: Iterable[RankedList]) -> None:
    """One JSON line per list; a non-finite score raises ValueError before path is opened."""
    # model follows post_id; vars(rl) then rewrites post_id in place and adds the other fields
    records = ({"post_id": rl.post_id, "model": model_name, **vars(rl)} for rl in ranked)
    lines = [json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n" for record in records]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)


def _check_ranking(rl: RankedList) -> None:
    """An order must be a permutation with one finite score per entry, non-increasing along it."""
    where, n = f"post {rl.post_id!r}", len(rl.order)
    if sorted(rl.order) != list(range(n)):
        raise ValueError(f"{where}: order {rl.order} is not a permutation of range({n})")
    if len(rl.scores) != n:
        raise ValueError(f"{where}: {len(rl.scores)} scores for {n} entries")
    if not np.isfinite(rl.scores).all():
        raise ValueError(f"{where}: scores hold a non-finite value")
    if any(a < b for a, b in zip(rl.scores, rl.scores[1:])):
        raise ValueError(f"{where}: scores rise along order")


def read_rankings(path: str | Path) -> list[RankedList]:
    """Load rankings.jsonl: one line per post, each ranking consistent (_check_ranking)."""
    return read_jsonl(path, RankedList, _check_ranking)
