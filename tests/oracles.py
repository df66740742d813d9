"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written from the definitions, without reusing
the library's index structures or metric code, so the two paths can be
compared against each other. The EVPI reference path reuses only the layer
primitives (LSTM, feedforward, cos_sim) and expected_value, not the model's
shared encoding pass, its heads or its batched cosines.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Any, Iterable, Sequence

import numpy as np

from evpirank.embeddings import AvgVector, EmbeddingTable, avg_vector, cos_sim
from evpirank.evaluation import EvaluationError
from evpirank.evpi import BCE_CLAMP, NeuralParams, expected_value
from evpirank.neural import LstmParams, feedforward_forward, sigmoid
from evpirank.retrieval import CandidateSet, tokenize

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def brute_tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class BruteCorpus:
    """Precomputed term counts for scoring many queries over one corpus."""

    def __init__(self, docs: dict[str, str]):
        self.token_lists = {doc_id: brute_tokenize(text) for doc_id, text in docs.items()}
        self.counts = {doc_id: Counter(tokens) for doc_id, tokens in self.token_lists.items()}
        self.n_docs = len(docs)
        self.df: Counter = Counter()
        for counter in self.counts.values():
            for term in counter:
                self.df[term] += 1

    def score(self, query_tokens: list[str], doc_id: str) -> float:
        length = len(self.token_lists[doc_id])
        if length == 0:
            return 0.0
        total = 0.0
        for term in sorted(set(query_tokens)):
            tf = self.counts[doc_id].get(term, 0)
            if tf == 0:
                continue
            idf = 1.0 + math.log(self.n_docs / (self.df[term] + 1))
            total += math.sqrt(tf) * idf * idf / math.sqrt(length)
        return total

    def all_scores(self, query_tokens: list[str]) -> dict[str, float]:
        return {doc_id: self.score(query_tokens, doc_id) for doc_id in self.counts}


def brute_tfidf_scores(docs: dict[str, str], query_tokens: list[str]) -> dict[str, float]:
    """Score every document by looping over all (term, doc) pairs.

    score(q, d) = sum over distinct query terms t present in d of
        sqrt(count(t, d)) * (1 + ln(N / (df(t) + 1)))^2 / sqrt(len(d))
    """
    return BruteCorpus(docs).all_scores(query_tokens)


def brute_top_k(docs: dict[str, str], query_tokens: list[str], k: int) -> list[tuple[str, float]]:
    """Rank every document by brute-force score; ties by ascending doc id."""
    scores = brute_tfidf_scores(docs, query_tokens)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# Posting-at-a-time TF-IDF reference: the tuple-postings index and dict
# accumulator that retrieval.top_k replaced. top_k must return exactly its
# list, doc ids and float bits alike.


class DictIndex:
    """The tuple-postings inverted index: per term a (doc_id, tf) list sorted by doc_id."""

    def __init__(self, docs: Iterable[tuple[str, str]]):
        self.vocabulary: dict[str, int] = {}
        self.postings: dict[int, list[tuple[str, int]]] = {}
        self.doc_lengths: dict[str, int] = {}
        self.doc_count = 0
        counts_by_term: dict[int, dict[str, int]] = {}
        for doc_id, text in docs:
            tokens = brute_tokenize(text)
            self.doc_lengths[doc_id] = len(tokens)
            self.doc_count += 1
            for tok in tokens:
                term_id = self.vocabulary.setdefault(tok, len(self.vocabulary))
                per_doc = counts_by_term.setdefault(term_id, {})
                per_doc[doc_id] = per_doc.get(doc_id, 0) + 1
        for term_id, per_doc in counts_by_term.items():
            self.postings[term_id] = sorted(per_doc.items())


def _idf(index: DictIndex, term_id: int) -> float:
    df = len(index.postings.get(term_id, ()))
    return 1.0 + math.log(index.doc_count / (df + 1))


def dict_top_k(index: DictIndex, query_tokens: list[str], k: int = 10) -> list[tuple[str, float]]:
    """top_k with one dict accumulator, adding each posting's contribution in turn."""
    accum: dict[str, float] = {}
    for term in sorted(set(query_tokens)):
        term_id = index.vocabulary.get(term)
        if term_id is None:
            continue
        weight = _idf(index, term_id) ** 2
        for doc_id, tf in index.postings[term_id]:
            length = index.doc_lengths[doc_id]
            contrib = math.sqrt(tf) * weight / math.sqrt(length)
            accum[doc_id] = accum.get(doc_id, 0.0) + contrib
    ranked = sorted(accum.items(), key=lambda item: (-item[1], item[0]))
    if len(ranked) < k:
        pads = sorted(d for d in index.doc_lengths if d not in accum)
        ranked.extend((d, 0.0) for d in pads)
    return ranked[:k]


# ---------------------------------------------------------------------------
# Per-term TF-IDF reference: the layout build_index kept before its flat
# arrays (one postings, tfs and contributions array per term id), top_k's
# concatenation of a query's per-term arrays, save_index's per-term lines,
# and one candidate set per post with the post's text tokenized for its
# query. `candidates` must write exactly its sets and index file.


class PerTermIndex:
    """Per term id, one array each: the positions of the documents holding
    the term, its tf in each, and its contribution to each one's score."""

    def __init__(self, docs: Iterable[tuple[str, str]]):
        self.vocabulary: dict[str, int] = {}
        term_ids: dict[str, list[int]] = {}
        for doc_id, text in docs:
            term_ids[doc_id] = [
                self.vocabulary.setdefault(tok, len(self.vocabulary))
                for tok in brute_tokenize(text)
            ]
        self.doc_ids = sorted(term_ids)
        n = len(self.doc_ids)
        self.doc_lengths = np.array([len(term_ids[d]) for d in self.doc_ids], dtype=np.int64)
        terms = np.array([t for d in self.doc_ids for t in term_ids[d]], dtype=np.int64)
        doc_of = np.repeat(np.arange(n), self.doc_lengths)
        keys, tf_of = np.unique(terms * n + doc_of, return_counts=True)
        term_of, pos_of = np.divmod(keys, max(n, 1))
        dfs = np.bincount(term_of, minlength=len(self.vocabulary))
        idf_squared = np.array([(1.0 + math.log(n / (df + 1))) ** 2 for df in dfs.tolist()])
        contrib_of = np.sqrt(tf_of) * idf_squared[term_of] / np.sqrt(self.doc_lengths[pos_of])
        ends = np.cumsum(dfs).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        self.postings = [pos_of[a:b] for a, b in spans]
        self.tfs = [tf_of[a:b] for a, b in spans]
        self.contributions = [contrib_of[a:b] for a, b in spans]


def per_term_top_k(
    index: PerTermIndex, query_tokens: list[str], k: int = 10
) -> list[tuple[str, float]]:
    """One bincount over the query terms' arrays, concatenated in sorted-term order."""
    term_ids = [index.vocabulary[t] for t in sorted(set(query_tokens)) if t in index.vocabulary]
    n = len(index.doc_ids)
    if term_ids:
        docs = np.concatenate([index.postings[t] for t in term_ids])
        contributions = np.concatenate([index.contributions[t] for t in term_ids])
    else:
        docs, contributions = np.zeros(0, dtype=np.int64), np.zeros(0)
    scores = np.bincount(docs, weights=contributions, minlength=n)
    touched = np.zeros(n, dtype=bool)
    touched[docs] = True
    hit = np.flatnonzero(touched)
    ranked = hit[np.lexsort((hit, -scores[hit]))][:k]
    pads = np.flatnonzero(~touched)[: k - len(ranked)]
    return [(index.doc_ids[p], float(scores[p])) for p in ranked.tolist()] + [
        (index.doc_ids[p], 0.0) for p in pads.tolist()
    ]


def per_term_index_text(index: PerTermIndex) -> str:
    """index as an EVPIRANK-IDX v1 file: header, doc lengths, terms, one postings line per term."""
    lines = ["EVPIRANK-IDX v1", f"doc_count\t{len(index.doc_ids)}", f"docs\t{len(index.doc_ids)}"]
    lines += [f"{length}\t{d}" for length, d in zip(index.doc_lengths.tolist(), index.doc_ids)]
    lines.append(f"terms\t{len(index.vocabulary)}")
    lines += [f"{term_id}\t{term}" for term, term_id in index.vocabulary.items()]
    lines.append(f"postings\t{len(index.postings)}")
    for term_id, (docs, tfs) in enumerate(zip(index.postings, index.tfs)):
        pairs = ",".join(f"{d}:{tf}" for d, tf in zip(docs.tolist(), tfs.tolist()))
        lines.append(f"{term_id}\t{pairs}")
    return "\n".join(lines) + "\n"


def per_term_candidate_sets(triples: dict[str, Any], k: int) -> tuple[PerTermIndex, list[dict]]:
    """The index over each post's title and body, and each post's candidate set as a JSON object.

    Each post's text is tokenized again for its query. A post outside its
    own top k takes the k-th place.
    """
    texts = {
        post_id: f"{t.post_title} {t.post_body}" if t.post_title else t.post_body
        for post_id, t in triples.items()
    }
    index = PerTermIndex(sorted(texts.items()))
    sets = []
    for post_id in sorted(triples):
        ids = [doc_id for doc_id, _ in per_term_top_k(index, brute_tokenize(texts[post_id]), k)]
        if post_id not in ids:
            ids[-1] = post_id
        sets.append({
            "post_id": post_id,
            "post_body": texts[post_id],
            "questions": [triples[d].question for d in ids],
            "answers": [triples[d].answer for d in ids],
            "source_post_ids": ids,
            "original_index": ids.index(post_id),
        })
    return index, sets


def brute_precision_at_k(order: list[int], relevant: set[int], k: int) -> float:
    hits = 0
    for candidate in order[:k]:
        if candidate in relevant:
            hits += 1
    return hits / k


def brute_average_precision(order: list[int], relevant: set[int]) -> float:
    running = []
    seen = 0
    for position, candidate in enumerate(order):
        if candidate in relevant:
            seen += 1
            running.append(seen / (position + 1))
    return sum(running) / len(relevant)


def cohen_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """Chance-corrected agreement between two categorical label sequences."""
    if len(labels_a) != len(labels_b):
        raise EvaluationError("label sequences must have equal length")
    if not labels_a:
        raise EvaluationError("label sequences are empty")
    n = len(labels_a)
    observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    categories = set(labels_a) | set(labels_b)
    expected = 0.0
    for cat in categories:
        pa = sum(1 for a in labels_a if a == cat) / n
        pb = sum(1 for b in labels_b if b == cat) / n
        expected += pa * pb
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


# ---------------------------------------------------------------------------
# Per-gate LSTM reference: one (H x D) and one (H x H) matrix per gate, as a
# checkpoint stores them, with no stacked layout.


def per_gate_lstm_mean(gates: dict[str, np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Mean hidden state of the LSTM whose per-gate tensors are gates (W_i ... b_g)."""
    logistic = lambda z: 1.0 / (1.0 + np.exp(-z))
    hidden = gates["b_i"].shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    total = np.zeros(hidden)
    for x in xs:
        pre = {
            gate: gates[f"W_{gate}"] @ x + gates[f"U_{gate}"] @ h + gates[f"b_{gate}"]
            for gate in "ifog"
        }
        i, f, o = logistic(pre["i"]), logistic(pre["f"]), logistic(pre["o"])
        c = f * c + i * np.tanh(pre["g"])
        h = o * np.tanh(c)
        total += h
    return total / len(xs)


# ---------------------------------------------------------------------------
# Per-sequence LSTM reference: one sequence at a time with the stacked gates
# and one step loop per sequence; the packed batch of lstm_forward and
# lstm_backward is checked against it.


def sequence_lstm_forward(params: LstmParams, xs: np.ndarray):
    """(mean hidden state, cache) of one sequence xs (T, D); zeros and None when empty."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, params.input_dim)
    hidden = params.hidden_dim
    if len(xs) == 0:
        return np.zeros(hidden), None
    gates = xs @ params.W.T + params.b
    c_s = np.empty((len(xs), hidden))
    h_s = np.empty((len(xs), hidden))
    h_prev = np.zeros(hidden)
    c_prev = np.zeros(hidden)
    for t in range(len(xs)):
        z = gates[t]
        z += params.U @ h_prev
        z[: 3 * hidden] = sigmoid(z[: 3 * hidden])
        z[3 * hidden :] = np.tanh(z[3 * hidden :])
        i_t, f_t, o_t, g_t = z.reshape(4, hidden)
        c_prev = c_s[t] = f_t * c_prev + i_t * g_t
        h_prev = h_s[t] = o_t * np.tanh(c_prev)
    return h_s.mean(axis=0), (xs, gates, c_s, h_s)


def sequence_lstm_backward(params: LstmParams, cache, d_mean: np.ndarray) -> dict[str, np.ndarray]:
    """Per-gate gradients of d_mean . mean for one sequence's cache."""
    if cache is None:
        return LstmParams(*(np.zeros_like(a) for a in (params.W, params.U, params.b))).tensors()
    xs, gates, c_s, h_s = cache
    steps, hidden = h_s.shape
    i, f, o, g = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(c_s)
    c_prev = np.vstack([np.zeros(hidden), c_s[:-1]])
    local = np.hstack(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g**2)]
    )
    dc_dh = o * (1.0 - tanh_c**2)
    dpre = np.empty_like(gates)
    dh_shared = np.asarray(d_mean, dtype=np.float64) / steps
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        dh = dh_shared + dh_next
        dc = dh * dc_dh[t] + dc_next
        dpre[t] = local[t] * np.concatenate((dc, dc, dh, dc))
        dh_next = params.U.T @ dpre[t]
        dc_next = dc * f[t]
    grads = LstmParams(W=dpre.T @ xs, U=dpre[1:].T @ h_s[:-1], b=dpre.sum(axis=0))
    return grads.tensors()


def hstack_lstm_backward(params: LstmParams, cache, d_mean: np.ndarray) -> dict[str, np.ndarray]:
    """lstm_backward as it was before it filled dpre in place: one hstack per step.

    lstm_backward must return its gradients bit for bit.
    """
    hidden = params.hidden_dim
    sizes = cache.batch_sizes
    i, f, o, g = np.hsplit(cache.gates, 4)
    tanh_c = np.tanh(cache.c)
    first = sizes[0] if len(sizes) else 0
    prev = np.arange(first, len(cache.h)) - np.repeat(sizes[:-1], sizes[1:])
    c_prev = np.zeros_like(cache.c)
    c_prev[first:] = cache.c[prev]
    local = np.hstack(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g**2)]
    )
    dc_dh = o * (1.0 - tanh_c**2)
    dpre = np.empty_like(cache.gates)
    d_mean = np.asarray(d_mean, dtype=np.float64).reshape(len(cache.order), hidden)
    dh_shared = d_mean[cache.order] / np.maximum(cache.lengths[cache.order], 1)[:, None]
    dh_next = np.zeros_like(dh_shared)
    dc_next = np.zeros_like(dh_shared)
    hi = len(dpre)
    for live in sizes[::-1]:
        lo = hi - live
        dh = dh_shared[:live] + dh_next[:live]
        dc = dh * dc_dh[lo:hi] + dc_next[:live]
        dpre[lo:hi] = local[lo:hi] * np.hstack((dc, dc, dh, dc))
        dh_next[:live] = dpre[lo:hi] @ params.U
        dc_next[:live] = dc * f[lo:hi]
        hi = lo
    grads = LstmParams(W=dpre.T @ cache.xs, U=dpre[first:].T @ cache.h[prev], b=dpre.sum(axis=0))
    return grads.tensors()


# ---------------------------------------------------------------------------
# Per-set training reference: every set of a batch encoded, scored and
# backpropagated on its own, as training ran before a batch became one
# packed encoding. The packed loss_and_grads is checked against it.


def per_set_loss_and_grads(model, batch) -> tuple[float, dict[str, np.ndarray]]:
    """The mean over the batch of model.loss_and_grads on each set alone."""
    results = [model.loss_and_grads([prep]) for prep in batch]
    loss = sum(set_loss for set_loss, _ in results) / len(batch)
    grads = {
        name: sum(set_grads[name] for _, set_grads in results) / len(batch)
        for name in results[0][1]
    }
    return loss, grads


# ---------------------------------------------------------------------------
# Scalar EVPI reference path: every text encoded on its own, straight from
# the paper's formulas. The model path (EvpiModel) is tested against it.


def dist(rep: np.ndarray, a_hat: AvgVector | np.ndarray) -> float:
    """1 - cos_sim(rep, a_hat); lies in [0, 2]."""
    values = a_hat.values if isinstance(a_hat, AvgVector) else a_hat
    return 1.0 - cos_sim(rep, values)


def similarity_weight(q_hat_i: np.ndarray, q_hat_j: np.ndarray) -> float:
    """Question-similarity weight; negative similarities clamp to 0."""
    return max(0.0, cos_sim(q_hat_i, q_hat_j))


def encode_text(lstm: LstmParams, table: EmbeddingTable, text: str) -> np.ndarray:
    """Mean LSTM state over the vectors of text's in-vocabulary tokens, one at a time."""
    xs = [table.matrix[table.rows[tok]] for tok in brute_tokenize(text) if tok in table.rows]
    return sequence_lstm_forward(lstm, np.array(xs))[0]


def f_ans(params: NeuralParams, post_text: str, question_text: str, table: EmbeddingTable) -> np.ndarray:
    """Predicted answer representation in the embedding space."""
    p_bar = encode_text(params.lstm_post, table, post_text)
    q_bar = encode_text(params.lstm_question, table, question_text)
    out, _ = feedforward_forward(params.ff_ans, np.concatenate([p_bar, q_bar]))
    return out


def answer_prob(
    params: NeuralParams,
    post: str,
    q_i: str,
    a_j: str,
    q_j: str,
    table: EmbeddingTable,
) -> float:
    """Likelihood that a_j answers question q_i on the post.

    exp(-dist(f_ans(post, q_i), a_hat_j)) weighted by the similarity of q_i
    to the question q_j originally paired with a_j. Always in [0, 1].
    """
    rep = f_ans(params, post, q_i, table)
    a_hat = avg_vector(table, tokenize(a_j))
    q_hat_i = avg_vector(table, tokenize(q_i)).values
    q_hat_j = avg_vector(table, tokenize(q_j)).values
    weight = similarity_weight(q_hat_i, q_hat_j)
    return math.exp(-dist(rep, a_hat)) * weight


def loss_ans(
    params: NeuralParams,
    cs: CandidateSet,
    table: EmbeddingTable,
) -> float:
    """Answer-model loss for one post and its candidate set.

    Distance of the predicted representation to the original answer, plus the
    distances to the other candidates' answers weighted by how similar their
    questions are to the original question.
    """
    o = cs.original_index
    rep = f_ans(params, cs.post_body, cs.questions[o], table)
    a_hats = [avg_vector(table, tokenize(a)) for a in cs.answers]
    q_hats = [avg_vector(table, tokenize(q)).values for q in cs.questions]
    total = dist(rep, a_hats[o])
    for j in range(len(cs)):
        if j == o:
            continue
        weight = similarity_weight(q_hats[o], q_hats[j])
        total += dist(rep, a_hats[j]) * weight
    return total


def utility(
    params: NeuralParams, post: str, q_j: str, a_j: str, table: EmbeddingTable
) -> float:
    """sigma(F_util(post, question, answer)); how complete the updated post is."""
    p_bar = encode_text(params.lstm_post, table, post)
    q_bar = encode_text(params.lstm_question, table, q_j)
    a_bar = encode_text(params.lstm_answer, table, a_j)
    out, _ = feedforward_forward(params.ff_util, np.concatenate([p_bar, q_bar, a_bar]))
    return float(sigmoid(out[0]))


def loss_util(y: int, utility_value: float) -> float:
    """Binary cross-entropy with the probability clamped away from 0 and 1."""
    u = min(max(utility_value, BCE_CLAMP), 1.0 - BCE_CLAMP)
    return -(y * math.log(u) + (1 - y) * math.log(1.0 - u))


def joint_loss(
    params: NeuralParams,
    candidate_sets: Iterable[CandidateSet],
    table: EmbeddingTable,
) -> float:
    """Sum over posts of the answer loss plus all per-candidate utility losses."""
    total = 0.0
    for cs in candidate_sets:
        total += loss_ans(params, cs, table)
        for j in range(len(cs)):
            y = 1 if j == cs.original_index else 0
            total += loss_util(y, utility(params, cs.post_body, cs.questions[j], cs.answers[j], table))
    return total


def evpi_score(
    params: NeuralParams,
    post: str,
    q_i: str,
    cs: CandidateSet,
    table: EmbeddingTable,
) -> float:
    """Expected utility of asking q_i, summed over the candidate answer pool."""
    probs = [
        answer_prob(params, post, q_i, cs.answers[j], cs.questions[j], table)
        for j in range(len(cs))
    ]
    utils = [utility(params, post, cs.questions[j], cs.answers[j], table) for j in range(len(cs))]
    return expected_value(probs, utils)
