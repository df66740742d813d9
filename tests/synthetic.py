"""Seeded synthetic corpora for property and acceptance tests, and LSTM runs over float rows."""

from __future__ import annotations

import numpy as np

import types

from evpirank.embeddings import EmbeddingTable
from evpirank.evpi import NeuralParams
from evpirank.ingest import Triple
from evpirank.neural import LstmParams, lstm_forward
from evpirank.retrieval import CandidateSet, candidate_sets


def forward_rows(params: LstmParams, xs, lengths, for_backward: bool = True):
    """lstm_forward over the float rows xs (N, input_dim), which token ids 0..N-1 name."""
    xs = np.asarray(xs, dtype=np.float64)
    return lstm_forward(params, np.arange(len(xs)), lengths, xs.__getitem__, for_backward)


def zero_params(model: str, embed_dim: int, hidden_dim: int) -> NeuralParams:
    """model's parameters with every weight 0, for assign_tensors to load a checkpoint into."""
    zeros = types.SimpleNamespace(uniform=lambda low, high, size: np.zeros(size))
    return NeuralParams.init(model, embed_dim, hidden_dim, zeros)


def table_of(vectors: dict) -> EmbeddingTable:
    """The table of a word -> vector dict, in its order; vectors may be lists."""
    return EmbeddingTable.of(list(vectors), np.array(list(vectors.values()), dtype=np.float64))


def make_embedding_table(words: list[str], dim: int, rng: np.random.Generator) -> EmbeddingTable:
    return table_of({word: rng.normal(size=dim) for word in words})


def make_retrieval_corpus(n_posts: int, rng: np.random.Generator) -> dict[str, str]:
    """Posts with shared vocabulary plus two unique tokens each.

    The unique tokens keep every post distinguishable so self-retrieval has
    a clear winner.
    """
    shared = [f"term{k}" for k in range(300)]
    docs = {}
    for i in range(n_posts):
        n_shared = int(rng.integers(8, 20))
        words = [shared[int(rng.integers(0, len(shared)))] for _ in range(n_shared)]
        words += [f"uid{i}a", f"uid{i}b"]
        docs[f"post{i:05d}"] = " ".join(words)
    return docs


def make_clustered_corpus(
    n_posts: int = 50,
    n_families: int = 5,
    dim: int = 24,
    seed: int = 0,
) -> tuple[EmbeddingTable, list[CandidateSet]]:
    """A small corpus of posts in question/answer families.

    Posts in the same family share topic words, so TF-IDF retrieval fills
    each candidate set with the post's own family; family questions share a
    family question word, giving the candidate questions the clustered
    structure the answer loss weights by. Within a family every post gets a
    disjoint pair of code tokens that reappear in its own question and
    answer, so the original pair is identifiable from token overlap alone.
    Candidate sets are built through the real index, k = 10.
    """
    rng = np.random.default_rng(seed)
    posts_per_family = n_posts // n_families
    words: list[str] = []
    for f in range(n_families):
        words += [f"code{f}x{k}" for k in range(2 * posts_per_family)]
        words += [f"topic{f}x{k}" for k in range(3)] + [f"qword{f}", f"aword{f}"]
    words += ["which", "value", "runs"]
    # Large embeddings keep token identity loud in the mean-pooled encodings.
    table = make_embedding_table(words, dim, rng)
    table.matrix *= 4.0

    triples = {}
    for i in range(n_posts):
        family = i % n_families
        slot = i // n_families
        code_a, code_b = f"code{family}x{2 * slot}", f"code{family}x{2 * slot + 1}"
        body_words = (
            [f"topic{family}x{k}" for k in range(3)]
            + [code_a, code_a, code_b, code_b, "runs"]
        )
        perm = rng.permutation(len(body_words))
        body = " ".join(body_words[j] for j in perm)
        question = f"which {code_a} {code_b} {f'qword{family}'}?"
        answer = f"{code_a} {code_b} value {f'aword{family}'}"
        post_id = f"s{i:03d}"
        triples[post_id] = Triple(
            post_id=post_id, post_title=f"topic{family}x0 issue", post_body=body,
            question=question, question_time=1010, answer=answer, answer_source="comment",
        )
    _, sets = candidate_sets(triples, k=10)
    return table, sets


def random_p_at_1(sets: list[CandidateSet], n_seeds: int) -> float:
    """Mean original-mode p@1 of random_rankings over seeds 0..n_seeds-1, as `evaluate` scores it."""
    from evpirank.baselines import random_rankings
    from evpirank.evaluation import evaluate

    total = sum(
        evaluate(random_rankings(sets, seed=seed), None, sets, "original").p_at_1
        for seed in range(n_seeds)
    )
    return total / n_seeds


def make_random_rankings_fixture(
    n_posts: int, n_candidates: int = 10
) -> tuple[list[CandidateSet], list]:
    """Minimal candidate sets plus original-only label sets for metric tests."""
    from evpirank.evaluation import LabelSet

    sets = []
    labels = []
    for i in range(n_posts):
        post_id = f"e{i:04d}"
        sets.append(
            CandidateSet(
                post_id=post_id,
                post_body=f"body {i}",
                questions=[f"q{j}?" for j in range(n_candidates)],
                answers=[f"a{j}" for j in range(n_candidates)],
                source_post_ids=[f"src{j}" for j in range(n_candidates)],
                original_index=0,
            )
        )
        labels.append(LabelSet(post_id=post_id, relevant={0}))
    return sets, labels
