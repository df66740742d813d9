"""Seeded input generators for the evpirank benchmark.

Every generator takes the workload seed and writes plain input files; the
program under test only ever sees those files. Nothing here imports
evpirank, so a change to the program cannot change its own inputs. The
seed sets content (words, vectors, weights); sizes and mixes (lengths,
ingest outcomes, original indices) come from a fixed stream, so runs with
different seeds do equal work.

Why each workload exists, and which traffic properties it varies:

- prep: a forum dump (posts, comments, edit history) plus a ~10k-word,
  200-d embeddings file goes through `ingest` and `candidates`. It is the
  only workload where ingestion and TF-IDF retrieval do work and the
  neural layer is idle. Varies corpus size (posts in the dump), vocabulary
  skew (Zipfian word ranks, so common query terms have long postings
  lists), post length (tens to a few hundred tokens) and OOV share (words
  missing from the embeddings file plus per-post identifiers). It covers
  every ingest branch and records the diagnostics `ingest` must print.
- train: the clustered corpus of acceptance criterion 5 (50 posts in five
  question/answer families, 24-d embeddings), written as candidate sets.
  Sequences are short and nearly equal in length, so LSTM forward,
  backward and Adam dominate; retrieval is idle.
- rank: synthetic candidate sets (k = 10, posts of 40-200 tokens, a wide
  spread of question and answer lengths, ~10k words of 200-d embeddings)
  and seeded checkpoints at the default hidden size 100. Inference only,
  over long and ragged sequences; backward, Adam and retrieval are idle.

No measured forum statistics back the length and mix parameters below.
Each is an assumption, marked "Assumption" with the reason for its value;
README.md lists them in one table.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EMBED_WORDS = 10_000
EMBED_DIM = 200
VOCAB_SIZE = 11_000  # ranks EMBED_WORDS..VOCAB_SIZE-1 are out of vocabulary
# Assumption: Zipf's law puts word-frequency exponents near 1. 1.1 is chosen,
# not fitted; it gives common query terms long postings lists.
ZIPF_EXPONENT = 1.1

# Token lengths as (median, sigma, min, max) of a clamped lognormal, or as an
# inclusive uniform range. Assumptions: text lengths are right-skewed, and
# the ranges follow the qualitative sizes each workload is meant to have.
# prep bodies: "tens to a few hundred tokens"; 5th-95th percentile 25-253.
PREP_BODY_TOKENS = (80, 0.7, 20, 320)
# rank posts: uniform over the 40-200 tokens the workload asks for.
RANK_POST_TOKENS = (40, 200)
# rank questions are one short sentence (5th-95th percentile 3-37 tokens);
# answers, edits or comments, run longer (4-79). The wide clamps keep a
# few long outliers, so padding waste in a batched kernel shows.
RANK_QUESTION_TOKENS = (10, 0.8, 2, 60)
RANK_ANSWER_TOKENS = (18, 0.9, 1, 120)
# Assumption: `candidates` puts a post first whenever it is its own best
# match, so most sets have original_index 0; the rest keep the other case in
# use. Ranking cost does not depend on the index.
RANK_ORIGINAL_FIRST = 0.75

PREP_POSTS = 900
RANK_POSTS = 28
RANK_HIDDEN = 100
TRAIN_POSTS = 50
TRAIN_FAMILIES = 5
TRAIN_DIM = 24

_CONSONANTS = "bcdfghjklmnprstvwxz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


def _shape_rng(name: str) -> np.random.Generator:
    """The stream for sizes and mixes: lengths, ingest outcomes, original indices.

    It ignores the seed, so runs with different seeds do equal work and
    differ only in content (which words, vectors and weights).
    """
    return _rng(0, f"{name}-shape")


def _length(rng: np.random.Generator, median: float, sigma: float, lo: int, hi: int) -> int:
    return int(min(hi, max(lo, round(rng.lognormal(math.log(median), sigma)))))


def vocabulary() -> list[str]:
    """VOCAB_SIZE distinct pronounceable words, identical for every seed."""
    n = len(_SYLLABLES)
    words = []
    for i in range(VOCAB_SIZE):
        a, b, c = i % n, (i // n) % n, i // (n * n)
        words.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c] + "n")
    return words


class ZipfText:
    """Samples words by Zipfian rank from the shared vocabulary."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.words = vocabulary()
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        weights = ranks**-ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def sample(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        idx = np.minimum(idx, VOCAB_SIZE - 1)
        return [self.words[i] for i in idx]

    def text(self, n: int) -> str:
        return " ".join(self.sample(n))


def write_embeddings(path: Path, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Write EMBED_WORDS vectors of EMBED_DIM; return them as parsed.

    Values are rounded to four decimals, so the returned doubles equal what
    a float() parse of the file gives.
    """
    words = vocabulary()[:EMBED_WORDS]
    values = np.rint(rng.normal(scale=0.5, size=(EMBED_WORDS, EMBED_DIM)) * 1e4) / 1e4
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for word, row in zip(words, values):
            handle.write(word + " " + " ".join("%.4f" % v for v in row.tolist()) + "\n")
    return dict(zip(words, values))


def _jsonl(path: Path, records: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(record if isinstance(record, str) else json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# prep: forum dump

# Share of posts per ingest outcome. "short_edit" has a question and only an
# edit adding fewer than five tokens, so it ends as no_answer too.
# Assumption, not a measured forum mix: every skip branch gets at least 4%
# (36 of 900 posts) so each diagnostic counter is exercised, and about 72%
# of posts yield triples, which set the work of the candidates stage.
PREP_KINDS = {
    "edit": 0.26,
    "comment": 0.26,
    "both": 0.20,
    "no_question": 0.08,
    "rhetorical": 0.07,
    "no_answer": 0.05,
    "short_edit": 0.04,
    "bad_time": 0.04,
}
RHETORICAL = ("have you tried", "why not", "have you considered", "can't you just")
QUESTION_OPENERS = ("which", "what", "does the", "how do you", "is the", "where is")


def make_prep(seed: int, out: Path) -> dict:
    """Write posts/comments/history JSONL and embeddings; return expected diagnostics."""
    rng = _rng(seed, "prep")
    shape = _shape_rng("prep")
    text = ZipfText(rng)
    posts, comments, edits = [], [], []
    counts = dict.fromkeys(
        ("triples_out", "no_question", "rhetorical", "no_answer", "invariant_violation"), 0
    )
    kinds = list(PREP_KINDS)
    probs = np.array([PREP_KINDS[k] for k in kinds])
    # Assumption: titles, chatter, questions, answers and edits take the
    # short uniform token ranges below. They are sized for branch coverage;
    # post bodies carry most of the text that ingest and retrieval handle.
    for i in range(PREP_POSTS):
        pid, author, t0 = f"p{i:05d}", f"u{i:05d}", 1_000_000 + 1000 * i
        length = _length(shape, *PREP_BODY_TOKENS)
        n_ids = max(2, length // 12)
        # Per-post identifiers (error codes, package names): rare terms that
        # make a post retrieve itself, and out of the embeddings vocabulary.
        # Assumption: one per 12 words, so a post's own identifiers outweigh
        # its common words and it is its own best match.
        body_words = text.sample(length) + [f"id{i}k{j}" for j in range(n_ids)]
        order = rng.permutation(len(body_words))
        body = " ".join(body_words[j] for j in order)
        title = text.text(int(shape.integers(4, 10)))
        posts.append({"post_id": pid, "author_id": author, "title": title,
                      "body": body, "created_at": t0})
        cid = 0

        def comment(who, words, at):
            nonlocal cid
            comments.append({"comment_id": f"c{i:05d}x{cid}", "post_id": pid,
                             "author_id": who, "text": words, "created_at": at})
            cid += 1

        for _ in range(int(shape.integers(0, 3))):  # chatter without a question
            comment(f"v{int(shape.integers(0, 999))}", text.text(int(shape.integers(3, 15))),
                    t0 + int(shape.integers(1, 9)))
        kind = kinds[int(shape.choice(len(kinds), p=probs))]
        if kind == "no_question":
            counts["no_question"] += 1
            continue
        opener = RHETORICAL if kind == "rhetorical" else QUESTION_OPENERS
        question = (opener[int(shape.integers(0, len(opener)))] + " "
                    + text.text(int(shape.integers(2, 12))) + "?")
        q_time = t0 - 5 if kind == "bad_time" else t0 + 10
        comment(f"q{i:05d}", question + " " + text.text(int(shape.integers(0, 6))), q_time)
        if kind == "rhetorical":
            counts["rhetorical"] += 1
            continue
        body_tokens = set(body.split())
        if kind in ("edit", "both"):
            if shape.random() < 0.3:  # an early edit exercises the diff chain
                body = body + " " + text.text(2)
                edits.append({"edit_id": f"e{i:05d}a", "post_id": pid, "author_id": author,
                              "new_body": body, "created_at": t0 + 2})
                body_tokens = set(body.split())
            added = [w for w in text.sample(int(shape.integers(6, 30))) if w not in body_tokens]
            added += [f"fix{i}w{j}" for j in range(max(0, 5 - len(added)))]
            edits.append({"edit_id": f"e{i:05d}b", "post_id": pid, "author_id": author,
                          "new_body": body + " " + " ".join(added), "created_at": t0 + 30})
        if kind == "short_edit":
            added = [f"tiny{i}w{j}" for j in range(3)]
            edits.append({"edit_id": f"e{i:05d}b", "post_id": pid, "author_id": author,
                          "new_body": body + " " + " ".join(added), "created_at": t0 + 30})
        if kind in ("comment", "both", "bad_time"):
            comment(author, text.text(int(shape.integers(3, 40))), t0 + 20)
        if kind in ("no_answer", "short_edit"):
            counts["no_answer"] += 1
        elif kind == "bad_time":
            counts["invariant_violation"] += 1
        else:
            counts["triples_out"] += 1

    orphans = 0
    for j in range(int(shape.integers(3, 8))):
        comments.append({"comment_id": f"co{j}", "post_id": f"gone{j}", "author_id": "u0",
                         "text": "what is this?", "created_at": 5})
        edits.append({"edit_id": f"eo{j}", "post_id": f"gone{j}", "author_id": "u0",
                      "new_body": "a b c d e f", "created_at": 5})
        orphans += 2
    bad_posts = [
        "{not json\n",
        json.dumps({"post_id": "bad1", "author_id": "u", "title": "t", "body": "b",
                    "created_at": "yesterday"}) + "\n",
        json.dumps({"post_id": "bad2", "author_id": "u", "title": "t", "body": "b",
                    "created_at": 0}) + "\n",
        "[1, 2, 3]\n",
    ]
    bad_comments = ["{\"comment_id\": \"cx\"\n", json.dumps({"comment_id": "cy"}) + "\n"]
    bad_edits = ["\"just a string\"\n"]
    # Shuffle all records so files are not sorted by post or time.
    posts += bad_posts
    comments += bad_comments
    edits += bad_edits
    for records in (posts, comments, edits):
        order = rng.permutation(len(records))
        records[:] = [records[j] for j in order]
    _jsonl(out / "posts.jsonl", posts)
    _jsonl(out / "comments.jsonl", comments)
    _jsonl(out / "history.jsonl", edits)
    write_embeddings(out / "embeddings.txt", _rng(seed, "prep-embeddings"))
    return {
        "posts_in": PREP_POSTS,
        "triples_out": counts["triples_out"],
        "skipped": {k: counts[k] for k in
                    ("no_question", "rhetorical", "no_answer", "invariant_violation")},
        "malformed_lines": {"posts": len(bad_posts), "comments": len(bad_comments),
                            "history": len(bad_edits)},
        "orphan_records": orphans,
    }


# ---------------------------------------------------------------------------
# train: the acceptance-criterion-5 clustered corpus


def make_train(seed: int, out: Path) -> int:
    """Write the clustered corpus as candidates.jsonl + embeddings.txt.

    The construction and the random draws mirror the clustered corpus of the
    acceptance tests (families of posts sharing topic words; each post owns
    two code tokens that reappear in its question and answer). Within a
    family all other posts tie under TF-IDF, so each candidate set is the
    post itself followed by its family in ascending post-id order. Returns
    the number of candidate sets.
    """
    rng = np.random.default_rng(seed)
    per_family = TRAIN_POSTS // TRAIN_FAMILIES
    words: list[str] = []
    for f in range(TRAIN_FAMILIES):
        words += [f"code{f}x{k}" for k in range(2 * per_family)]
        words += [f"topic{f}x{k}" for k in range(3)] + [f"qword{f}", f"aword{f}"]
    words += ["which", "value", "runs"]
    vectors = {w: rng.normal(size=TRAIN_DIM) * 4.0 for w in words}
    with open(out / "embeddings.txt", "w", encoding="utf-8", newline="\n") as handle:
        for word, vec in vectors.items():
            handle.write(word + " " + " ".join(repr(v) for v in vec.tolist()) + "\n")

    triples = {}
    for i in range(TRAIN_POSTS):
        family, slot = i % TRAIN_FAMILIES, i // TRAIN_FAMILIES
        code_a, code_b = f"code{family}x{2 * slot}", f"code{family}x{2 * slot + 1}"
        body_words = [f"topic{family}x{k}" for k in range(3)] + [
            code_a, code_a, code_b, code_b, "runs"]
        perm = rng.permutation(len(body_words))
        body = " ".join(body_words[j] for j in perm)
        triples[f"s{i:03d}"] = (
            family,
            f"topic{family}x0 issue {body}",
            f"which {code_a} {code_b} qword{family}?",
            f"{code_a} {code_b} value aword{family}",
        )
    records = []
    for post_id in sorted(triples):
        family, text, _, _ = triples[post_id]
        ids = [post_id] + sorted(p for p in triples if p != post_id and triples[p][0] == family)
        records.append({
            "post_id": post_id,
            "post_body": text,
            "questions": [triples[p][2] for p in ids],
            "answers": [triples[p][3] for p in ids],
            "source_post_ids": ids,
            "original_index": 0,
        })
    _jsonl(out / "candidates.jsonl", records)
    return len(records)


# ---------------------------------------------------------------------------
# rank: realistic candidate sets and seeded checkpoints


def _lstm_tensors(rng, prefix: str, d: int, h: int) -> dict:
    out = {}
    for kind, cols in (("W", d), ("U", h)):
        for gate in "ifog":
            out[f"{prefix}{kind}_{gate}"] = rng.uniform(-0.08, 0.08, size=(h, cols))
    for gate in "ifog":
        out[f"{prefix}b_{gate}"] = (np.ones(h) if gate == "f" else np.zeros(h))
    return out


def _ff_tensors(rng, prefix: str, dims: list[int]) -> dict:
    out = {}
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = 5.0 / 3.0 * math.sqrt(6.0 / (fan_in + fan_out))
        out[f"{prefix}W{layer}"] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        out[f"{prefix}b{layer}"] = rng.normal(scale=0.05, size=fan_out)
    return out


def evpi_tensors(rng, d: int, h: int) -> dict:
    out = {}
    for enc in ("post", "question", "answer"):
        out.update(_lstm_tensors(rng, f"lstm_{enc}/", d, h))
    out.update(_ff_tensors(rng, "ff_ans/", [2 * h] + [h] * 5 + [d]))
    out.update(_ff_tensors(rng, "ff_util/", [3 * h] + [h] * 5 + [1]))
    return out


def pqa_tensors(rng, d: int, h: int) -> dict:
    out = {}
    for enc in ("post", "question", "answer"):
        out.update(_lstm_tensors(rng, f"lstm_{enc}/", d, h))
    out.update(_ff_tensors(rng, "ff/", [3 * h] + [h] * 10 + [1]))
    return out


def write_checkpoint(path: Path, tensors: dict) -> None:
    """EVPIRANK-CKPT v1: a text manifest, then little-endian doubles."""
    lines = ["EVPIRANK-CKPT v1", str(len(tensors))]
    for name, arr in tensors.items():
        lines.append(f"{name} {arr.ndim} " + " ".join(str(n) for n in arr.shape))
    lines.append("data")
    with open(path, "wb") as handle:
        handle.write(("\n".join(lines) + "\n").encode("utf-8"))
        for arr in tensors.values():
            handle.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def make_rank(seed: int, out: Path):
    """Write candidates, embeddings and two checkpoints.

    Returns (candidate records, embedding vectors, evpi tensors, pqa
    tensors) for the reference scorer.
    """
    shape = _shape_rng("rank")
    text = ZipfText(_rng(seed, "rank"))
    records = []
    for i in range(RANK_POSTS):
        ids = [f"r{i:04d}c{j}" for j in range(10)]
        original = 0 if shape.random() < RANK_ORIGINAL_FIRST else int(shape.integers(1, 10))
        ids[original] = f"r{i:04d}"
        records.append({
            "post_id": f"r{i:04d}",
            "post_body": text.text(int(shape.integers(RANK_POST_TOKENS[0],
                                                      RANK_POST_TOKENS[1] + 1))),
            "questions": [text.text(_length(shape, *RANK_QUESTION_TOKENS)) + "?"
                          for _ in range(10)],
            "answers": [text.text(_length(shape, *RANK_ANSWER_TOKENS)) for _ in range(10)],
            "source_post_ids": ids,
            "original_index": original,
        })
    _jsonl(out / "candidates.jsonl", records)
    vectors = write_embeddings(out / "embeddings.txt", _rng(seed, "rank-embeddings"))
    model_rng = _rng(seed, "rank-models")
    evpi = evpi_tensors(model_rng, EMBED_DIM, RANK_HIDDEN)
    pqa = pqa_tensors(model_rng, EMBED_DIM, RANK_HIDDEN)
    write_checkpoint(out / "evpi.ckpt", evpi)
    write_checkpoint(out / "pqa.ckpt", pqa)
    return records, vectors, evpi, pqa
