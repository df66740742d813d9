"""TF-IDF retrieval: tokenizer, inverted index, top-k search, candidate sets.

Given a post, the ten most similar posts are retrieved and their questions
and answers become the candidate pools Q and A. The post itself is indexed,
so its own question/answer pair is always among the candidates.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

INDEX_HEADER = "EVPIRANK-IDX v1"

# Unicode alphanumerics, underscore excluded.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class RetrievalError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character.

    Idempotent: re-tokenizing the space-joined output returns the same tokens.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Index:
    """Immutable inverted index over post documents.

    postings lists are sorted by doc_id; doc_lengths counts tokens per doc.
    """

    vocabulary: dict[str, int] = field(default_factory=dict)
    postings: dict[int, list[tuple[str, int]]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    doc_count: int = 0


def build_index(docs: Iterable[tuple[str, str]]) -> Index:
    """Index (doc_id, text) pairs. Duplicate doc ids are an error."""
    index = Index()
    counts_by_term: dict[int, dict[str, int]] = {}
    for doc_id, text in docs:
        if doc_id in index.doc_lengths:
            raise RetrievalError(f"duplicate doc_id: {doc_id!r}")
        if "\n" in doc_id or "\t" in doc_id:
            raise RetrievalError(f"doc_id may not contain tabs or newlines: {doc_id!r}")
        tokens = tokenize(text)
        index.doc_lengths[doc_id] = len(tokens)
        index.doc_count += 1
        for tok in tokens:
            term_id = index.vocabulary.setdefault(tok, len(index.vocabulary))
            per_doc = counts_by_term.setdefault(term_id, {})
            per_doc[doc_id] = per_doc.get(doc_id, 0) + 1
    for term_id, per_doc in counts_by_term.items():
        index.postings[term_id] = sorted(per_doc.items())
    return index


def _idf(index: Index, term_id: int) -> float:
    df = len(index.postings.get(term_id, ()))
    return 1.0 + math.log(index.doc_count / (df + 1))


def score(index: Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """Relevance of one document to the query.

    score = sum over distinct query terms t of
        sqrt(tf(t, doc)) * idf(t)^2 / sqrt(doc_length)
    with idf(t) = 1 + ln(N / (df(t) + 1)). Duplicate query tokens count once;
    terms absent from the document contribute 0.
    """
    if doc_id not in index.doc_lengths:
        raise KeyError(f"unknown doc_id: {doc_id!r}")
    length = index.doc_lengths[doc_id]
    if length == 0:
        return 0.0
    norm = 1.0 / math.sqrt(length)
    total = 0.0
    for term in sorted(set(query_tokens)):
        term_id = index.vocabulary.get(term)
        if term_id is None:
            continue
        tf = 0
        for posting_doc, posting_tf in index.postings[term_id]:
            if posting_doc == doc_id:
                tf = posting_tf
                break
        if tf == 0:
            continue
        total += math.sqrt(tf) * _idf(index, term_id) ** 2 * norm
    return total


def top_k(index: Index, query_tokens: Sequence[str], k: int = 10) -> list[tuple[str, float]]:
    """The k highest-scoring documents, score-descending.

    Ties break by ascending doc_id. If fewer than k documents score above
    zero, the remainder is padded with zero-score documents in ascending
    doc_id order; zero scores therefore mark padding.
    """
    if k < 1:
        raise RetrievalError("k must be >= 1")
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


@dataclass
class CandidateSet:
    """A post plus the questions/answers of its k most similar posts.

    questions[original_index] and answers[original_index] are the post's own
    pair; original_index is 0 whenever the post is its own best match.
    """

    post_id: str
    post_body: str
    questions: list[str]
    answers: list[str]
    source_post_ids: list[str]
    original_index: int

    def __len__(self) -> int:
        return len(self.questions)


def doc_text(title: str, body: str) -> str:
    """The retrievable text of a post: title and body concatenated."""
    return f"{title} {body}" if title else body


def generate_candidates(
    index: Index,
    triples_by_post: Mapping[str, Any],
    post_id: str,
    k: int = 10,
) -> CandidateSet:
    """Assemble the candidate set for one post.

    The index must have been built over the doc_text of exactly the posts in
    triples_by_post. Raises RetrievalError for posts without a triple or when
    the post does not appear among its own top-k matches.
    """
    triple = triples_by_post.get(post_id)
    if triple is None:
        raise RetrievalError(f"post has no triple: {post_id!r}")
    query = tokenize(doc_text(triple.post.title, triple.post.body))
    ranked = top_k(index, query, k)
    ids = [doc_id for doc_id, _ in ranked]
    if post_id not in ids:
        raise RetrievalError(f"post {post_id!r} is not among its own top-{k} matches")
    questions = [triples_by_post[d].question for d in ids]
    answers = [triples_by_post[d].answer for d in ids]
    return CandidateSet(
        post_id=post_id,
        post_body=doc_text(triple.post.title, triple.post.body),
        questions=questions,
        answers=answers,
        source_post_ids=ids,
        original_index=ids.index(post_id),
    )


def save_index(index: Index, path: str | Path) -> None:
    """Persist the index; round-trips exactly through load_index."""
    doc_ids = sorted(index.doc_lengths)
    doc_pos = {d: i for i, d in enumerate(doc_ids)}
    lines = [INDEX_HEADER, f"doc_count\t{index.doc_count}", f"docs\t{len(doc_ids)}"]
    for d in doc_ids:
        lines.append(f"{index.doc_lengths[d]}\t{d}")
    terms = sorted(index.vocabulary.items(), key=lambda item: item[1])
    lines.append(f"terms\t{len(terms)}")
    for term, term_id in terms:
        lines.append(f"{term_id}\t{term}")
    lines.append(f"postings\t{len(index.postings)}")
    for term_id in sorted(index.postings):
        pairs = ",".join(f"{doc_pos[d]}:{tf}" for d, tf in index.postings[term_id])
        lines.append(f"{term_id}\t{pairs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_index(path: str | Path) -> Index:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if not lines or lines[0] != INDEX_HEADER:
        raise RetrievalError(f"not an index file (missing {INDEX_HEADER!r} header)")
    pos = 1

    def expect(tag: str) -> str:
        nonlocal pos
        name, _, value = lines[pos].partition("\t")
        if name != tag:
            raise RetrievalError(f"index file line {pos + 1}: expected {tag!r}")
        pos += 1
        return value

    index = Index()
    index.doc_count = int(expect("doc_count"))
    n_docs = int(expect("docs"))
    doc_ids: list[str] = []
    for _ in range(n_docs):
        length, _, doc_id = lines[pos].partition("\t")
        index.doc_lengths[doc_id] = int(length)
        doc_ids.append(doc_id)
        pos += 1
    n_terms = int(expect("terms"))
    by_id: dict[int, str] = {}
    for _ in range(n_terms):
        term_id, _, term = lines[pos].partition("\t")
        by_id[int(term_id)] = term
        pos += 1
    for term_id in sorted(by_id):
        index.vocabulary[by_id[term_id]] = term_id
    n_postings = int(expect("postings"))
    for _ in range(n_postings):
        term_id, _, pairs = lines[pos].partition("\t")
        entries = []
        for pair in pairs.split(","):
            ref, _, tf = pair.partition(":")
            entries.append((doc_ids[int(ref)], int(tf)))
        index.postings[int(term_id)] = entries
        pos += 1
    return index


def write_candidates(path: str | Path, sets: Iterable[CandidateSet]) -> None:
    """Write candidates.jsonl: one JSON object per post, UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for cs in sets:
            record = {
                "post_id": cs.post_id,
                "post_body": cs.post_body,
                "questions": cs.questions,
                "answers": cs.answers,
                "source_post_ids": cs.source_post_ids,
                "original_index": cs.original_index,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path, build: Callable[[dict], Any], error=ValueError) -> list:
    """build(record) for each JSON object line of path; blank lines are skipped.

    A line that is not JSON, not an object, lacks a field build reads, or
    holds a value build rejects raises error naming the line.
    """
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("expected a JSON object")
                out.append(build(record))
            except KeyError as exc:
                raise error(f"line {lineno}: missing field {exc}") from None
            except (ValueError, TypeError) as exc:
                raise error(f"line {lineno}: {exc}") from None
    return out


def read_candidates(path: str | Path) -> list[CandidateSet]:
    return read_jsonl(
        path,
        lambda record: CandidateSet(
            post_id=record["post_id"],
            post_body=record["post_body"],
            questions=list(record["questions"]),
            answers=list(record["answers"]),
            source_post_ids=list(record["source_post_ids"]),
            original_index=int(record["original_index"]),
        ),
        RetrievalError,
    )
