"""TF-IDF retrieval: tokenizer, inverted index, top-k search, candidate sets.

Given a post, the ten most similar posts are retrieved and their questions
and answers become the candidate pools Q and A. The post itself is indexed,
so its own question/answer pair is always among the candidates.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

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

    Documents are numbered by their position in ascending doc_id order:
    doc_ids[pos] is the id and doc_lengths[pos] the token count. For each
    term id, postings[term_id] holds the positions of the documents that
    contain the term (ascending), tfs[term_id] the term's count in each, and
    contributions[term_id] the term's share of each document's score,
    sqrt(tf) * idf(t)^2 / sqrt(len(d)).
    """

    vocabulary: dict[str, int]
    doc_ids: list[str]
    doc_lengths: np.ndarray
    postings: list[np.ndarray]
    tfs: list[np.ndarray]
    contributions: list[np.ndarray]

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def build_index(docs: Iterable[tuple[str, str]]) -> Index:
    """Index (doc_id, text) pairs. Duplicate doc ids are an error.

    Term ids number the terms in order of first appearance in the input.
    """
    vocabulary: dict[str, int] = {}
    counts_by_doc: dict[str, dict[int, int]] = {}
    lengths: dict[str, int] = {}
    for doc_id, text in docs:
        if doc_id in counts_by_doc:
            raise RetrievalError(f"duplicate doc_id: {doc_id!r}")
        if "\n" in doc_id or "\t" in doc_id:
            raise RetrievalError(f"doc_id may not contain tabs or newlines: {doc_id!r}")
        tokens = tokenize(text)
        lengths[doc_id] = len(tokens)
        counts = counts_by_doc[doc_id] = {}
        for tok in tokens:
            term_id = vocabulary.setdefault(tok, len(vocabulary))
            counts[term_id] = counts.get(term_id, 0) + 1
    doc_ids = sorted(counts_by_doc)
    terms: list[int] = []
    positions: list[int] = []
    tfs: list[int] = []
    for pos, doc_id in enumerate(doc_ids):
        counts = counts_by_doc[doc_id]
        terms.extend(counts)
        positions.extend([pos] * len(counts))
        tfs.extend(counts.values())
    # A stable sort by term keeps each term's postings in ascending doc order.
    term_of = np.array(terms, dtype=np.int64)
    by_term = np.argsort(term_of, kind="stable")
    term_of = term_of[by_term]
    pos_of = np.array(positions, dtype=np.int64)[by_term]
    tf_of = np.array(tfs, dtype=np.int64)[by_term]
    doc_lengths = np.array([lengths[d] for d in doc_ids], dtype=np.int64)
    dfs = np.bincount(term_of, minlength=len(vocabulary))
    n = len(doc_ids)
    idf_squared = np.array([(1.0 + math.log(n / (df + 1))) ** 2 for df in dfs.tolist()])
    contrib_of = np.sqrt(tf_of) * idf_squared[term_of] / np.sqrt(doc_lengths[pos_of])
    ends = np.cumsum(dfs).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    return Index(
        vocabulary=vocabulary,
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        postings=[pos_of[a:b] for a, b in spans],
        tfs=[tf_of[a:b] for a, b in spans],
        contributions=[contrib_of[a:b] for a, b in spans],
    )


def top_k(index: Index, query_tokens: Sequence[str], k: int = 10) -> list[tuple[str, float]]:
    """The k highest-scoring documents, score-descending.

    score(d) = sum over distinct query terms t of
        sqrt(tf(t, d)) * idf(t)^2 / sqrt(len(d))
    with idf(t) = 1 + ln(N / (df(t) + 1)). Term-at-a-time: the terms'
    precomputed contributions are added into one accumulator per document in
    sorted-term order. Ties break by ascending doc_id. If fewer than k
    documents contain a query term, the remainder is padded with the other
    documents in ascending doc_id order at score 0.0; zero scores therefore
    mark padding.
    """
    if k < 1:
        raise RetrievalError("k must be >= 1")
    term_ids = [index.vocabulary[t] for t in sorted(set(query_tokens)) if t in index.vocabulary]
    n = index.doc_count
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
    text = doc_text(triple.post_title, triple.post_body)
    ranked = top_k(index, tokenize(text), k)
    ids = [doc_id for doc_id, _ in ranked]
    if post_id not in ids:
        raise RetrievalError(f"post {post_id!r} is not among its own top-{k} matches")
    questions = [triples_by_post[d].question for d in ids]
    answers = [triples_by_post[d].answer for d in ids]
    return CandidateSet(
        post_id=post_id,
        post_body=text,
        questions=questions,
        answers=answers,
        source_post_ids=ids,
        original_index=ids.index(post_id),
    )


def save_index(index: Index, path: str | Path) -> None:
    """Write the index as EVPIRANK-IDX v1 text: doc lengths, terms, postings."""
    lines = [INDEX_HEADER, f"doc_count\t{index.doc_count}", f"docs\t{index.doc_count}"]
    for length, d in zip(index.doc_lengths.tolist(), index.doc_ids):
        lines.append(f"{length}\t{d}")
    lines.append(f"terms\t{len(index.vocabulary)}")
    for term, term_id in sorted(index.vocabulary.items(), key=lambda item: item[1]):
        lines.append(f"{term_id}\t{term}")
    lines.append(f"postings\t{len(index.postings)}")
    for term_id, (docs, tfs) in enumerate(zip(index.postings, index.tfs)):
        pairs = ",".join(f"{d}:{tf}" for d, tf in zip(docs.tolist(), tfs.tolist()))
        lines.append(f"{term_id}\t{pairs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_candidates(path: str | Path, sets: Iterable[CandidateSet]) -> None:
    """Write candidates.jsonl: one JSON object per post, UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for cs in sets:
            # vars, not asdict: the fields in declared order, the lists uncopied
            handle.write(json.dumps(vars(cs), ensure_ascii=False) + "\n")


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
            except (ValueError, TypeError, OverflowError) as exc:
                raise error(f"line {lineno}: {exc}") from None
    return out


def json_isinstance(value: Any, kinds: type | tuple[type, ...]) -> bool:
    """isinstance for parsed JSON, where a bool is no number and a lone surrogate no string.

    true and false load as bools, which Python counts as ints. A \\ud800 to
    \\udfff escape without its pair loads as a str that no UTF-8 file can
    hold, so a command would fail when it writes or hashes it.
    """
    if isinstance(value, str) and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
    return isinstance(value, kinds) and not isinstance(value, bool)


# The JSON types a reader asks for, named for its errors: (a value, a list's items).
JSON_TYPE_NAMES = {
    str: ("a string", "strings"),
    int: ("an integer", "integers"),
    (int, float): ("a number", "numbers"),
}


def typed_field(record: dict, key: str, kinds: type | tuple[type, ...]) -> Any:
    """record[key], which must be of one of the JSON_TYPE_NAMES kinds."""
    if not json_isinstance(record[key], kinds):
        raise TypeError(f"{key} must be {JSON_TYPE_NAMES[kinds][0]}")
    return record[key]


def typed_fields(record: dict, kinds: Mapping[str, type]) -> dict:
    """typed_field of each name in kinds, e.g. a record type's get_type_hints, in its order."""
    return {name: typed_field(record, name, kind) for name, kind in kinds.items()}


def list_field(record: dict, key: str, kinds: type | tuple[type, ...]) -> list:
    """record[key], which must be a JSON list of one of the JSON_TYPE_NAMES kinds."""
    value = record[key]
    if not isinstance(value, list) or not all(json_isinstance(v, kinds) for v in value):
        raise TypeError(f"{key} must be a list of {JSON_TYPE_NAMES[kinds][1]}")
    return value


def read_candidates(path: str | Path) -> list[CandidateSet]:
    """Load candidates.jsonl; a set's three lists must be equally long and hold original_index.

    A post id may appear on one line only.
    """
    seen: set[str] = set()

    def build(record: dict) -> CandidateSet:
        cs = CandidateSet(
            post_id=typed_field(record, "post_id", str),
            post_body=typed_field(record, "post_body", str),
            questions=list_field(record, "questions", str),
            answers=list_field(record, "answers", str),
            source_post_ids=list_field(record, "source_post_ids", str),
            original_index=typed_field(record, "original_index", int),
        )
        where, n = f"post {cs.post_id!r}", len(cs)
        if cs.post_id in seen:
            raise ValueError(f"{where}: already appears on an earlier line")
        seen.add(cs.post_id)
        if not n == len(cs.answers) == len(cs.source_post_ids):
            raise ValueError(
                f"{where}: {n} questions, {len(cs.answers)} answers and "
                f"{len(cs.source_post_ids)} source_post_ids"
            )
        if cs.original_index not in range(n):
            raise ValueError(f"{where}: original_index {cs.original_index} is not in range({n})")
        return cs

    return read_jsonl(path, build, RetrievalError)
