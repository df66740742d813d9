"""TF-IDF retrieval: tokenizer, inverted index, top-k search, candidate sets.

Given a post, the ten most similar posts are retrieved and their questions
and answers become the candidate pools Q and A. The post itself is indexed,
so its own question/answer pair is always among the candidates.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints

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
    term_ids: dict[str, list[int]] = {}
    for doc_id, text in docs:
        if doc_id in term_ids:
            raise RetrievalError(f"duplicate doc_id: {doc_id!r}")
        if "\n" in doc_id or "\t" in doc_id:
            raise RetrievalError(f"doc_id may not contain tabs or newlines: {doc_id!r}")
        term_ids[doc_id] = [vocabulary.setdefault(tok, len(vocabulary)) for tok in tokenize(text)]
    doc_ids = sorted(term_ids)
    n = len(doc_ids)
    doc_lengths = np.array([len(term_ids[d]) for d in doc_ids], dtype=np.int64)
    terms = np.array([t for d in doc_ids for t in term_ids[d]], dtype=np.int64)
    # One key per token, term-major: the sorted distinct keys are the postings
    # in term order, then doc order, and each key's count is its tf.
    keys, tf_of = np.unique(terms * n + np.repeat(np.arange(n), doc_lengths), return_counts=True)
    term_of, pos_of = np.divmod(keys, max(n, 1))
    dfs = np.bincount(term_of, minlength=len(vocabulary))
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
    if len(hit) > k:  # only the documents scoring at least the k-th best can rank
        hit_scores = scores[hit]
        hit = hit[hit_scores >= np.partition(hit_scores, len(hit) - k)[len(hit) - k]]
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
    triples_by_post. Raises RetrievalError for posts without a triple. A post
    that is not among its own top-k matches (it ties with k or more other
    posts, or has no token to match) takes the place of the k-th match.
    """
    triple = triples_by_post.get(post_id)
    if triple is None:
        raise RetrievalError(f"post has no triple: {post_id!r}")
    text = doc_text(triple.post_title, triple.post_body)
    ranked = top_k(index, tokenize(text), k)
    ids = [doc_id for doc_id, _ in ranked]
    if post_id not in ids:
        ids[-1] = post_id
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


def post_key(record) -> str:
    """How errors name a record of a file that holds each post once."""
    return f"post {record.post_id!r}:"


def jsonl_record(line: bytes, record_type: type):
    """record_type(**typed_fields(...)) of one JSONL line, or None for a blank line.

    A line that is not UTF-8 or not JSON raises ValueError; one that lacks a
    field raises KeyError, and one that is no object or holds a value of the
    wrong type raises TypeError.
    """
    text = line.decode("utf-8")
    if not text.strip():
        return None
    return record_type(**typed_fields(json.loads(text), field_kinds(record_type)))


def read_jsonl(path, record_type: type, check=None, key=post_key, error=ValueError) -> list:
    """The jsonl_record of each line of path; blank lines are skipped.

    No two records may share a key(record); check(record) raises ValueError
    for fields that disagree. A line that is not UTF-8 or not JSON, lacks a
    field, holds a value of the wrong type, or that key or check rejects
    raises error naming the line. Lines end at LF; a CR before it is
    whitespace.
    """
    out = []
    keys: set[str] = set()
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                record = jsonl_record(line, record_type)
                if record is None:
                    continue
                if (name := key(record)) in keys:
                    raise ValueError(f"{name} already appears on an earlier line")
                keys.add(name)
                if check is not None:
                    check(record)
                out.append(record)
            except UnicodeDecodeError:
                raise error(f"line {lineno}: not UTF-8") from None
            except KeyError as exc:
                raise error(f"line {lineno}: missing field {exc}") from None
            except (ValueError, TypeError, OverflowError) as exc:
                raise error(f"line {lineno}: {exc}") from None
    return out


# The JSON value types a field's item type takes, named for its errors: (a
# value, a list's items). Types match exactly, so true and false, which load
# as bools, are no numbers.
JSON_KINDS = {
    str: (frozenset({str}), "a string", "strings"),
    int: (frozenset({int}), "an integer", "integers"),
    float: (frozenset({int, float}), "a number", "numbers"),
}


@functools.cache
def field_kinds(record_type: type) -> dict[str, tuple]:
    """How typed_fields reads each field of record_type, from its type hint, once per type.

    name -> (list, set or None; the JSON types of a value or item; the error
    for any other value; float to convert a float value or item, or None).
    """
    fields = {}
    for name, hint in get_type_hints(record_type).items():
        container = get_origin(hint)
        item = get_args(hint)[0] if container else hint
        types, one, many = JSON_KINDS[item]
        error = f"{name} must be a list of {many}" if container else f"{name} must be {one}"
        fields[name] = (container, types, error, float if item is float else None)
    return fields


def typed_fields(record: Any, fields: Mapping[str, tuple]) -> dict:
    """Each field_kinds field of a parsed JSON object, as its type hint says.

    A str or int field takes that JSON type; a float field takes a JSON int
    or float and holds a float; a list or set field takes a JSON list of
    its item type.
    """
    if type(record) is not dict:
        raise TypeError("expected a JSON object")
    out = {}
    for name, (container, types, error, convert) in fields.items():
        value = record[name]
        items = value if container else [value]
        if type(items) is not list or not types.issuperset(map(type, items)):
            raise TypeError(error)
        if str in types:
            try:  # a \ud800 escape without its pair loads as a str no UTF-8 file holds
                "".join(items).encode("utf-8")
            except UnicodeEncodeError:
                raise TypeError(error) from None
        if convert is not None:
            value = convert(value) if container is None else map(convert, value)
        out[name] = container(value) if container else value
    return out


def _check_candidates(cs: CandidateSet) -> None:
    """A set's three lists must be equally long and hold original_index."""
    where, n = f"post {cs.post_id!r}", len(cs)
    if not n == len(cs.answers) == len(cs.source_post_ids):
        raise ValueError(
            f"{where}: {n} questions, {len(cs.answers)} answers and "
            f"{len(cs.source_post_ids)} source_post_ids"
        )
    if cs.original_index not in range(n):
        raise ValueError(f"{where}: original_index {cs.original_index} is not in range({n})")


def read_candidates(path: str | Path) -> list[CandidateSet]:
    """Load candidates.jsonl: one line per post, each set consistent (_check_candidates)."""
    return read_jsonl(path, CandidateSet, _check_candidates, error=RetrievalError)
