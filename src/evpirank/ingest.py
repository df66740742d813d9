"""Extract (post, question, answer) triples from forum dump files.

Inputs are three JSONL files (posts, comments, post history). For each post
we take the first comment containing a question mark, drop rhetorical
questions, and recover the answer either from the closest post edit after the
question or from the author's first follow-up comment, whichever is more
similar to the question. Triples are split deterministically by a stable hash
of the post id.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from .embeddings import EmbeddingTable, avg_vector, cos_sim
from .retrieval import jsonl_record, read_jsonl, tokenize

ANSWER_SOURCE_EDIT = "edit"
ANSWER_SOURCE_COMMENT = "comment"

MIN_EDIT_ANSWER_TOKENS = 5

RHETORICAL_PREFIXES = (
    "have you considered",
    "have you tried",
    "why don't you",
    "why not",
    "can't you just",
    "have you looked at",
    "do you mind",
)


@dataclass
class PostRecord:
    post_id: str
    author_id: str
    title: str
    body: str
    created_at: int


@dataclass
class CommentRecord:
    comment_id: str
    post_id: str
    author_id: str
    text: str
    created_at: int


@dataclass
class EditRecord:
    edit_id: str
    post_id: str
    author_id: str
    new_body: str
    created_at: int


@dataclass
class Triple:
    """One (post, question, answer) training record: a line of triples.jsonl, in field order."""

    post_id: str
    post_title: str
    post_body: str
    question: str
    question_time: int
    answer: str
    answer_source: str


@dataclass
class Skips:
    """Posts skipped at each pipeline stage, in stage order."""

    no_question: int = 0
    rhetorical: int = 0
    no_answer: int = 0
    invariant_violation: int = 0


@dataclass
class IngestDiagnostics:
    """Counts of posts skipped per pipeline stage plus malformed input lines, in output order."""

    posts_in: int = 0
    triples_out: int = 0
    skipped: Skips = field(default_factory=Skips)
    malformed_lines: dict[str, int] = field(default_factory=dict)
    orphan_records: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False)


def _load_records(path, record_type):
    """The jsonl_record of each line of a JSONL file; malformed lines are skipped and counted."""
    records = []
    malformed = 0
    with open(path, "rb") as handle:
        for line in handle:
            try:
                record = jsonl_record(line, record_type)
            except (ValueError, KeyError, TypeError):
                malformed += 1
                continue
            if record is not None:
                records.append(record)
    return records, malformed


def read_posts(path) -> tuple[list[PostRecord], int]:
    """Posts with a positive created_at and an id free of tabs and newlines, the
    first of each id; the rest are malformed."""
    records, malformed = _load_records(path, PostRecord)
    valid: dict[str, PostRecord] = {}
    for r in records:
        if r.post_id and _fits_index_line(r.post_id) and r.created_at > 0:
            valid.setdefault(r.post_id, r)
    malformed += len(records) - len(valid)
    return list(valid.values()), malformed


def read_comments(path) -> tuple[list[CommentRecord], int]:
    return _load_records(path, CommentRecord)


def read_edits(path) -> tuple[list[EditRecord], int]:
    return _load_records(path, EditRecord)


def extract_question(
    post: PostRecord, comments: Sequence[CommentRecord]
) -> tuple[str, int] | None:
    """The earliest comment containing '?', truncated at its first '?'.

    Returns (question, timestamp), or None when no comment asks anything.
    """
    for comment in sorted(comments, key=lambda c: (c.created_at, c.comment_id)):
        idx = comment.text.find("?")
        if idx >= 0:
            return comment.text[: idx + 1], comment.created_at
    return None


def is_rhetorical(question: str) -> bool:
    """True iff the lowercased question starts with one of RHETORICAL_PREFIXES."""
    return question.lower().startswith(RHETORICAL_PREFIXES)


def _added_tokens(previous_body: str, new_body: str) -> list[str]:
    # Order-preserving set difference over whitespace tokens.
    seen = set(previous_body.split())
    return [tok for tok in new_body.split() if tok not in seen]


def extract_answer_edit(
    post: PostRecord, edits: Sequence[EditRecord], question_time: int
) -> str | None:
    """Added text of the earliest qualifying edit after the question.

    Each edit is diffed against the previous version of the post (the
    original body, then each successive edit body). An edit qualifies when it
    happens after the question and adds at least five whitespace tokens.
    """
    previous = post.body
    for edit in sorted(edits, key=lambda e: (e.created_at, e.edit_id)):
        added = _added_tokens(previous, edit.new_body)
        if edit.created_at > question_time and len(added) >= MIN_EDIT_ANSWER_TOKENS:
            return " ".join(added)
        previous = edit.new_body
    return None


def extract_answer_comment(
    post: PostRecord, comments: Sequence[CommentRecord], question_time: int
) -> str | None:
    """Text of the author's first comment after the question, if any."""
    for comment in sorted(comments, key=lambda c: (c.created_at, c.comment_id)):
        if comment.created_at > question_time and comment.author_id == post.author_id:
            return comment.text
    return None


def select_answer(
    edit_answer: str | None,
    comment_answer: str | None,
    question: str,
    table: EmbeddingTable,
) -> tuple[str, str]:
    """Pick the answer most similar to the question; ties favor the edit."""
    if edit_answer is None and comment_answer is None:
        raise ValueError("no answer candidate available")
    if comment_answer is None:
        return edit_answer, ANSWER_SOURCE_EDIT
    if edit_answer is None:
        return comment_answer, ANSWER_SOURCE_COMMENT
    q_hat = avg_vector(table, tokenize(question)).values
    sim_edit = cos_sim(q_hat, avg_vector(table, tokenize(edit_answer)).values)
    sim_comment = cos_sim(q_hat, avg_vector(table, tokenize(comment_answer)).values)
    if sim_comment > sim_edit:
        return comment_answer, ANSWER_SOURCE_COMMENT
    return edit_answer, ANSWER_SOURCE_EDIT


def _triple_valid(post: PostRecord, triple: Triple) -> bool:
    """The checks input can fail: the question comes after the post, and the answer is not empty.

    extract_question always ends a question at its '?', and extract_answer_edit
    returns only edits adding MIN_EDIT_ANSWER_TOKENS or more tokens.
    """
    return triple.question_time > post.created_at and bool(triple.answer)


def build_triples(
    posts: Iterable[PostRecord],
    comments: Iterable[CommentRecord],
    edits: Iterable[EditRecord],
    table: EmbeddingTable,
) -> tuple[list[Triple], IngestDiagnostics]:
    """Run the full extraction pipeline; output is ordered by post_id.

    Emits at most one triple per post. Posts failing any stage are skipped
    and counted in the diagnostics.
    """
    diag = IngestDiagnostics()
    posts = sorted(posts, key=lambda p: p.post_id)
    records = {p.post_id: ([], []) for p in posts}  # post_id -> (comments, edits)
    for kind, group in enumerate((comments, edits)):
        for record in group:
            if record.post_id in records:
                records[record.post_id][kind].append(record)
            else:
                diag.orphan_records += 1

    triples: list[Triple] = []
    for post in posts:
        diag.posts_in += 1
        post_comments, post_edits = records[post.post_id]
        extracted = extract_question(post, post_comments)
        if extracted is None:
            diag.skipped.no_question += 1
            continue
        question, question_time = extracted
        if is_rhetorical(question):
            diag.skipped.rhetorical += 1
            continue
        edit_answer = extract_answer_edit(post, post_edits, question_time)
        comment_answer = extract_answer_comment(post, post_comments, question_time)
        if edit_answer is None and comment_answer is None:
            diag.skipped.no_answer += 1
            continue
        answer, source = select_answer(edit_answer, comment_answer, question, table)
        triple = Triple(
            post_id=post.post_id,
            post_title=post.title,
            post_body=post.body,
            question=question,
            question_time=question_time,
            answer=answer,
            answer_source=source,
        )
        if not _triple_valid(post, triple):
            diag.skipped.invariant_violation += 1
            continue
        triples.append(triple)
        diag.triples_out += 1
    return triples, diag


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash; stable across platforms and runs."""
    value = FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * FNV_PRIME) & _U64
    return value


def split_name(post_id: str) -> str:
    """The split a post belongs to: train, tune or test, 80/10/10.

    Buckets the FNV-1a 64-bit hash of the post id mod 10, so the assignment
    is a pure function of the id and every run splits the same way.
    """
    bucket = fnv1a_64(post_id.encode("utf-8")) % 10
    return "train" if bucket < 8 else "tune" if bucket == 8 else "test"


def write_triples(path, triples: Iterable[Triple]) -> None:
    """Write triples.jsonl, UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for triple in triples:
            handle.write(json.dumps(vars(triple), ensure_ascii=False) + "\n")


def _fits_index_line(post_id: str) -> bool:
    """A post id names a document of the index file, one tab-separated line."""
    return "\t" not in post_id and "\n" not in post_id


def _check_triple(triple: Triple) -> None:
    if not _fits_index_line(triple.post_id):
        raise ValueError(f"post {triple.post_id!r}: post_id may not contain tabs or newlines")
    if triple.answer_source not in ("edit", "comment"):
        raise ValueError(f"answer_source must be edit or comment, got {triple.answer_source!r}")
    if triple.question_time < 1:
        raise ValueError(f"question_time must be >= 1, got {triple.question_time}")


def read_triples(path) -> list[Triple]:
    """Load triples.jsonl: one line per post, no post id holding a tab or newline, each
    answer_source edit or comment and each question_time at least 1."""
    return read_jsonl(path, Triple, _check_triple)
