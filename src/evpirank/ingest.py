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
from dataclasses import dataclass, field
from typing import Iterable, Sequence, get_type_hints

from .embeddings import EmbeddingTable, avg_vector, cos_sim
from .retrieval import json_isinstance, read_jsonl, tokenize, typed_field

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
    """One (post, question, answer) training record."""

    post: PostRecord
    question: str
    question_time: int
    answer: str
    answer_source: str


@dataclass
class IngestDiagnostics:
    """Counts of posts skipped per pipeline stage plus malformed input lines."""

    posts_in: int = 0
    triples_out: int = 0
    no_question: int = 0
    rhetorical: int = 0
    no_answer: int = 0
    invariant_violation: int = 0
    malformed_lines: dict[str, int] = field(default_factory=dict)
    orphan_records: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "posts_in": self.posts_in,
                "triples_out": self.triples_out,
                "skipped": {
                    "no_question": self.no_question,
                    "rhetorical": self.rhetorical,
                    "no_answer": self.no_answer,
                    "invariant_violation": self.invariant_violation,
                },
                "malformed_lines": self.malformed_lines,
                "orphan_records": self.orphan_records,
            },
            ensure_ascii=False,
        )


def _load_records(path, record_type):
    """Read a JSONL file of record_type's typed fields; malformed lines are skipped and counted."""
    fields = get_type_hints(record_type)
    records = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if not isinstance(raw, dict):
                malformed += 1
                continue
            values = {name: raw.get(name) for name in fields}
            if not all(json_isinstance(values[name], typ) for name, typ in fields.items()):
                malformed += 1
                continue
            records.append(record_type(**values))
    return records, malformed


def read_posts(path) -> tuple[list[PostRecord], int]:
    records, malformed = _load_records(path, PostRecord)
    valid = [r for r in records if r.post_id and r.created_at > 0]
    malformed += len(records) - len(valid)
    return valid, malformed


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


def _triple_valid(triple: Triple) -> bool:
    if not triple.question.endswith("?"):
        return False
    if triple.question_time <= triple.post.created_at:
        return False
    if not triple.answer:
        return False
    if triple.answer_source == ANSWER_SOURCE_EDIT:
        if len(triple.answer.split()) < MIN_EDIT_ANSWER_TOKENS:
            return False
    return True


def build_triples(
    posts: Iterable[PostRecord],
    comments: Iterable[CommentRecord],
    edits: Iterable[EditRecord],
    table: EmbeddingTable | None = None,
    diagnostics: IngestDiagnostics | None = None,
) -> tuple[list[Triple], IngestDiagnostics]:
    """Run the full extraction pipeline; output is ordered by post_id.

    Emits at most one triple per post. Posts failing any stage are skipped
    and counted in the diagnostics.
    """
    diag = diagnostics if diagnostics is not None else IngestDiagnostics()
    if table is None:
        table = EmbeddingTable.empty()
    posts = sorted(posts, key=lambda p: p.post_id)
    post_ids = {p.post_id for p in posts}
    comments_by_post: dict[str, list[CommentRecord]] = {}
    for comment in comments:
        if comment.post_id not in post_ids:
            diag.orphan_records += 1
            continue
        comments_by_post.setdefault(comment.post_id, []).append(comment)
    edits_by_post: dict[str, list[EditRecord]] = {}
    for edit in edits:
        if edit.post_id not in post_ids:
            diag.orphan_records += 1
            continue
        edits_by_post.setdefault(edit.post_id, []).append(edit)

    triples: list[Triple] = []
    for post in posts:
        diag.posts_in += 1
        post_comments = comments_by_post.get(post.post_id, [])
        extracted = extract_question(post, post_comments)
        if extracted is None:
            diag.no_question += 1
            continue
        question, question_time = extracted
        if is_rhetorical(question):
            diag.rhetorical += 1
            continue
        edit_answer = extract_answer_edit(post, edits_by_post.get(post.post_id, []), question_time)
        comment_answer = extract_answer_comment(post, post_comments, question_time)
        if edit_answer is None and comment_answer is None:
            diag.no_answer += 1
            continue
        answer, source = select_answer(edit_answer, comment_answer, question, table)
        triple = Triple(
            post=post,
            question=question,
            question_time=question_time,
            answer=answer,
            answer_source=source,
        )
        if not _triple_valid(triple):
            diag.invariant_violation += 1
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
            record = {
                "post_id": triple.post.post_id,
                "post_title": triple.post.title,
                "post_body": triple.post.body,
                "question": triple.question,
                "question_time": triple.question_time,
                "answer": triple.answer,
                "answer_source": triple.answer_source,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_triples(path) -> list[Triple]:
    """Load triples.jsonl.

    Author and creation time are not stored in the file; the reconstructed
    PostRecord carries placeholders for them.
    """
    return read_jsonl(
        path,
        lambda raw: Triple(
            post=PostRecord(
                post_id=typed_field(raw, "post_id", str),
                author_id="",
                title=typed_field(raw, "post_title", str),
                body=typed_field(raw, "post_body", str),
                created_at=0,
            ),
            question=typed_field(raw, "question", str),
            question_time=typed_field(raw, "question_time", int),
            answer=typed_field(raw, "answer", str),
            answer_source=typed_field(raw, "answer_source", str),
        ),
    )
