"""Triple extraction rules, the fixture golden file, and split hashing."""

from pathlib import Path

import numpy as np
import pytest

from evpirank.embeddings import EmbeddingTable, load_embeddings_file
from evpirank.ingest import (
    CommentRecord,
    EditRecord,
    PostRecord,
    build_triples,
    extract_answer_comment,
    extract_answer_edit,
    extract_question,
    fnv1a_64,
    is_rhetorical,
    read_comments,
    read_edits,
    read_posts,
    read_triples,
    select_answer,
    split_name,
    write_triples,
)

FIXTURES = Path(__file__).parent / "fixtures"


def post(post_id="p1", author="u1", created=1000, title="t", body="b"):
    return PostRecord(post_id=post_id, author_id=author, title=title, body=body, created_at=created)


def comment(cid, pid, author, text, t):
    return CommentRecord(comment_id=cid, post_id=pid, author_id=author, text=text, created_at=t)


def edit(eid, pid, author, body, t):
    return EditRecord(edit_id=eid, post_id=pid, author_id=author, new_body=body, created_at=t)


class TestExtractQuestion:
    def test_truncates_at_first_question_mark(self):
        p = post()
        got = extract_question(
            p, [comment("c1", "p1", "u9", "What version of Ubuntu do you have? Also check logs.", 5)]
        )
        assert got == ("What version of Ubuntu do you have?", 5)

    def test_no_question_mark_anywhere(self):
        p = post()
        got = extract_question(p, [comment("c1", "p1", "u9", "interesting thought", 5)])
        assert got is None

    def test_earliest_question_wins(self):
        p = post()
        comments = [
            comment("c1", "p1", "u9", "First question here?", 5),
            comment("c2", "p1", "u8", "Second question here?", 9),
        ]
        got = extract_question(p, comments)
        assert got == ("First question here?", 5)


class TestIsRhetorical:
    def test_suggestion_prefix(self):
        assert is_rhetorical("have you considered installing X?")

    def test_information_question(self):
        assert not is_rhetorical("what version of Ubuntu do you have?")

    def test_why_dont_you(self):
        assert is_rhetorical("why don't you use the package manager?")

    def test_case_insensitive(self):
        assert is_rhetorical("Have You Tried rebooting?")


class TestExtractAnswerEdit:
    def test_four_token_addition_rejected(self):
        p = post(body="original body here")
        got = extract_answer_edit(
            p, [edit("e1", "p1", "u1", "original body here four new tokens added", 10)], 5
        )
        assert got is None  # only 4 added tokens

    def test_closest_qualifying_edit_after_question(self):
        p = post(body="base")
        edits = [
            edit("e1", "p1", "u1", "base one two three four five six", 10),
            edit("e2", "p1", "u1", "base one two three four five six seven eight nine ten eleven", 20),
        ]
        got = extract_answer_edit(p, edits, 5)
        assert got == "one two three four five six"

    def test_edit_before_question_excluded(self):
        p = post(body="base")
        got = extract_answer_edit(p, [edit("e1", "p1", "u1", "base a b c d e f", 3)], 5)
        assert got is None

    def test_diff_is_against_previous_version(self):
        p = post(body="alpha beta")
        edits = [
            edit("e1", "p1", "u1", "alpha beta gamma delta", 2),
            edit("e2", "p1", "u1", "alpha beta gamma delta one two three gamma four five", 9),
        ]
        # gamma joined the post at t=2, so e2 adds only the five new tokens,
        # with the repeated gamma dropped.
        got = extract_answer_edit(p, edits, 5)
        assert got == "one two three four five"


class TestExtractAnswerComment:
    def test_author_filter(self):
        p = post(author="u1")
        comments = [
            comment("c1", "p1", "u9", "stranger reply", 8),
            comment("c2", "p1", "u1", "author reply", 12),
        ]
        assert extract_answer_comment(p, comments, 5) == "author reply"

    def test_no_author_comment_after_question(self):
        p = post(author="u1")
        comments = [comment("c1", "p1", "u1", "before question", 3)]
        assert extract_answer_comment(p, comments, 5) is None

    def test_earliest_author_reply(self):
        p = post(author="u1")
        comments = [
            comment("c1", "p1", "u1", "first reply", 9),
            comment("c2", "p1", "u1", "second reply", 14),
        ]
        assert extract_answer_comment(p, comments, 5) == "first reply"


class TestSelectAnswer:
    def table(self):
        return EmbeddingTable(
            dim=2, vectors={"ram": np.array([1.0, 0.0]), "cpu": np.array([0.0, 1.0])}
        )

    def test_single_edit_candidate(self):
        assert select_answer("edit text", None, "q?", self.table()) == ("edit text", "edit")

    def test_single_comment_candidate(self):
        assert select_answer(None, "reply", "q?", self.table()) == ("reply", "comment")

    def test_max_similarity_wins(self):
        got = select_answer("about cpu", "about ram", "how much ram?", self.table())
        assert got == ("about ram", "comment")

    def test_tie_prefers_edit(self):
        got = select_answer("nothing known", "also unknown", "unrelated query?", self.table())
        assert got == ("nothing known", "edit")

    def test_both_absent_is_error(self):
        with pytest.raises(ValueError):
            select_answer(None, None, "q?", self.table())


class TestBuildTriplesFixture:
    def test_fixture_matches_golden_bytes(self, tmp_path):
        posts, bad_p = read_posts(FIXTURES / "dump" / "posts.jsonl")
        comments, bad_c = read_comments(FIXTURES / "dump" / "comments.jsonl")
        edits, bad_e = read_edits(FIXTURES / "dump" / "history.jsonl")
        assert (bad_p, bad_c, bad_e) == (0, 1, 0)
        table = load_embeddings_file(FIXTURES / "embeddings_toy.txt")
        triples, diag = build_triples(posts, comments, edits, table=table)
        out = tmp_path / "triples.jsonl"
        write_triples(out, triples)
        assert out.read_bytes() == (FIXTURES / "golden" / "triples.jsonl").read_bytes()
        assert diag.posts_in == 10
        assert diag.triples_out == 7
        assert diag.no_question == 1
        assert diag.rhetorical == 1
        assert diag.no_answer == 1

    def test_all_rhetorical_first_questions_gives_empty_output(self):
        posts = [post("p1"), post("p2", author="u2")]
        comments = [
            comment("c1", "p1", "u9", "have you tried turning it off?", 5),
            comment("c2", "p2", "u9", "why not use a vm?", 5),
        ]
        triples, diag = build_triples(posts, comments, [])
        assert triples == []
        assert diag.rhetorical == 2

    def test_post_without_answer_skipped(self):
        posts = [post("p1")]
        comments = [comment("c1", "p1", "u9", "what happened?", 5)]
        triples, diag = build_triples(posts, comments, [])
        assert triples == []
        assert diag.no_answer == 1

    def test_round_trip_through_file(self, tmp_path):
        posts, _ = read_posts(FIXTURES / "dump" / "posts.jsonl")
        comments, _ = read_comments(FIXTURES / "dump" / "comments.jsonl")
        edits, _ = read_edits(FIXTURES / "dump" / "history.jsonl")
        table = load_embeddings_file(FIXTURES / "embeddings_toy.txt")
        triples, _ = build_triples(posts, comments, edits, table=table)
        out = tmp_path / "triples.jsonl"
        write_triples(out, triples)
        loaded = read_triples(out)
        assert [t.post.post_id for t in loaded] == [t.post.post_id for t in triples]
        assert [t.answer for t in loaded] == [t.answer for t in triples]


def random_dump(rng):
    vocab = ["alpha", "beta", "gamma", "delta", "echo", "fox", "golf", "hotel"]

    def words(n):
        return " ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(n))

    posts = []
    comments = []
    edits = []
    for i in range(int(rng.integers(5, 25))):
        pid = f"p{i:03d}"
        author = f"u{int(rng.integers(0, 6))}"
        body = words(int(rng.integers(3, 10)))
        posts.append(post(pid, author=author, created=100, body=body))
        for c in range(int(rng.integers(0, 4))):
            text = words(int(rng.integers(1, 6)))
            if rng.random() < 0.6:
                text += "?"
            commenter = f"u{int(rng.integers(0, 6))}"
            comments.append(
                comment(f"c{i:03d}x{c}", pid, commenter, text, int(rng.integers(101, 140)))
            )
        prev = body
        for e in range(int(rng.integers(0, 3))):
            prev = prev + " " + words(int(rng.integers(1, 8)))
            edits.append(edit(f"e{i:03d}x{e}", pid, author, prev, int(rng.integers(101, 160))))
    return posts, comments, edits


class TestBuildTriplesProperties:
    def test_invariants_on_random_dumps(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            posts, comments, edits = random_dump(rng)
            triples, _ = build_triples(posts, comments, edits)
            seen = set()
            for t in triples:
                assert t.question.endswith("?")
                assert t.question_time > t.post.created_at
                assert t.answer
                if t.answer_source == "edit":
                    assert len(t.answer.split()) >= 5
                assert t.post.post_id not in seen  # at most one triple per post
                seen.add(t.post.post_id)
            assert [t.post.post_id for t in triples] == sorted(t.post.post_id for t in triples)

    def test_determinism(self):
        rng = np.random.default_rng(99)
        posts, comments, edits = random_dump(rng)
        first, _ = build_triples(posts, comments, edits)
        second, _ = build_triples(posts, comments, edits)
        assert [(t.post.post_id, t.question, t.answer) for t in first] == [
            (t.post.post_id, t.question, t.answer) for t in second
        ]


class TestSplitDataset:
    def test_partition_exact(self):
        ids = [f"p{i}" for i in range(200)]
        names = [split_name(post_id) for post_id in ids]
        assert set(names) == {"train", "tune", "test"}

    def test_single_triple_lands_in_exactly_one_split(self):
        assert split_name("only") in {"train", "tune", "test"}

    def test_determinism(self):
        ids = [f"p{i}" for i in range(100)]
        assert [split_name(post_id) for post_id in ids] == [split_name(post_id) for post_id in list(ids)]

    def test_askubuntu_scale_sizes(self):
        # 24,930 ids at 80/10/10 should land within 2% of 19,944/2,493/2,493.
        names = [split_name(f"post_{i:06d}") for i in range(24930)]
        assert abs(names.count("train") - 19944) <= 0.02 * 19944
        assert abs(names.count("tune") - 2493) <= 0.02 * 2493
        assert abs(names.count("test") - 2493) <= 0.02 * 2493

    def test_fnv1a_known_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        # Hash mod 10 is 2, 8 and 9 for these ids: buckets 0-7 train, 8 tune, 9 test.
        assert [split_name(p) for p in ("p1", "p5", "p4")] == ["train", "tune", "test"]


class TestReaders:
    def test_malformed_lines_counted(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(
            '{"post_id": "p1", "author_id": "a", "title": "t", "body": "b", "created_at": 5}\n'
            "not json at all\n"
            '{"post_id": "p2", "author_id": "a", "title": "t", "body": "b"}\n'
            '{"post_id": "", "author_id": "a", "title": "t", "body": "b", "created_at": 5}\n',
            encoding="utf-8",
        )
        posts, malformed = read_posts(path)
        assert [p.post_id for p in posts] == ["p1"]
        assert malformed == 3

    def test_boolean_timestamp_rejected(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        path.write_text(
            '{"comment_id": "c", "post_id": "p", "author_id": "a", "text": "x", "created_at": true}\n',
            encoding="utf-8",
        )
        comments, malformed = read_comments(path)
        assert comments == []
        assert malformed == 1
