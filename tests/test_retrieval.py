"""Tokenizer, inverted index, TF-IDF scoring, top-k, and candidate sets."""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evpirank.ingest import Triple
from evpirank.retrieval import (
    RetrievalError,
    build_index,
    doc_text,
    field_kinds,
    generate_candidates,
    read_jsonl,
    save_index,
    tokenize,
    top_k,
    typed_fields,
)
from tests.oracles import DictIndex, brute_tfidf_scores, brute_top_k, dict_top_k

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
WORDS = ["a", "b", "c", "d", "e"]


def make_triple(post_id: str, title: str, body: str) -> Triple:
    return Triple(
        post_id=post_id,
        post_title=title,
        post_body=body,
        question=f"q about {post_id}?",
        question_time=10,
        answer=f"answer for {post_id}",
        answer_source="comment",
    )


class TestTokenize:
    def test_splits_on_non_alphanumerics(self):
        assert tokenize("Ubuntu 14.04 LTS!") == ["ubuntu", "14", "04", "lts"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_idempotent_on_joined_output(self):
        rng = np.random.default_rng(11)
        pieces = ["Hello,", "WORLD!", "x86_64", "café", "3.14", "--", "a'b", "Ünïcode"]
        for _ in range(100):
            n = int(rng.integers(0, 8))
            text = " ".join(pieces[int(rng.integers(0, len(pieces)))] for _ in range(n))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_idempotent_on_any_unicode_text(self, text):
        # Case folding can change a character's class (İ lowers to i plus a
        # combining dot); the tokens must still be a fixed point.
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestBuildIndex:
    def test_three_one_word_docs(self):
        index = build_index([("d1", "apple"), ("d2", "banana"), ("d3", "apple")])
        assert index.doc_count == 3
        assert len(index.vocabulary) == 2

    def test_empty_doc_list(self):
        index = build_index([])
        assert index.doc_count == 0
        assert top_k(index, ["anything"], k=5) == []

    def test_duplicate_doc_id_is_error(self):
        with pytest.raises(RetrievalError, match="duplicate"):
            build_index([("d1", "a"), ("d1", "b")])

    @pytest.mark.parametrize("doc_id", ["d\t1", "d\n1"])
    def test_doc_id_with_a_tab_or_newline_is_error(self, doc_id):
        with pytest.raises(RetrievalError, match="may not contain tabs or newlines"):
            build_index([("d0", "a"), (doc_id, "b")])

    def test_document_without_tokens(self):
        index = build_index([("d2", "a b a"), ("d1", " ,.- ")])
        assert index.doc_ids == ["d1", "d2"]
        assert index.doc_lengths.tolist() == [0, 3]
        assert [p.tolist() for p in index.postings] == [[1], [1]]
        assert [tf.tolist() for tf in index.tfs] == [[2], [1]]
        assert top_k(index, ["b"], k=2)[1] == ("d1", 0.0)  # never scored, only padding

    def test_postings_sorted_by_doc_id(self):
        index = build_index([("z", "apple pie"), ("a", "apple tart"), ("m", "apple")])
        assert index.doc_ids == ["a", "m", "z"]
        for docs in index.postings:
            ids = [index.doc_ids[p] for p in docs.tolist()]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)
        assert [index.doc_ids[p] for p in index.postings[index.vocabulary["apple"]]] == ["a", "m", "z"]

    def test_deterministic_rebuild(self):
        docs = [("d1", "one two two"), ("d2", "two three")]
        a, b = build_index(docs), build_index(docs)
        assert a.vocabulary == b.vocabulary
        assert a.doc_ids == b.doc_ids
        assert a.doc_lengths.tobytes() == b.doc_lengths.tobytes()
        for field in ("postings", "tfs", "contributions"):
            arrays_a, arrays_b = getattr(a, field), getattr(b, field)
            assert [x.tobytes() for x in arrays_a] == [x.tobytes() for x in arrays_b], field


class TestScore:
    def test_no_shared_terms_scores_zero(self):
        index = build_index([("d1", "alpha beta")])
        assert top_k(index, ["gamma"], k=1) == [("d1", 0.0)]

    def test_single_doc_self_query_hand_value(self):
        # doc "a b b": terms a (tf 1) and b (tf 2), length 3, N = 1,
        # idf = 1 + ln(1/2) for both terms.
        index = build_index([("d1", "a b b")])
        idf = 1.0 + math.log(1.0 / 2.0)
        expected = (math.sqrt(1.0) + math.sqrt(2.0)) * idf * idf / math.sqrt(3.0)
        [(doc_id, got)] = top_k(index, tokenize("a b b"), k=1)
        assert doc_id == "d1"
        assert got == pytest.approx(expected, abs=1e-12)

    def test_three_doc_ranking_matches_brute_force(self):
        docs = {
            "d1": "ubuntu wifi driver driver",
            "d2": "ubuntu sound problem",
            "d3": "wifi driver antenna ubuntu wifi",
        }
        index = build_index(sorted(docs.items()))
        query = tokenize("ubuntu wifi driver")
        expected = brute_tfidf_scores(docs, query)
        got = top_k(index, query, k=3)
        assert sorted(doc_id for doc_id, _ in got) == sorted(docs)
        for doc_id, got_score in got:
            assert got_score == pytest.approx(expected[doc_id], abs=1e-12)


class TestTopK:
    def test_self_query_ranks_self_first(self):
        docs = [(f"d{i}", f"subject{i} shared words body{i} extra{i}") for i in range(20)]
        index = build_index(docs)
        for doc_id, text in docs:
            assert top_k(index, tokenize(text), k=3)[0][0] == doc_id

    def test_k_larger_than_corpus_returns_all(self):
        index = build_index([("d1", "alpha"), ("d2", "beta")])
        got = top_k(index, ["alpha"], k=10)
        assert [d for d, _ in got] == ["d1", "d2"]
        assert got[1][1] == 0.0  # zero score marks padding

    def test_equal_scores_tie_break_ascending_doc_id(self):
        index = build_index([("zz", "same text"), ("aa", "same text"), ("mm", "same text")])
        got = top_k(index, tokenize("same text"), k=3)
        assert [d for d, _ in got] == ["aa", "mm", "zz"]

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{k}" for k in range(30)]
        docs = [
            (f"d{i}", " ".join(vocab[int(rng.integers(0, 30))] for _ in range(12)))
            for i in range(40)
        ]
        index = build_index(docs)
        for _ in range(10):
            query = [vocab[int(rng.integers(0, 30))] for _ in range(5)]
            got = top_k(index, query, k=10)
            scores = [s for _, s in got]
            assert scores == sorted(scores, reverse=True)

    # Few words and short texts: empty docs, equal scores and identical docs
    # come up often. "oov" is in no document.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text("xyz", max_size=3), st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
            ),
            max_size=12,
            unique_by=lambda doc: doc[0],
        ),
        st.lists(st.sampled_from(WORDS + ["oov"]), max_size=8),
        st.integers(1, 15),
    )
    # Ties across the k-th place: "a b" and "b a" score sqrt(1/2) x idf^2, below "a" and "a a b".
    @example([("z", "a b"), ("y", "a"), ("x", "b a"), ("xx", "a a b"), ("yy", "a b")], ["a"], 3)
    @example([("z", "a b"), ("y", "c"), ("x", "b a"), ("xx", "a b")], ["a", "oov"], 2)
    def test_identical_to_dict_accumulator(self, docs, query, k):
        index, oracle = build_index(docs), DictIndex(docs)
        got = top_k(index, query, k)
        want = dict_top_k(oracle, query, k)
        assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]
        # The index itself: vocabulary order, lengths, and each term's postings and tfs.
        assert list(index.vocabulary.items()) == list(oracle.vocabulary.items())
        assert dict(zip(index.doc_ids, index.doc_lengths.tolist())) == oracle.doc_lengths
        assert {
            term_id: [(index.doc_ids[p], tf) for p, tf in zip(docs_of.tolist(), tfs.tolist())]
            for term_id, (docs_of, tfs) in enumerate(zip(index.postings, index.tfs))
        } == oracle.postings

    def test_agreement_with_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        vocab = [f"w{k}" for k in range(50)]
        docs = {
            f"d{i:03d}": " ".join(vocab[int(rng.integers(0, 50))] for _ in range(15))
            for i in range(100)
        }
        index = build_index(sorted(docs.items()))
        for _ in range(20):
            query = [vocab[int(rng.integers(0, 50))] for _ in range(6)]
            mine = {d: s for d, s in top_k(index, query, k=100)}
            brute = brute_tfidf_scores(docs, query)
            for doc_id, brute_score in brute.items():
                assert mine.get(doc_id, 0.0) == pytest.approx(brute_score, abs=1e-9)


class TestGenerateCandidates:
    def build(self, triples):
        by_post = {t.post_id: t for t in triples}
        index = build_index(
            (pid, doc_text(t.post_title, t.post_body)) for pid, t in sorted(by_post.items())
        )
        return index, by_post

    def test_original_index_zero_for_self_top_hit(self):
        triples = [make_triple(f"p{i}", f"title{i}", f"unique{i} words here") for i in range(12)]
        index, by_post = self.build(triples)
        cs = generate_candidates(index, by_post, "p3", k=10)
        assert cs.original_index == 0
        assert cs.questions[0] == "q about p3?"
        assert cs.answers[0] == "answer for p3"

    def test_ten_post_corpus_covers_all(self):
        triples = [make_triple(f"p{i}", f"title{i}", f"unique{i} thing") for i in range(10)]
        index, by_post = self.build(triples)
        for pid in by_post:
            cs = generate_candidates(index, by_post, pid, k=10)
            assert sorted(cs.source_post_ids) == sorted(by_post)

    def test_identical_posts_appear_in_each_other(self):
        triples = [
            make_triple("pa", "same title", "same body words"),
            make_triple("pb", "same title", "same body words"),
            make_triple("pc", "different topic entirely", "nothing shared at all"),
        ]
        index, by_post = self.build(triples)
        cs_a = generate_candidates(index, by_post, "pa", k=2)
        cs_b = generate_candidates(index, by_post, "pb", k=2)
        assert set(cs_a.source_post_ids[:2]) == {"pa", "pb"}
        assert set(cs_b.source_post_ids[:2]) == {"pa", "pb"}
        # byte-identical duplicates: ties resolve by doc id, self still present
        docs = {
            pid: doc_text(t.post_title, t.post_body) for pid, t in by_post.items()
        }
        brute = brute_top_k(docs, tokenize(docs["pb"]), 2)
        assert [d for d, _ in brute] == cs_b.source_post_ids[:2]
        assert cs_b.original_index == 1  # "pa" sorts before "pb" at equal score

    def test_missing_triple_is_error(self):
        triples = [make_triple("p1", "t", "b")]
        index, by_post = self.build(triples)
        with pytest.raises(RetrievalError, match="no triple"):
            generate_candidates(index, by_post, "p9")


class TestIndexPersistence:
    def test_golden_bytes(self, tmp_path):
        # Pins the EVPIRANK-IDX v1 format: a doc id with a space, an empty
        # doc, a repeated term and a non-ASCII term written as UTF-8.
        docs = [("d one", "alpha beta beta"), ("d two", "Beta gamma, café"), ("d3", "")]
        path = tmp_path / "small.idx"
        save_index(build_index(docs), path)
        assert path.read_bytes() == (GOLDEN / "small.idx").read_bytes()


@dataclass
class EveryKind:
    """A record with one field of each type hint typed_fields reads."""

    name: str
    count: int
    weight: float
    words: list[str]
    ids: list[int]
    scores: list[float]
    labels: set[int]


class TestTypedFields:
    RECORD = {
        "name": "x", "count": 2, "weight": 1, "words": ["a", "é"], "ids": [1, 2],
        "scores": [1, 0.5], "labels": [3, 3], "unread": None,
    }

    def test_each_field_reads_as_its_type_hint(self):
        fields = typed_fields(self.RECORD, field_kinds(EveryKind))
        assert fields == {
            "name": "x", "count": 2, "weight": 1.0, "words": ["a", "é"], "ids": [1, 2],
            "scores": [1.0, 0.5], "labels": {3},
        }
        assert type(fields["weight"]) is float
        assert [type(v) for v in fields["scores"]] == [float, float]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("name", 1, "name must be a string"),
            ("name", "\ud800", "name must be a string"),
            ("count", True, "count must be an integer"),
            ("count", 2.0, "count must be an integer"),
            ("weight", False, "weight must be a number"),
            ("weight", "1", "weight must be a number"),
            ("words", "ab", "words must be a list of strings"),
            ("words", ["a", "b\udfff"], "words must be a list of strings"),
            ("ids", [1, True], "ids must be a list of integers"),
            ("scores", [1, None], "scores must be a list of numbers"),
            ("labels", {"3": 3}, "labels must be a list of integers"),
        ],
    )
    def test_a_value_of_another_json_type_is_refused(self, field, value, message):
        with pytest.raises(TypeError) as info:
            typed_fields({**self.RECORD, field: value}, field_kinds(EveryKind))
        assert str(info.value) == message

    def test_a_missing_field_and_a_non_object(self):
        without = {k: v for k, v in self.RECORD.items() if k != "ids"}
        with pytest.raises(KeyError, match="ids"):
            typed_fields(without, field_kinds(EveryKind))
        with pytest.raises(TypeError, match="expected a JSON object"):
            typed_fields(list(self.RECORD), field_kinds(EveryKind))

    def test_lines_end_at_lf_only(self, tmp_path):
        path = tmp_path / "records.jsonl"
        x, y = json.dumps(self.RECORD), json.dumps({**self.RECORD, "name": "y"})
        path.write_bytes(f"{x}\r\n\r\n{y}\n".encode("utf-8"))
        records = read_jsonl(path, EveryKind, key=lambda r: r.name)
        assert [r.name for r in records] == ["x", "y"]
        path.write_bytes(f"{x}\r{y}\n".encode("utf-8"))
        with pytest.raises(ValueError, match="^line 1: Extra data"):
            read_jsonl(path, EveryKind, key=lambda r: r.name)

    def test_a_repeated_key_is_named_with_its_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(f"{json.dumps(self.RECORD)}\n\n{json.dumps(self.RECORD)}\n",
                        encoding="utf-8")
        with pytest.raises(RetrievalError, match="^line 3: 'x' already appears on an earlier"):
            read_jsonl(path, EveryKind, key=lambda r: repr(r.name), error=RetrievalError)
