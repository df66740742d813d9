"""Tokenizer, inverted index, TF-IDF scoring, top-k, and candidate sets."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank.ingest import PostRecord, Triple
from evpirank.retrieval import (
    RetrievalError,
    build_index,
    doc_text,
    generate_candidates,
    save_index,
    tokenize,
    top_k,
)
from tests.oracles import DictIndex, brute_tfidf_scores, brute_top_k, dict_top_k

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def make_triple(post_id: str, title: str, body: str) -> Triple:
    return Triple(
        post=PostRecord(post_id=post_id, author_id="a", title=title, body=body, created_at=1),
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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_identical_to_dict_accumulator(self, data):
        # Few words and short texts: empty docs, equal scores and identical
        # docs come up often. "oov" is in no document.
        words = ["a", "b", "c", "d", "e"]
        texts = st.lists(st.sampled_from(words), max_size=6).map(" ".join)
        ids = data.draw(st.lists(st.text("xyz", max_size=3), max_size=12, unique=True))
        docs = [(doc_id, data.draw(texts)) for doc_id in ids]
        query = data.draw(st.lists(st.sampled_from(words + ["oov"]), max_size=8))
        k = data.draw(st.integers(1, len(docs) + 3))
        got = top_k(build_index(docs), query, k)
        want = dict_top_k(DictIndex(docs), query, k)
        assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]

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
        by_post = {t.post.post_id: t for t in triples}
        index = build_index(
            (pid, doc_text(t.post.title, t.post.body)) for pid, t in sorted(by_post.items())
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
            pid: doc_text(t.post.title, t.post.body) for pid, t in by_post.items()
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
