"""Embedding loading, average vectors, and cosine similarity."""

import errno
import hashlib
import io
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank import embeddings
from evpirank.embeddings import (
    AvgVector,
    EmbeddingFormatError,
    EmbeddingTable,
    avg_vector,
    cos_sim,
    parse_embeddings,
    load_embeddings_file,
)


def table_from(text: str) -> EmbeddingTable:
    return EmbeddingTable.of(*parse_embeddings(io.StringIO(text)))


class TestLoadEmbeddings:
    def test_two_lines_dim_three(self):
        table = table_from("cat 1 2 3\ndog 4 5 6\n")
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.gather(table.token_ids(["dog"])), [[4.0, 5.0, 6.0]])

    def test_duplicate_word_keeps_first(self):
        table = table_from("cat 1 2\ncat 9 9\n")
        assert len(table) == 1
        np.testing.assert_array_equal(table.gather(table.token_ids(["cat"])), [[1.0, 2.0]])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            table_from("cat 1 2 3\ndog 4 5\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            table_from("cat 1 2\ndog 3 4\nfox x y\n")

    def test_empty_input_is_error(self):
        with pytest.raises(EmbeddingFormatError):
            table_from("")

    @pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        text = f"cat 1 2\ndog 3 {value}\n"
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite value"):
            table_from(text)
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite value"):
            load_embeddings_file(path)


class TestEmbeddingTable:
    def test_token_ids_keep_order_and_repeats_and_skip_oov(self):
        table = table_from("a 1 0\nb 0 1\n")
        ids = table.token_ids(["b", "zzz", "a", "b"])
        assert ids.dtype == np.int64 and list(ids) == [1, 0, 1]
        np.testing.assert_array_equal(table.gather(ids), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_no_token_in_vocabulary_gives_zero_rows(self):
        table = table_from("a 1 0 0\n")
        assert table.gather(table.token_ids(["x"])).shape == (0, 3)

    def test_word_count_must_match_the_matrix(self):
        with pytest.raises(ValueError, match="2 words for a matrix of shape"):
            EmbeddingTable.of(["a", "b"], np.zeros((3, 2)))


def loaded(load):
    """(shape, [(word, row)] in table order, matrix bytes), or the EmbeddingFormatError text."""
    try:
        table = load()
    except EmbeddingFormatError as exc:
        return str(exc)
    return table.matrix.shape, list(table.rows.items()), table.matrix.tobytes()


# Numbers both parsers read, and characters that make tokens only one of them
# reads (or neither): "_", fullwidth and Arabic-Indic digits, NUL, "#".
NUMBER = st.sampled_from(["1", "-2.5", "1e3", "+.5", "nan", "-Infinity", "1e999"])
TOKEN = NUMBER | st.text(
    st.sampled_from(list("0123456789.-+eEnaifINF_#x\uff11\u0663\x00")), min_size=1, max_size=5
)


def line(dim: int):
    """A `word v1 ... vd` line, d mostly dim, joined by one of several whitespaces."""
    values = (
        st.lists(NUMBER, min_size=dim, max_size=dim)
        | st.lists(TOKEN, min_size=dim, max_size=dim)
        | st.lists(TOKEN, max_size=4)
    )
    word = st.sampled_from(["cat", "dog", "#x", "cat"])  # "cat" twice: duplicates are common
    sep = st.sampled_from([" ", "\t", "\x1c", "  ", "\u3000", "\xa0"])
    return st.builds(lambda w, vs, s: s.join([w, *vs]), word, values, sep)


def assert_same_as_per_line_parser(path: Path) -> None:
    def per_line():
        with open(path, "r", encoding="utf-8") as handle:
            return EmbeddingTable.of(*parse_embeddings(handle))

    assert loaded(lambda: load_embeddings_file(path)) == loaded(per_line)


class TestLoadEmbeddingsFile:
    """The one-pass file loader gives exactly what the per-line parser gives."""

    @pytest.mark.parametrize(
        "text",
        [
            "cat 1 2 3\ndog 4 5 6\n",
            "cat 1_0 2\n",  # float() reads underscores; np.loadtxt does not
            "cat \uff11 2\n",  # fullwidth digit one
            "cat \u0663 2\n",  # Arabic-Indic digit three
            "cat nan -Infinity\ndog -nan 1e999\n",
            "#cat 1 2\ndog 3 4\n",  # a word starting with '#' is not a comment
            "cat 1 2\ndog #3 4\n",
            "cat\t1\t2\ndog\x1c3\x1c4\n",  # tab and file-separator whitespace
            "  cat   1  2  \ndog 3 4",  # padding and no final newline
            "cat 1 2\ncat 9 9\ndog 3 4\ncat 7 7\n",  # duplicates keep the first row
            "cat 1 2\n\ndog 3 4\n",  # blank line mid-file
            "cat 1 2\ndog 3 4\n\n",  # blank line at the end
            "cat 1 2\n \t\n",  # whitespace-only line
            "cat 1 2\ndog\n",  # word-only line
            "cat 1 2\ndog 3 4 5\n",  # dimension grows
            "cat 1 2 3\ndog 3 4\n",  # dimension shrinks
            "cat 1 2\ndog x y\n",
            "",
        ],
    )
    @pytest.mark.parametrize("cached", [False, True])
    def test_matches_per_line_parser(self, tmp_path, monkeypatch, text, cached):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        if cached:
            monkeypatch.setattr(embeddings, "CACHE_MIN_BYTES", 0)
        assert_same_as_per_line_parser(path)  # cold
        assert_same_as_per_line_parser(path)  # warm, if the text parses
        parses = not isinstance(loaded(lambda: load_embeddings_file(path)), str)
        cache = [cache_of(path)] if cached and parses else []
        assert sorted(tmp_path.iterdir()) == [path] + cache

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.lists(line(dim), max_size=6)))
    def test_matches_per_line_parser_on_generated_lines(self, lines):
        text = "".join(row + "\n" for row in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vectors.txt"
            path.write_text(text, encoding="utf-8")
            assert_same_as_per_line_parser(path)


def cache_of(path: Path) -> Path:
    return path.with_name(path.name + embeddings.CACHE_SUFFIX)


NAN_BYTES = np.array([np.nan]).tobytes()


def no_parse(path):
    raise AssertionError(f"{path} was parsed, not read from its cache")


class TestEmbeddingCache:
    """A vectors file is parsed once; later loads of the same bytes read the cache."""

    TEXT = "cat 1.5 2\ndog 3 -4e-3\ncat 9 9\nfox 0.1 0.2\n"  # "cat" twice: the first row wins

    @pytest.fixture
    def vectors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "CACHE_MIN_BYTES", 1)
        path = tmp_path / "vectors.txt"
        path.write_text(self.TEXT, encoding="utf-8")
        return path

    def parsed(self):
        return loaded(lambda: table_from(self.TEXT))

    def test_warm_load_equals_cold_load_bit_for_bit(self, vectors, monkeypatch):
        cold = loaded(lambda: load_embeddings_file(vectors))
        assert cache_of(vectors).is_file()
        monkeypatch.setattr(embeddings, "_parse_file", no_parse)
        assert loaded(lambda: load_embeddings_file(vectors)) == cold
        assert cold == self.parsed()
        assert cold[1] == [("cat", 0), ("dog", 1), ("fox", 3)]

    def test_same_size_and_mtime_with_a_changed_value_is_a_miss(self, vectors):
        load_embeddings_file(vectors)
        stat = vectors.stat()
        vectors.write_text(self.TEXT.replace("1.5", "2.5"), encoding="utf-8")
        os.utime(vectors, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert vectors.stat().st_size == stat.st_size
        table = load_embeddings_file(vectors)
        np.testing.assert_array_equal(table.gather(table.token_ids(["cat"])), [[2.5, 2.0]])
        assert load_embeddings_file(vectors).matrix.tobytes() == table.matrix.tobytes()

    @pytest.mark.parametrize(
        "old, new", [("1.5", "2.5"), ("0.2", "0.3")], ids=["first-half", "second-half"]
    )
    def test_a_one_byte_edit_in_either_half_is_a_miss(self, vectors, monkeypatch, old, new):
        load_embeddings_file(vectors)
        edited = self.TEXT.replace(old, new)
        assert sum(a != b for a, b in zip(edited, self.TEXT)) == 1
        vectors.write_text(edited, encoding="utf-8")
        assert loaded(lambda: load_embeddings_file(vectors)) == loaded(lambda: table_from(edited))

    def test_a_version_1_cache_is_a_miss_and_is_rewritten(self, vectors, monkeypatch):
        # version 1 keyed the cache with the SHA-256 of the whole file
        load_embeddings_file(vectors)
        good = cache_of(vectors).read_bytes()
        key = b"evpirank-cache 1\n" + hashlib.sha256(vectors.read_bytes()).digest()
        embeddings._write_cache(cache_of(vectors), key, *embeddings._parse_file(vectors))
        assert cache_of(vectors).read_bytes() != good
        parses = []
        parse = embeddings._parse_file
        monkeypatch.setattr(embeddings, "_parse_file", lambda path: parses.append(path) or parse(path))
        assert loaded(lambda: load_embeddings_file(vectors)) == self.parsed()
        assert parses == [vectors]
        assert cache_of(vectors).read_bytes() == good

    def test_a_file_rewritten_during_its_parse_is_not_cached(self, vectors, monkeypatch):
        parse = embeddings._parse_file

        def parse_then_rewrite(path):
            parsed = parse(path)
            vectors.write_text(self.TEXT.replace("dog", "dogs"), encoding="utf-8")
            return parsed

        monkeypatch.setattr(embeddings, "_parse_file", parse_then_rewrite)
        load_embeddings_file(vectors)
        assert not cache_of(vectors).exists()

    def test_a_file_that_fails_to_parse_leaves_no_cache(self, vectors):
        load_embeddings_file(vectors)
        vectors.write_text(self.TEXT + "owl 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 5: dimension 1 does not match 2"):
            load_embeddings_file(vectors)
        # the cache of the earlier bytes stays, and is not taken for these
        with pytest.raises(EmbeddingFormatError, match="line 5"):
            load_embeddings_file(vectors)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
            pytest.param(lambda data: data[:-1], id="last-byte-missing"),
            pytest.param(lambda data: data + b"\0", id="trailing-byte"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(lambda data: b"garbage" * 40, id="garbage"),
            pytest.param(lambda data: b"PK\x03\x04" + data[4:], id="bad-zip"),
            pytest.param(
                lambda data: data.replace(embeddings.CACHE_VERSION, b"evpirank-cache 0\n"),
                id="wrong-version",
            ),
            pytest.param(lambda data: data.replace(b"fox", b"f\nx"), id="a-word-too-many"),
            pytest.param(lambda data: data[:-8] + NAN_BYTES, id="last-value-nan"),
        ],
    )
    def test_a_bad_cache_is_ignored_and_rewritten(self, vectors, damage):
        cold = loaded(lambda: load_embeddings_file(vectors))
        good = cache_of(vectors).read_bytes()
        cache_of(vectors).write_bytes(damage(good))
        assert loaded(lambda: load_embeddings_file(vectors)) == cold
        assert cache_of(vectors).read_bytes() == good

    def test_a_read_only_directory_still_loads(self, vectors):
        vectors.parent.chmod(0o555)
        try:
            assert loaded(lambda: load_embeddings_file(vectors)) == self.parsed()
            if os.geteuid() != 0:  # root writes through the mode bits
                assert sorted(vectors.parent.iterdir()) == [vectors]
        finally:
            vectors.parent.chmod(0o755)

    def test_an_unwritable_cache_name_still_loads(self, vectors):
        cache_of(vectors).mkdir()  # open() and os.replace() fail on it, even for root
        assert loaded(lambda: load_embeddings_file(vectors)) == self.parsed()
        assert sorted(vectors.parent.iterdir()) == [vectors, cache_of(vectors)]

    def test_a_full_disk_leaves_no_partial_file(self, vectors, monkeypatch):
        def save(handle, array, allow_pickle):
            handle.write(b"\x93NUMPY")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(embeddings.np, "save", save)
        assert loaded(lambda: load_embeddings_file(vectors)) == self.parsed()
        assert sorted(vectors.parent.iterdir()) == [vectors]

    def test_a_file_under_the_threshold_writes_nothing(self, vectors, monkeypatch):
        monkeypatch.setattr(embeddings, "CACHE_MIN_BYTES", vectors.stat().st_size + 1)
        load_embeddings_file(vectors)
        assert sorted(vectors.parent.iterdir()) == [vectors]

    def test_the_shipped_threshold_leaves_fixtures_uncached(self):
        fixtures = Path(__file__).parent / "fixtures"
        assert max(p.stat().st_size for p in fixtures.rglob("*")) < embeddings.CACHE_MIN_BYTES


class TestAvgVector:
    def test_single_token_is_identity(self):
        table = table_from("cat 1 2 3\n")
        out = avg_vector(table, ["cat"])
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])
        assert out.coverage == 1.0

    def test_two_basis_tokens_average(self):
        table = table_from("a 1 0\nb 0 1\n")
        out = avg_vector(table, ["a", "b"])
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_all_oov_gives_zero_vector(self):
        table = table_from("a 1 0\n")
        out = avg_vector(table, ["x", "y"])
        np.testing.assert_array_equal(out.values, [0.0, 0.0])
        assert out.coverage == 0.0

    def test_oov_skipped_and_counted_in_coverage(self):
        table = table_from("a 2 0\n")
        out = avg_vector(table, ["a", "zzz"])
        np.testing.assert_array_equal(out.values, [2.0, 0.0])
        assert out.coverage == 0.5

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(7)
        words = [f"w{k}" for k in range(30)]
        lines = "".join(
            f"{w} " + " ".join(f"{v:.17g}" for v in rng.normal(size=8)) + "\n" for w in words
        )
        table = table_from(lines)
        tokens = [words[int(rng.integers(0, 30))] for _ in range(40)]
        base = avg_vector(table, tokens).values
        for _ in range(20):
            shuffled = list(tokens)
            rng.shuffle(shuffled)
            np.testing.assert_array_equal(avg_vector(table, shuffled).values, base)


class TestCosSim:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 2.0])
        assert cos_sim(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cos_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_inverse_sqrt_two(self):
        got = cos_sim(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_zero_vector_rule(self):
        assert cos_sim(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError):
            cos_sim(np.zeros(2), np.zeros(3))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert cos_sim(u, v) == cos_sim(v, u)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            c = float(rng.uniform(0.1, 100.0))
            assert cos_sim(c * u, v) == pytest.approx(cos_sim(u, v), abs=1e-12)

    def test_avg_vector_type(self):
        table = table_from("a 1 0\n")
        assert isinstance(avg_vector(table, ["a"]), AvgVector)
