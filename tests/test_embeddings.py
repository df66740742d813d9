"""Embedding loading, average vectors, and cosine similarity."""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank.embeddings import (
    AvgVector,
    EmbeddingFormatError,
    EmbeddingTable,
    avg_vector,
    cos_sim,
    load_embeddings,
    load_embeddings_file,
)


def table_from(text: str) -> EmbeddingTable:
    return load_embeddings(io.StringIO(text))


class TestLoadEmbeddings:
    def test_two_lines_dim_three(self):
        table = table_from("cat 1 2 3\ndog 4 5 6\n")
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.token_rows(["dog"]), [[4.0, 5.0, 6.0]])

    def test_duplicate_word_keeps_first(self):
        table = table_from("cat 1 2\ncat 9 9\n")
        assert len(table) == 1
        np.testing.assert_array_equal(table.token_rows(["cat"]), [[1.0, 2.0]])

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
    def test_token_rows_keep_order_and_repeats_and_skip_oov(self):
        table = table_from("a 1 0\nb 0 1\n")
        np.testing.assert_array_equal(
            table.token_rows(["b", "zzz", "a", "b"]), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_no_token_in_vocabulary_gives_zero_rows(self):
        rows = table_from("a 1 0 0\n").token_rows(["x"])
        assert rows.shape == (0, 3)
        assert EmbeddingTable.empty().token_rows(["x"]).shape == (0, 1)

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
            return load_embeddings(handle)

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
    def test_matches_per_line_parser(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        assert_same_as_per_line_parser(path)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.lists(line(dim), max_size=6)))
    def test_matches_per_line_parser_on_generated_lines(self, lines):
        text = "".join(row + "\n" for row in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vectors.txt"
            path.write_text(text, encoding="utf-8")
            assert_same_as_per_line_parser(path)


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
