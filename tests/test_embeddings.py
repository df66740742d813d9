"""Embedding loading, average vectors, and cosine similarity."""

import io
import math

import numpy as np
import pytest

from evpirank.embeddings import (
    AvgVector,
    EmbeddingFormatError,
    EmbeddingTable,
    avg_vector,
    cos_sim,
    load_embeddings,
)


def table_from(text: str) -> EmbeddingTable:
    return load_embeddings(io.StringIO(text))


class TestLoadEmbeddings:
    def test_two_lines_dim_three(self):
        table = table_from("cat 1 2 3\ndog 4 5 6\n")
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.vectors["dog"], [4.0, 5.0, 6.0])

    def test_duplicate_word_keeps_first(self):
        table = table_from("cat 1 2\ncat 9 9\n")
        np.testing.assert_array_equal(table.vectors["cat"], [1.0, 2.0])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            table_from("cat 1 2 3\ndog 4 5\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            table_from("cat 1 2\ndog 3 4\nfox x y\n")

    def test_empty_input_is_error(self):
        with pytest.raises(EmbeddingFormatError):
            table_from("")


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
