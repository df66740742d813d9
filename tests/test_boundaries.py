"""The neural models' parameter layout, and round trips across the file boundaries.

Each model's parts, checkpoint manifest and init draws are written out
here by hand, not taken from MODEL_PARTS, so a change to the layout or to
the init order fails here whatever platform the tests run on.
"""

import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank.baselines import NGRAM_FEATURE_SPACE, CqaModel, NgramModel
from evpirank.cli import main
from evpirank.evpi import MODEL_PARTS, NeuralParams, rank_from_scores, read_rankings, write_rankings
from evpirank.ingest import PostRecord, Triple, read_triples, write_triples
from evpirank.neural import assign_tensors, load_checkpoint, save_checkpoint
from evpirank.retrieval import CandidateSet, read_candidates, write_candidates
from evpirank.rng import substream

from tests.synthetic import zero_params

D, H = 3, 2  # embedding and hidden dims of the hand-written layouts


def lstm(part):
    """An LSTM's tensors: W, U and b of gates i, f, o, g, each gate its own tensor."""
    shapes = {"W": (H, D), "U": (H, H), "b": (H,)}
    return [(f"{part}/{kind}_{gate}", shapes[kind]) for kind in "WUb" for gate in "ifog"]


def ff(part, dims):
    """A feedforward net's tensors: W0, b0, W1, b1, ... over layer widths dims."""
    return [
        tensor
        for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]))
        for tensor in ((f"{part}/W{layer}", (fan_out, fan_in)), (f"{part}/b{layer}", (fan_out,)))
    ]


# Layer widths of each feedforward part: 5 hidden layers for EVPI's heads,
# 10 for a baseline's scorer, whose input is one encoding per encoder.
FF_DIMS = {
    "evpi": {"ff_ans": [4, 2, 2, 2, 2, 2, 3], "ff_util": [6, 2, 2, 2, 2, 2, 1]},
    "neural-pq": {"ff": [4] + [2] * 10 + [1]},
    "neural-pa": {"ff": [4] + [2] * 10 + [1]},
    "neural-pqa": {"ff": [6] + [2] * 10 + [1]},
}

# Each model's parts, in init and checkpoint order.
PARTS = {
    "evpi": ["lstm_post", "lstm_question", "lstm_answer", "ff_ans", "ff_util"],
    "neural-pq": ["lstm_post", "lstm_question", "ff"],
    "neural-pa": ["lstm_post", "lstm_answer", "ff"],
    "neural-pqa": ["lstm_post", "lstm_question", "lstm_answer", "ff"],
}

LAYOUTS = {
    model: [
        tensor
        for part in parts
        for tensor in (lstm(part) if part.startswith("lstm_") else ff(part, FF_DIMS[model][part]))
    ]
    for model, parts in PARTS.items()
}

MODELS = list(PARTS)

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def triples(draw) -> Triple:
    # The file holds no author or creation time; they read back as "" and 0.
    post = PostRecord(
        post_id=draw(TEXT), author_id="", title=draw(TEXT), body=draw(TEXT), created_at=0
    )
    return Triple(
        post=post,
        question=draw(TEXT),
        question_time=draw(st.integers(-(2**63), 2**63)),
        answer=draw(TEXT),
        answer_source=draw(st.sampled_from(["comment", "edit"])),
    )


@st.composite
def candidate_sets(draw) -> CandidateSet:
    n = draw(st.integers(1, 5))
    texts = st.lists(TEXT, min_size=n, max_size=n)
    return CandidateSet(
        post_id=draw(TEXT),
        post_body=draw(TEXT),
        questions=draw(texts),
        answers=draw(texts),
        source_post_ids=draw(texts),
        original_index=draw(st.integers(0, n - 1)),
    )


def fresh(model: str) -> NeuralParams:
    return NeuralParams.init(model, D, H, substream(0, f"init/{model}"))


class TestParameterLayout:
    def test_models_are_the_table(self):
        assert {model: list(parts) for model, parts in MODEL_PARTS.items()} == PARTS
        assert list(MODEL_PARTS) == MODELS

    @pytest.mark.parametrize("model", MODELS)
    def test_checkpoint_manifest(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fresh(model).tensors())
        header = path.read_bytes().split(b"\ndata\n")[0].decode("utf-8").split("\n")
        expected = [
            f"{name} {len(shape)} " + " ".join(map(str, shape)) for name, shape in LAYOUTS[model]
        ]
        assert header == ["EVPIRANK-CKPT v1", str(len(expected))] + expected

    @pytest.mark.parametrize("model", MODELS)
    def test_init_draws_parts_in_order(self, model):
        # LSTMs: W then U uniform in +-0.08, b = 1 on the forget gate; feedforward
        # layers: W uniform in +-(5/3) sqrt(6 / (fan_in + fan_out)), b = 0.
        rng = substream(0, f"init/{model}")
        params = fresh(model)
        for part in PARTS[model]:
            got = getattr(params, part)
            if part.startswith("lstm_"):
                np.testing.assert_array_equal(got.W, rng.uniform(-0.08, 0.08, size=(4 * H, D)))
                np.testing.assert_array_equal(got.U, rng.uniform(-0.08, 0.08, size=(4 * H, H)))
                np.testing.assert_array_equal(got.b, [0.0] * H + [1.0] * H + [0.0] * 2 * H)
                continue
            dims = FF_DIMS[model][part]
            assert len(got.weights) == len(dims) - 1
            for w, b, fan_in, fan_out in zip(got.weights, got.biases, dims[:-1], dims[1:]):
                limit = 5.0 / 3.0 * math.sqrt(6.0 / (fan_in + fan_out))
                np.testing.assert_array_equal(w, rng.uniform(-limit, limit, size=(fan_out, fan_in)))
                np.testing.assert_array_equal(b, np.zeros(fan_out))
        for part in {"lstm_post", "lstm_question", "lstm_answer", "ff_ans", "ff_util", "ff"}:
            if part not in PARTS[model]:
                assert getattr(params, part) is None
        assert params.model == model

    @staticmethod
    def rank(tmp_path, capsys, saved, loaded) -> tuple[int, str, Path]:
        """`rank --model loaded` of a fresh saved checkpoint over D-d embeddings."""
        ckpt, candidates = tmp_path / "model.ckpt", tmp_path / "candidates.jsonl"
        embeddings, rankings = tmp_path / "embeddings.txt", tmp_path / "rankings.jsonl"
        save_checkpoint(ckpt, fresh(saved).tensors())
        write_candidates(candidates, [CandidateSet("p", "w", ["w"] * 2, ["w"] * 2, ["q", "r"], 0)])
        embeddings.write_text("w" + " 0.5" * D + "\n", encoding="utf-8")
        code = main([
            "rank", "--candidates", str(candidates), "--embeddings", str(embeddings),
            "--model", loaded, "--checkpoint", str(ckpt), "--out", str(rankings),
        ])
        return code, capsys.readouterr().err, rankings

    @pytest.mark.parametrize("saved, loaded", list(itertools.permutations(MODELS, 2)))
    def test_checkpoint_of_another_model_is_rejected(self, tmp_path, capsys, saved, loaded):
        code, err, rankings = self.rank(tmp_path, capsys, saved, loaded)
        assert code == 2
        assert f"is not a {loaded} model of hidden size {H} over {D}-d embeddings" in err
        assert not rankings.exists()

    @pytest.mark.parametrize("model", MODELS)
    def test_checkpoint_of_its_own_model_ranks(self, tmp_path, capsys, model):
        code, _, rankings = self.rank(tmp_path, capsys, model, model)
        assert code == 0 and rankings.exists()


def zero_model(kind: str):
    """A model of kind with every weight 0, the kind of model rank loads a checkpoint into."""
    if kind == "ngrams":
        return NgramModel(np.zeros(NGRAM_FEATURE_SPACE))
    if kind == "cqa":
        return CqaModel(np.zeros(6), np.zeros(1))
    return zero_params(kind, D, H)


class TestAssignTensors:
    @pytest.mark.parametrize(
        "values, message",
        [
            ({"a": np.ones(2), "c": np.ones(3)}, "tensor 'b' is absent in the checkpoint but (3,)"),
            ({"a": np.ones(2), "b": np.ones(4)}, "tensor 'b' is (4,) in the checkpoint but (3,)"),
            ({"a": np.ones(1), "b": np.ones(4)}, "tensor 'a' is (1,) in the checkpoint but (2,)"),
            (
                {"a": np.ones(2), "b": np.ones(3), "z": np.ones((1, 1))},
                "tensor 'z' is (1, 1) in the checkpoint but absent in the model",
            ),
        ],
    )
    def test_first_difference_is_named_and_nothing_is_written(self, values, message):
        # The model's names in its order come first, then the checkpoint's others.
        tensors = {"a": np.zeros(2), "b": np.zeros(3)}
        with pytest.raises(ValueError, match=re.escape(message)):
            assign_tensors(tensors, values)
        assert not any(tensor.any() for tensor in tensors.values())

    @pytest.mark.parametrize("kind", MODELS + ["ngrams", "cqa"])
    def test_tensors_read_back_the_assigned_bits(self, kind):
        # A tensors() entry that is a copy, not the model's own array, would
        # take the write and leave the model at zero, so a second call differs.
        model = zero_model(kind)
        rng = np.random.default_rng(7)
        values = {
            name: rng.integers(0, 2**64, size=tensor.shape, dtype=np.uint64).view(np.float64)
            for name, tensor in model.tensors().items()
        }
        assign_tensors(model.tensors(), values)
        again = model.tensors()
        assert list(again) == list(values)
        for name, value in values.items():
            assert again[name].tobytes() == value.tobytes(), name


class TestRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(MODELS), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_checkpoint_is_bit_exact(self, model, embed_dim, hidden_dim, seed):
        # Every tensor holds arbitrary bit patterns: NaN payloads, infinities,
        # subnormals and signed zeros must all come back unchanged.
        rng = np.random.default_rng(seed)
        tensors = NeuralParams.init(model, embed_dim, hidden_dim, rng).tensors()
        for tensor in tensors.values():
            bits = rng.integers(0, 2**64, size=tensor.shape, dtype=np.uint64)
            tensor[...] = bits.view(np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, tensors)
            again = zero_params(model, embed_dim, hidden_dim).tensors()
            assign_tensors(again, load_checkpoint(path))
        assert list(again) == list(tensors)
        for name, tensor in tensors.items():
            assert again[name].shape == tensor.shape
            assert again[name].tobytes() == tensor.tobytes(), name

    @settings(max_examples=50, deadline=None)
    @given(st.lists(candidate_sets(), max_size=4, unique_by=lambda cs: cs.post_id))
    def test_candidates_file(self, sets):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "candidates.jsonl"
            write_candidates(path, sets)
            assert read_candidates(path) == sets

    @settings(max_examples=50, deadline=None)
    @given(st.lists(triples(), max_size=4))
    def test_triples_file(self, written):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "triples.jsonl"
            write_triples(path, written)
            assert read_triples(path) == written

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(TEXT, st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)),
            max_size=4,
            unique_by=lambda post: post[0],
        )
    )
    def test_rankings_file(self, posts):
        ranked = [rank_from_scores(post_id, scores) for post_id, scores in posts]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rankings.jsonl"
            write_rankings(path, "evpi", ranked)
            assert read_rankings(path) == ranked
