"""The neural models' parameter layout, and round trips across the file boundaries.

Each model's parts, checkpoint manifest and init draws are written out
here by hand, not taken from MODEL_PARTS, so a change to the layout or to
the init order fails here whatever platform the tests run on.
"""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank.evpi import MODEL_PARTS, NeuralParams, rank_from_scores, read_rankings, write_rankings
from evpirank.ingest import PostRecord, Triple, read_triples, write_triples
from evpirank.neural import load_checkpoint, save_checkpoint
from evpirank.retrieval import CandidateSet, read_candidates, write_candidates
from evpirank.rng import substream

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

    @pytest.mark.parametrize("saved, loaded", list(itertools.permutations(MODELS, 2)))
    def test_checkpoint_of_another_model_is_rejected(self, saved, loaded):
        with pytest.raises(ValueError):
            NeuralParams.from_tensors(loaded, fresh(saved).tensors())


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
            again = NeuralParams.from_tensors(model, load_checkpoint(path)).tensors()
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
