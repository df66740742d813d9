"""Forward-only ranking holds no float buffer with a row per token.

A whole-file chunk of the size `rank` ranks in one rank_prepared call (28
sets of ten candidates, about 14,000 tokens, 200-d vectors, hidden 100) is
ranked under tracemalloc. Per-token buffers of that chunk would take tens
of MB: its LSTM inputs alone are 14,000 x 200 doubles (22 MB), its gate
pre-activations 14,000 x 400 (45 MB). Forward-only encoding holds token ids,
one step's gathered vectors and rows per text and per candidate, which
BUDGET_MB bounds. Each group of a split pass (neural.GROUP_SEQUENCES) holds
its own step buffers; the budget covers one thread and the split alike.
"""

import os
import tracemalloc

import numpy as np
import pytest

from evpirank.baselines import NeuralBaselineModel
from evpirank.evpi import EvpiModel, NeuralParams
from evpirank.retrieval import CandidateSet
from evpirank.rng import substream

from tests.synthetic import make_embedding_table

EMBED_DIM = 200
HIDDEN_DIM = 100
SETS = 28
BUDGET_MB = 6.0


def chunk(rng, words):
    """SETS candidate sets of ten candidates, and their token count."""

    def text(lo, hi):
        return " ".join(rng.choice(words, size=int(rng.integers(lo, hi + 1))))

    sets = [
        CandidateSet(
            post_id=f"m{i:02d}",
            post_body=text(40, 200),
            questions=[text(2, 37) for _ in range(10)],
            answers=[text(1, 40) for _ in range(10)],
            source_post_ids=[f"s{i}-{j}" for j in range(10)],
            original_index=0,
        )
        for i in range(SETS)
    ]
    tokens = sum(
        len(t.split()) for cs in sets for t in [cs.post_body, *cs.questions, *cs.answers]
    )
    return sets, tokens


@pytest.mark.parametrize("cpus", [1, 2, 4], ids=["one-thread", "split-2", "split-4"])
@pytest.mark.parametrize("model_name", ["evpi", "neural-pqa"])
def test_ranking_a_whole_file_chunk_stays_within_budget(model_name, cpus, monkeypatch):
    # 280 question and 280 answer texts: one group per usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    rng = substream(0, f"test/rank-memory/{model_name}")
    words = [f"w{k}" for k in range(2000)]
    table = make_embedding_table(words, EMBED_DIM, rng)
    params = NeuralParams.init(model_name, EMBED_DIM, HIDDEN_DIM, rng)
    model = (EvpiModel if model_name == "evpi" else NeuralBaselineModel)(params, table)
    sets, tokens = chunk(rng, np.array(words))
    assert tokens > 10_000
    preps = [model.prepare(cs) for cs in sets]
    tracemalloc.start()
    try:
        ranked = model.rank_prepared(preps)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert [rl.post_id for rl in ranked] == [cs.post_id for cs in sets]
    assert peak_mb < BUDGET_MB, f"{peak_mb:.2f} MB over {tokens} tokens"
