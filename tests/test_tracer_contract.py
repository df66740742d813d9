"""The names and fields perfbench's out-of-tree tracer relies on.

perfbench/tracer.py wraps evpirank functions and methods by name and its
counters read fields of their arguments and results. This loads the tracer
read-only (no bytecode is written under perfbench/), resolves every entry it
wraps, and runs each counter on a real result, so a change under src/ that
breaks `perfbench/run.py --trace 1` fails here too.
"""

import importlib
import os
import sys
import types
from pathlib import Path

import pytest

from evpirank import baselines, cli, embeddings, evaluation, evpi, ingest, neural, retrieval, training
from evpirank.rng import substream

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
DUMP = FIXTURES / "dump"
CANDIDATES = FIXTURES / "golden" / "candidates.jsonl"


def _load_tracer() -> types.ModuleType:
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


TRACER = _load_tracer()


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """One real call of every counted function on the test fixture: name -> (args, result).

    Training and ranking run with the tracer's wrappers on the traced
    methods, so prepare and rank_prepared take the arguments fit and `rank`
    pass them; "spans" holds the names of the spans they recorded.
    """
    table = embeddings.load_embeddings_file(FIXTURES / "embeddings_toy.txt")
    posts = ingest.read_posts(DUMP / "posts.jsonl")
    built = ingest.build_triples(
        posts[0],
        ingest.read_comments(DUMP / "comments.jsonl")[0],
        ingest.read_edits(DUMP / "history.jsonl")[0],
        table=table,
    )
    sets = retrieval.read_candidates(CANDIDATES)
    docs = sorted((t.post_id, retrieval.doc_text(t.post_title, t.post_body)) for t in built[0])
    index = retrieval.build_index(docs)
    query = retrieval.tokenize(docs[0][1])
    tokens = retrieval.tokenize(sets[0].post_body) + ["cpu", "ram"]

    rng = substream(0, "test/tracer-contract")
    lstm = neural.LstmParams.init(table.dim, 3, rng)
    ids = table.token_ids(["cpu", "ram", "cpu", "ram", "ram"])
    means, cache = neural.lstm_forward(lstm, ids, [3, 0, 2], table.gather)
    d_means = rng.normal(size=means.shape)

    config = training.TrainConfig(hidden_dim=3, epochs=1, seed=0)
    tracer = TRACER.Tracer()
    root = tmp_path_factory.mktemp("traced")
    with pytest.MonkeyPatch.context() as mp:
        for name, module, cls_name, method, count in TRACER.METHODS:
            cls = getattr(importlib.import_module(f"evpirank.{module}"), cls_name)
            mp.setattr(cls, method, tracer.wrap(name, getattr(cls, method), count))
        mp.setattr(training, "RANK_CHUNK", 3)
        for model_name in ("neural-pqa", "evpi"):
            model, fit_result = training.train(model_name, sets, sets, table, config)
            neural.save_checkpoint(root / "model.ckpt", model.tensors())
            assert cli.main([
                "rank", "--model", model_name, "--candidates", str(CANDIDATES),
                "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
                "--checkpoint", str(root / "model.ckpt"), "--out", str(root / "out.rank"),
            ]) == 0
        prepared = model.prepare(sets[0])
    rankings = baselines.random_rankings(sets)
    return {
        "_read": ((DUMP / "posts.jsonl",), posts),
        "_build_triples": ((), built),
        "_build_index": ((docs,), index),
        "_top_k": ((index, query), retrieval.top_k(index, query)),
        "_words": ((FIXTURES / "embeddings_toy.txt",), table),
        "_avg_vector": ((table, tokens), embeddings.avg_vector(table, tokens)),
        "_lstm_forward": ((lstm, ids, [3, 0, 2], table.gather), (means, cache)),
        "_lstm_backward": ((lstm, cache, d_means), neural.lstm_backward(lstm, cache, d_means)),
        "_prepare": ((model, sets[0]), prepared),
        "_fit": ((), fit_result),
        "_evaluate": ((), evaluation.evaluate(rankings, None, sets, "original")),
        "spans": {span[0] for span in tracer.spans},
    }


def test_every_traced_function_resolves():
    for _, module, attr, _ in TRACER.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"evpirank.{module}"), attr))


def test_every_traced_method_resolves():
    for _, module, cls_name, method, _ in TRACER.METHODS:
        cls = getattr(importlib.import_module(f"evpirank.{module}"), cls_name)
        assert callable(getattr(cls, method))


def test_every_counter_runs_on_a_real_result(fixture_run):
    counters = {entry[-1] for entry in TRACER.FUNCTIONS + TRACER.METHODS} - {None}
    assert {count.__name__ for count in counters} == set(fixture_run) - {"spans"}
    for count in counters:
        args, result = fixture_run[count.__name__]
        counts = count(args, result)
        assert counts and all(isinstance(v, int) and v >= 0 for v in counts.values()), count


def test_counter_values(fixture_run):
    def counts(name):
        args, result = fixture_run[name]
        return getattr(TRACER, name)(args, result)

    assert counts("_words") == {"words": 4}
    assert counts("_build_index")["docs"] == 7
    assert counts("_top_k") == {"postings": 15, "pads": 3, "slots": 7}  # 7 posts < k = 10
    assert counts("_avg_vector")["found"] >= 2  # "cpu" and "ram" are in the table
    assert counts("_lstm_forward")["tokens"] == 5  # the length of the id array
    assert counts("_lstm_backward") == {"tokens": 5}
    assert counts("_prepare")["others"] == len(fixture_run["_prepare"][0][1]) - 1
    assert counts("_fit") == {"epochs": 1}
    assert counts("_evaluate") == {"posts": 7}


def test_traced_methods_run_in_train_and_rank(fixture_run):
    # Every traced method ran through its wrapper in fit and in `rank`.
    assert {name for name, *_ in TRACER.METHODS} <= fixture_run["spans"]


def test_a_traced_rank_records_one_lstm_span_per_model_and_chunk(tmp_path, monkeypatch):
    # Two usable CPUs and no floors: helper threads step groups of every call,
    # and must not open spans on the tracer's one stack.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(neural, "GROUP_SEQUENCES", 1)
    monkeypatch.setattr(neural, "GROUP_FLOPS", 1)
    sets = sorted(retrieval.read_candidates(CANDIDATES), key=lambda cs: cs.post_id)  # rank's order
    # vectors for every word of the file, so each post is a text of its own
    words = sorted({w for cs in sets for t in [cs.post_body, *cs.questions, *cs.answers]
                    for w in retrieval.tokenize(t)})
    rng = substream(0, "test/traced-rank")
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} {rng.normal():.3f} {rng.normal():.3f}\n" for w in words),
                       encoding="utf-8")
    table = embeddings.load_embeddings_file(vectors)
    tracer = TRACER.Tracer()
    name, _, _, count = next(e for e in TRACER.FUNCTIONS if e[0] == "neural.lstm_forward")
    original = neural.lstm_forward
    wrapper = tracer.wrap(name, original, count)
    for key, module in list(sys.modules.items()):
        if key.startswith("evpirank."):
            for attr in [attr for attr, value in vars(module).items() if value is original]:
                monkeypatch.setattr(module, attr, wrapper)
    batch_size = 3
    monkeypatch.setattr(training, "RANK_CHUNK", batch_size)
    chunks = [sets[i : i + batch_size] for i in range(0, len(sets), batch_size)]
    for model_name in ("evpi", "neural-pqa"):
        params = evpi.NeuralParams.init(model_name, table.dim, 3, rng)
        neural.save_checkpoint(tmp_path / "model.ckpt", params.tensors())
        tracer.spans.clear()
        assert cli.main([
            "rank", "--model", model_name, "--candidates", str(CANDIDATES),
            "--embeddings", str(vectors), "--checkpoint", str(tmp_path / "model.ckpt"),
            "--out", str(tmp_path / "out.rank"),
        ]) == 0
        # each chunk encodes, per encoder, the distinct texts no earlier chunk held
        model = cli._zero_model(model_name, params.tensors(), table)[0]
        encoded: set = set()
        tokens = []
        for chunk in chunks:
            preps = [model.prepare(cs) for cs in chunk]
            texts = {
                (part, ids.tobytes())
                for prep in preps
                for part, texts_of in (("post", [prep.post_tokens]),
                                       ("question", prep.question_tokens),
                                       ("answer", prep.answer_tokens))
                if getattr(params, f"lstm_{part}") is not None
                for ids in texts_of
            }
            tokens.append(sum(len(ids) // 8 for _, ids in texts - encoded))
            encoded |= texts
        spans = [span for span in tracer.spans if span[0] == name]
        assert spans == tracer.spans, model_name
        assert [span[5]["tokens"] for span in spans] == tokens, model_name
        assert len(spans) == len(chunks) and all(tokens), model_name
