"""Span tracing of evpirank from outside the package.

The tracer wraps public functions and methods of the evpirank modules in
place: every module attribute that is bound to a traced function (so also
the names that `from .neural import lstm_forward` copied into evpi,
baselines and training) is replaced by one shared wrapper, and methods are
replaced on their classes. Nothing under src/ changes.

A span is [name, start, end, parent index, stage, counts]. Spans stay in
memory and are written out once, when the worker ends. Counts are taken
after a span has closed, so their cost falls in the parent span's self time
and shows up in the trace overhead rather than in the layer's busy time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _read(args, result):
    records, malformed = result
    return {"lines": len(records) + malformed, "malformed": malformed}


def _build_triples(args, result):
    diag = result[1]
    return {"posts_in": diag.posts_in, "triples_out": diag.triples_out}


def _build_index(args, result):
    return {"docs": result.doc_count, "terms": len(result.vocabulary)}


def _top_k(args, result):
    index, query = args[0], args[1]
    scanned = 0
    for term in set(query):
        term_id = index.vocabulary.get(term)
        if term_id is not None:
            scanned += len(index.postings[term_id])
    pads = sum(1 for _, score in result if score == 0.0)
    return {"postings": scanned, "pads": pads, "slots": len(result)}


def _words(args, result):
    return {"words": len(result)}


def _avg_vector(args, result):
    tokens = _sized(args[1])
    return {"tokens": tokens, "found": round(result.coverage * tokens)}


def _lstm_forward(args, result):
    params, xs = args[0], args[1]
    steps = _sized(xs)
    hidden, inputs = params.hidden_dim, params.input_dim
    # Gate matrix-vector products only: 4 gates x (W x + U h), 2 flops per MAC.
    return {"tokens": steps, "flops": 8 * hidden * (inputs + hidden) * steps}


def _lstm_backward(args, result):
    cache = args[1]
    return {"tokens": 0 if cache is None else cache.h.shape[0]}


def _prepare(args, result):
    weights = result.sim_weights
    original = result.cs.original_index
    active = sum(1 for j, w in enumerate(weights) if j != original and w != 0.0)
    return {"active": active, "others": len(weights) - 1}


def _fit(args, result):
    return {"epochs": len(result.log)}


def _evaluate(args, result):
    return {"posts": result.n_posts}


# (span name, module, attribute, counter). Several attributes may share one
# span name: read_posts, read_comments and read_edits all report ingest.read.
FUNCTIONS = [
    ("ingest.read", "ingest", "read_posts", _read),
    ("ingest.read", "ingest", "read_comments", _read),
    ("ingest.read", "ingest", "read_edits", _read),
    ("ingest.build_triples", "ingest", "build_triples", _build_triples),
    ("ingest.write_triples", "ingest", "write_triples", None),
    ("retrieval.build_index", "retrieval", "build_index", _build_index),
    ("retrieval.save_index", "retrieval", "save_index", None),
    ("retrieval.top_k", "retrieval", "top_k", _top_k),
    ("retrieval.write_candidates", "retrieval", "write_candidates", None),
    ("retrieval.read_candidates", "retrieval", "read_candidates", None),
    ("embeddings.load_embeddings_file", "embeddings", "load_embeddings_file", _words),
    ("embeddings.avg_vector", "embeddings", "avg_vector", _avg_vector),
    ("embeddings.cos_sim", "embeddings", "cos_sim", None),
    ("neural.lstm_forward", "neural", "lstm_forward", _lstm_forward),
    ("neural.lstm_backward", "neural", "lstm_backward", _lstm_backward),
    ("neural.feedforward_forward", "neural", "feedforward_forward", None),
    ("neural.feedforward_backward", "neural", "feedforward_backward", None),
    ("neural.adam_step", "neural", "adam_step", None),
    ("neural.load_checkpoint", "neural", "load_checkpoint", None),
    ("neural.save_checkpoint", "neural", "save_checkpoint", None),
    ("training.fit", "training", "fit", _fit),
    ("training.original_mode_map", "training", "original_mode_map", None),
    ("evaluation.evaluate", "evaluation", "evaluate", _evaluate),
]

# (span name, module, class, method, counter)
METHODS = [
    ("evpi.prepare", "evpi", "EvpiModel", "prepare", _prepare),
    ("evpi.loss_and_grads", "evpi", "EvpiModel", "loss_and_grads", None),
    ("evpi.rank_prepared", "evpi", "EvpiModel", "rank_prepared", None),
    ("baselines.prepare", "baselines", "NeuralBaselineModel", "prepare", None),
    ("baselines.loss_and_grads", "baselines", "NeuralBaselineModel", "loss_and_grads", None),
    ("baselines.rank_prepared", "baselines", "NeuralBaselineModel", "rank_prepared", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stage: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.stage, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in loaded evpirank modules."""
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("evpirank.")]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[f"evpirank.{module}"], attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method, count in METHODS:
            cls = getattr(sys.modules[f"evpirank.{module}"], cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method), count))

    def run_stage(self, stage: str, fn, *args):
        """Run fn(*args) as the root span cli.<stage>."""
        self.stage = stage
        try:
            return self.wrap(f"cli.{stage}", fn)(*args)
        finally:
            self.stage = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]
