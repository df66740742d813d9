"""Command-line entry point wiring the pipeline stages together.

Subcommands: ingest, candidates, train, rank, evaluate, significance.
Exit codes: 0 success, 1 runtime failure, 2 usage error. This module alone
decides what a command accepts. Only train takes settings: --set key=value and
--seed, for the KEYS_READ of its model, each checked against its type and
minimum. Every trainable model refuses train sets that hold no negative
candidate. rank --model random and significance take --seed alone.
--embeddings goes to ingest and to train and rank of VECTOR_MODELS, and to no
other; --mode original takes --annotations only for evaluate's
--valid-histogram. A command logs each setting it reads to stderr as one
{"config": ...} JSON line, and a warning as one {"warning": ...} line.
Re-running a command with the same inputs, settings and seed reproduces its
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import types
import warnings
from pathlib import Path
from typing import Iterable, get_type_hints

import numpy as np

from . import baselines, evaluation, evpi, ingest, retrieval, training
from .embeddings import EmbeddingTable, load_embeddings_file
from .neural import assign_tensors, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainingDivergedError

MODEL_NAMES = ("random", "ngrams", "cqa", "neural-pq", "neural-pa", "neural-pqa", "evpi")
# The models that read word vectors; train and rank refuse --embeddings for any other.
VECTOR_MODELS = frozenset(MODEL_NAMES) - {"random", "ngrams"}
# train's settings are TrainConfig's fields, types and defaults. ngrams and cqa
# read only these keys; any other trainable model reads every key.
KEYS_READ: dict[str, tuple[str, ...]] = {"ngrams": ("epochs", "lr"), "cqa": ("epochs", "lr")}
_TYPES: dict[str, type] = get_type_hints(TrainConfig)
_MINIMUMS = {"hidden_dim": 1, "batch_size": 1, "epochs": 1, "patience": 0, "lr": 0.0}
SPLIT_NAMES = ("train", "tune", "test", "all")


class UsageError(Exception):
    """Bad invocation: unknown names, missing files, malformed flags."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return p


def _read(reader, path: str, what: str):
    """reader(path) on an input file; a missing or malformed file is a usage error."""
    p = _require_file(path, what)
    try:
        return reader(p)
    except ValueError as exc:
        raise UsageError(f"malformed {what} file {path}: {exc}") from None


def _load_settings(model: str, overrides: Iterable[str] = (), seed: int | None = None) -> dict:
    """The keys model reads, sorted: TrainConfig's defaults, then each `key=value`, then seed."""
    values = {key: getattr(TrainConfig, key) for key in sorted(KEYS_READ.get(model, _TYPES))}
    assignments = [assignment.partition("=") for assignment in overrides]
    if seed is not None:
        assignments.append(("seed", "=", str(seed)))
    for key, sep, raw in assignments:
        if not sep:
            raise UsageError(f"override must look like key=value, got {key!r}")
        key, raw = key.strip(), raw.strip()
        if key not in values:
            valid = ", ".join(values)
            raise UsageError(f"model {model!r} reads no config key {key!r}; valid keys: {valid}")
        try:
            value = _TYPES[key](raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"config key {key!r}: must be finite, got {raw}")
        if key in _MINIMUMS and not value >= _MINIMUMS[key]:
            raise UsageError(f"config key {key!r}: must be >= {_MINIMUMS[key]}, got {raw}")
        values[key] = value
    return values


def _load_table(args) -> EmbeddingTable | None:
    """The --embeddings table of a model in VECTOR_MODELS; any other refuses the option."""
    if args.model not in VECTOR_MODELS:
        if args.embeddings is not None:
            raise UsageError(f"--embeddings: model {args.model!r} reads no word vectors")
        return None
    if args.embeddings is None:
        raise UsageError(f"model {args.model!r} requires --embeddings")
    return _read(load_embeddings_file, args.embeddings, "embeddings")


def cmd_ingest(args) -> int:
    posts, bad_posts = ingest.read_posts(_require_file(args.posts, "posts"))
    comments, bad_comments = ingest.read_comments(_require_file(args.comments, "comments"))
    edits, bad_edits = ingest.read_edits(_require_file(args.history, "history"))
    table = _read(load_embeddings_file, args.embeddings, "embeddings")
    triples, diagnostics = ingest.build_triples(posts, comments, edits, table)
    diagnostics.malformed_lines = {
        "posts": bad_posts, "comments": bad_comments, "history": bad_edits
    }
    ingest.write_triples(args.out, triples)
    _log(diagnostics.to_json())
    return 0


def cmd_candidates(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    triples = _read(ingest.read_triples, args.triples, "triples")
    index, sets = retrieval.candidate_sets({t.post_id: t for t in triples}, k=args.k)
    if args.index_out:
        retrieval.save_index(index, args.index_out)
    retrieval.write_candidates(args.out, sets)
    if not sets:
        _log(json.dumps({"candidate_sets": 0, "warning": "no triples in input"}))
        return 0
    if len(sets) < args.k:
        warnings.warn(f"corpus has {len(sets)} posts; candidate sets are smaller than k={args.k}")
    _log(json.dumps({"candidate_sets": len(sets), "k": args.k}))
    return 0


def _split_sets(candidate_sets, split: str):
    if split == "all":
        return list(candidate_sets)
    return [cs for cs in candidate_sets if ingest.split_name(cs.post_id) == split]


def cmd_train(args) -> int:
    if args.model == "random":
        raise UsageError("model 'random' has no parameters to train")
    if args.log and args.model not in evpi.MODEL_PARTS:
        raise UsageError(f"--log: model {args.model!r} logs no epochs")
    settings = _load_settings(args.model, args.set or (), args.seed)
    _log(json.dumps({"config": settings}))
    config = TrainConfig(**settings)
    candidate_sets = _read(retrieval.read_candidates, args.candidates, "candidates")
    table = _load_table(args)
    if args.no_split:
        train_sets = tune_sets = candidate_sets
    else:
        train_sets = _split_sets(candidate_sets, "train")
        tune_sets = _split_sets(candidate_sets, "tune")
    if not train_sets or not tune_sets:
        raise UsageError(
            "empty train or tune split; use --no-split for corpora too small to split"
        )
    if all(len(cs) == 1 for cs in train_sets):  # each set's one positive is its original
        raise UsageError("training needs both positive and negative examples")

    epochs_run = config.epochs  # ngrams and cqa log no epochs but run every configured one
    if args.model in evpi.MODEL_PARTS:
        model, result = training.train(args.model, train_sets, tune_sets, table, config)
        epochs_run = len(result.log)
    elif args.model == "ngrams":
        model = baselines.ngram_train(train_sets, epochs=config.epochs, lr=config.lr)
    else:  # cqa
        model = baselines.cqa_train(train_sets, table, epochs=config.epochs, lr=config.lr)
    save_checkpoint(args.out, model.tensors())
    if args.log:  # so the model is neural: ngrams and cqa refuse --log
        with open(args.log, "w", encoding="utf-8", newline="\n") as handle:
            for entry in result.log:
                handle.write(json.dumps(dataclasses.asdict(entry)) + "\n")
    _log(json.dumps({"model": args.model, "checkpoint": args.out, "epochs_run": epochs_run}))
    return 0


def _zero_model(model_name: str, tensors: dict, table: EmbeddingTable | None):
    """A model_name model over table with zero weights, and its sizes if it is neural."""
    if model_name == "ngrams":
        return baselines.NgramModel(np.zeros(baselines.NGRAM_FEATURE_SPACE)), {}
    if model_name == "cqa":
        features = len(baselines.cqa_features("", "", table))
        return baselines.CqaModel(np.zeros(features), np.zeros(1), table), {}
    # lstm_post/U_i is (hidden, hidden); any other U_i, or none, still gives a hidden size
    hidden = max(1, math.isqrt(np.size(tensors.get("lstm_post/U_i", 1))))
    # zeros for init's random draws: the checkpoint overwrites every weight
    zeros = types.SimpleNamespace(uniform=lambda low, high, size: np.zeros(size))
    params = evpi.NeuralParams.init(model_name, table.dim, hidden, zeros)
    return training.neural_model(params, table), {"hidden_dim": hidden, "embed_dim": table.dim}


def _ranker(model_name: str, checkpoint: str | None, table: EmbeddingTable | None, seed: int):
    """A callable that ranks a list of candidate sets, one RankedList per set in order.

    Returned with the model's sizes: hidden_dim and embed_dim for a neural
    model, none for any other. The checkpoint must hold exactly the tensor
    names and shapes of the model over table; it is written into a zero
    model's own tensors. A neural model prepares the sets lazily and ranks
    them as fit's tune pass does (training.ranked_in_chunks); each distinct
    text is prepared and encoded once (up to evpi.MEMO_TEXTS texts). ngrams
    and cqa rank set by set.
    """
    if model_name == "random":
        return functools.partial(baselines.random_rankings, seed=seed), {}
    if checkpoint is None:
        raise UsageError(f"model {model_name!r} requires --checkpoint")
    tensors = _read(load_checkpoint, checkpoint, "checkpoint")
    model, sizes = _zero_model(model_name, tensors, table)
    try:
        assign_tensors(model.tensors(), tensors)
    except ValueError as exc:
        described = " of hidden size {hidden_dim} over {embed_dim}-d embeddings" if sizes else ""
        raise UsageError(
            f"checkpoint {checkpoint} is not a {model_name} model{described.format(**sizes)}: {exc}"
        ) from None
    if model_name in evpi.MODEL_PARTS:
        return (lambda sets: training.ranked_in_chunks(model, map(model.prepare, sets))), sizes
    return (lambda sets: map(model.rank, sets)), sizes


def cmd_rank(args) -> int:
    if args.model == "random":
        if args.checkpoint is not None:
            raise UsageError("model 'random' takes no --checkpoint")
        _log(json.dumps({"config": {"seed": args.seed or 0}}))
    elif args.seed is not None:
        raise UsageError(f"--seed: model {args.model!r} draws no random numbers")
    candidate_sets = _read(retrieval.read_candidates, args.candidates, "candidates")
    selected = _split_sets(candidate_sets, args.split)
    if not selected:
        raise UsageError(f"no posts in split {args.split!r}")
    table = _load_table(args)
    rank, sizes = _ranker(args.model, args.checkpoint, table, args.seed or 0)
    ranked = list(rank(sorted(selected, key=lambda cs: cs.post_id)))
    evpi.write_rankings(args.out, args.model, ranked)
    tied = sum(len(rl.scores) > 1 and rl.scores[0] == rl.scores[1] for rl in ranked)
    if tied:
        warnings.warn(f"{tied} of {len(ranked)} ranked sets tie at their top score")
    built = {"model": args.model, **sizes, "ranked_posts": len(ranked), "split": args.split}
    _log(json.dumps(built))
    return 0


def _check_label_options(args, histogram: bool = False) -> None:
    """Refuse the label options args.mode does not read; a histogram reads the annotations."""
    if args.exclude_base and args.mode != "exclude_original":
        raise UsageError("--exclude-base applies only to --mode exclude_original")
    if histogram and not args.annotations:
        raise UsageError("--valid-histogram requires --annotations")
    if args.annotations and args.mode == "original" and not histogram:
        raise UsageError("--annotations: mode 'original' reads no annotations")


def _labeled_posts(args, *rankings: list):
    """The candidate sets of the posts every rankings list ranks, and their annotations.

    Annotations of a post in the candidates file that some list does not rank
    (another split) are dropped; those of a post missing from it are kept, and
    evaluation refuses them.
    """
    candidate_sets = _read(retrieval.read_candidates, args.candidates, "candidates")
    annotations = None
    if args.annotations:
        annotations = _read(evaluation.read_annotations, args.annotations, "annotations")
    elif args.mode != "original":
        raise UsageError(f"mode {args.mode!r} requires --annotations")
    ranked = set.intersection(*({rl.post_id for rl in each} for each in rankings))
    if annotations is not None:
        unranked = {cs.post_id for cs in candidate_sets} - ranked
        annotations = [ann for ann in annotations if ann.post_id not in unranked]
    return [cs for cs in candidate_sets if cs.post_id in ranked], annotations


def cmd_evaluate(args) -> int:
    _check_label_options(args, histogram=args.valid_histogram)
    rankings = _read(evpi.read_rankings, args.rankings, "rankings")
    candidate_sets, annotations = _labeled_posts(args, rankings)
    report = evaluation.evaluate(
        rankings, annotations, candidate_sets, args.mode, args.exclude_base
    )
    model_name = args.model or "-"
    payload = report.to_dict(model=model_name, mode=args.mode)
    text = json.dumps(payload, ensure_ascii=False)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    print(report.format_table(model=model_name, mode=args.mode))
    if args.valid_histogram:
        histogram = evaluation.valid_intersection_histogram(annotations)
        print(json.dumps({"valid_intersection_histogram": histogram}))
    return 0


def cmd_significance(args) -> int:
    _check_label_options(args)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    _log(json.dumps({"config": {"seed": args.seed}}))
    rankings_a = _read(evpi.read_rankings, args.rankings_a, "rankings-a")
    rankings_b = _read(evpi.read_rankings, args.rankings_b, "rankings-b")
    candidate_sets, annotations = _labeled_posts(args, rankings_a, rankings_b)
    labelsets = evaluation.build_labelsets(
        annotations, candidate_sets, args.mode, args.exclude_base
    )
    metric_key = "ap" if args.metric == "map" else args.metric
    per_a = evaluation.per_post_metrics(rankings_a, labelsets, candidate_sets, args.mode)
    per_b = evaluation.per_post_metrics(rankings_b, labelsets, candidate_sets, args.mode)
    post_ids = sorted(per_a)
    scores_a = [per_a[p][metric_key] for p in post_ids]
    scores_b = [per_b[p][metric_key] for p in post_ids]
    p_value = evaluation.bootstrap_test(scores_a, scores_b, n=args.n, seed=args.seed)
    result = {
        "metric": args.metric,
        "mode": args.mode,
        "n_posts": len(post_ids),
        "mean_a": getattr(evaluation.mean_metrics(per_a), args.metric),
        "mean_b": getattr(evaluation.mean_metrics(per_b), args.metric),
        "p_value": p_value,
    }
    print(json.dumps(result, ensure_ascii=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpirank",
        description="Rank clarification questions by expected value of perfect information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="extract (post, question, answer) triples from dump files")
    p.add_argument("--posts", required=True)
    p.add_argument("--comments", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", required=True, help="word vectors for the answer choice")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("candidates", help="build the TF-IDF index and candidate sets")
    p.add_argument("--triples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--index-out", help="also persist the index to this path")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--candidates", required=True)
    p.add_argument("--embeddings", help="word vectors (cqa and the neural models)")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="write per-epoch loss and tune MAP to this file")
    p.add_argument(
        "--no-split",
        action="store_true",
        help="train and tune on every post instead of the hash-based splits",
    )
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="training setting")
    p.add_argument("--seed", type=int, help="root random seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank candidate questions with a trained model")
    p.add_argument("--candidates", required=True)
    p.add_argument("--embeddings", help="word vectors (cqa and the neural models)")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="all")
    p.add_argument("--seed", type=int, help="random model's seed (default 0)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="score rankings against a label regime")
    p.add_argument("--rankings", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--annotations")
    p.add_argument("--mode", required=True, choices=evaluation.MODES)
    p.add_argument("--exclude-base", choices=evaluation.EXCLUDE_BASES)
    p.add_argument("--model", help="model name for the report")
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--valid-histogram", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", help="paired bootstrap test between two rankings files")
    p.add_argument("--rankings-a", required=True)
    p.add_argument("--rankings-b", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--annotations")
    p.add_argument("--mode", required=True, choices=evaluation.MODES)
    p.add_argument("--exclude-base", choices=evaluation.EXCLUDE_BASES)
    p.add_argument("--metric", choices=("p_at_1", "p_at_3", "p_at_5", "map"), default="map")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p.set_defaults(func=cmd_significance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            # A warning is one JSON line on stderr, whatever filters the caller set.
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = lambda message, *_: _log(json.dumps({"warning": str(message)}))
            return args.func(args)
    except (UsageError, evaluation.EvaluationError) as exc:
        _log(f"error: {exc}")
        return 2
    except TrainingDivergedError as exc:
        _log(f"training diverged: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
