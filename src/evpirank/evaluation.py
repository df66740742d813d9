"""Ranking metrics, label regimes, and significance testing.

Rankings are scored with precision at k and mean average precision against
one of four label regimes: the union of the two annotators' best picks, the
intersection of their valid sets, the original question alone, or the
annotation labels restricted to the nine non-original candidates. A run of
equal scores along a ranking is one tie group, scored by the metric's
expected value over the group's orderings (McSherry and Najork, ECIR 2008).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .evpi import RankedList
from .retrieval import CandidateSet, read_jsonl
from .rng import substream

MODES = ("best_union", "valid_intersection", "original", "exclude_original")
EXCLUDE_BASES = ("best_union", "valid_intersection")


class EvaluationError(ValueError):
    pass


@dataclass
class Annotation:
    """One expert's labels for a post: a single best pick and a valid set."""

    post_id: str
    annotator_id: str
    best: int
    valid: set[int]

    def __post_init__(self):
        if self.best not in self.valid:
            raise EvaluationError(
                f"post {self.post_id!r}: best candidate {self.best} must be marked valid"
            )


@dataclass
class LabelSet:
    post_id: str
    relevant: set[int]


@dataclass
class MetricReport:
    """The mean metrics over n_posts scored posts, in report order."""

    n_posts: int
    p_at_1: float
    p_at_3: float
    p_at_5: float
    map: float

    def to_dict(self, model: str, mode: str) -> dict:
        return {"model": model, "mode": mode, **asdict(self)}

    def format_table(self, model: str = "", mode: str = "") -> str:
        header = f"{'model':<14} {'mode':<20} {'n':>5} {'p@1':>7} {'p@3':>7} {'p@5':>7} {'MAP':>7}"
        row = (
            f"{model or '-':<14} {mode or '-':<20} {self.n_posts:>5} "
            f"{self.p_at_1:>7.4f} {self.p_at_3:>7.4f} {self.p_at_5:>7.4f} {self.map:>7.4f}"
        )
        return header + "\n" + row


def _tie_groups(order: Sequence[int], relevant: set[int], scores: Sequence[float]):
    """(first position, size, relevant count) of each run of equal scores along order."""
    start = 0
    for end in range(1, len(order) + 1):
        if end == len(order) or scores[end] != scores[start]:
            yield start, end - start, len(relevant.intersection(order[start:end]))
            start = end


def precision_at_k(
    order: Sequence[int], relevant: set[int], k: int, scores: Sequence[float]
) -> float:
    """Expected fraction of the top-k ranked candidates that are relevant.

    A tie group with m of its g positions in the top k puts each of its
    relevant candidates there with probability m/g.
    """
    if k < 1:
        raise EvaluationError("k must be >= 1")
    groups = _tie_groups(order, relevant, scores)
    return sum(max(0, min(k - start, size)) * found / size for start, size, found in groups) / k


def average_precision(order: Sequence[int], relevant: set[int], scores: Sequence[float]) -> float:
    """Expected average of precision at each rank holding a relevant candidate.

    Position j of a tie group of size g with r relevant candidates, after
    h relevant ones, holds one with probability r/g, and then is preceded
    by h + 1 + j(r - 1)/(g - 1) of them in expectation, itself included.
    """
    if not relevant:
        raise EvaluationError("relevant set is empty")
    hits = 0
    total = 0.0
    for start, size, found in _tie_groups(order, relevant, scores):
        for j in range(size if found else 0):
            preceding = hits + 1 + j * (found - 1) / max(1, size - 1)
            total += found / size * preceding / (start + j + 1)
        hits += found
    return total / len(relevant)


def _annotation_pairs(
    annotations: Iterable[Annotation],
) -> dict[str, tuple[Annotation, Annotation]]:
    grouped: dict[str, list[Annotation]] = {}
    for ann in annotations:
        grouped.setdefault(ann.post_id, []).append(ann)
    pairs = {}
    for post_id, anns in grouped.items():
        if len(anns) != 2:
            raise EvaluationError(
                f"post {post_id!r}: expected exactly two annotators, got {len(anns)}"
            )
        pairs[post_id] = (anns[0], anns[1])
    return pairs


def build_labelsets(
    annotations: Iterable[Annotation] | None,
    candidate_sets: Sequence[CandidateSet],
    mode: str,
    exclude_base: str | None = None,
) -> list[LabelSet]:
    """Relevant-candidate sets per post for the requested regime.

    best_union takes the union of the two best picks; valid_intersection the
    intersection of the valid sets (posts with an empty intersection are
    dropped with a warning). original marks only the post's own question.
    exclude_original removes the original index from the exclude_base labels
    (best_union if None) and evaluates over the nine remaining candidates;
    posts left with no labels are dropped with a warning.
    """
    if mode not in MODES:
        raise EvaluationError(f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
    by_post = {cs.post_id: cs for cs in candidate_sets}
    if mode == "original":
        return [
            LabelSet(post_id=cs.post_id, relevant={cs.original_index})
            for cs in candidate_sets
        ]
    if annotations is None:
        raise EvaluationError(f"mode {mode!r} requires annotations")
    base = (exclude_base or "best_union") if mode == "exclude_original" else mode
    if base not in EXCLUDE_BASES:
        raise EvaluationError(
            f"unknown exclude base {exclude_base!r}; valid: {', '.join(EXCLUDE_BASES)}"
        )
    pairs = _annotation_pairs(annotations)
    labelsets = []
    dropped = 0
    for post_id in sorted(pairs):
        if post_id not in by_post:
            raise EvaluationError(f"annotations reference unknown post {post_id!r}")
        first, second = pairs[post_id]
        n_candidates = len(by_post[post_id])
        for idx in sorted(first.valid | second.valid):
            if not 0 <= idx < n_candidates:
                raise EvaluationError(
                    f"post {post_id!r}: candidate index {idx} out of range for "
                    f"{n_candidates} candidates"
                )
        if base == "best_union":
            relevant = {first.best, second.best}
        else:
            relevant = first.valid & second.valid
        if mode == "exclude_original":
            relevant -= {by_post[post_id].original_index}
        if not relevant:
            dropped += 1
            continue
        labelsets.append(LabelSet(post_id=post_id, relevant=relevant))
    if dropped:
        warnings.warn(f"dropped {dropped} posts with no relevant labels", stacklevel=2)
    return labelsets


def bootstrap_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    n: int = 10000,
    seed: int = 0,
) -> float:
    """Two-sided paired bootstrap p-value over per-post scores.

    Posts are resampled with replacement; the p-value is twice the fraction
    of resamples whose mean difference contradicts the observed direction,
    capped at 1. Identical inputs give p = 1.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError("score lists must be 1-d and equally long")
    if a.size < 2:
        raise EvaluationError("need at least two paired scores")
    diff = a - b
    observed = float(diff.mean())
    if observed == 0.0:
        return 1.0
    rng = substream(seed, "bootstrap")
    sign = 1.0 if observed > 0 else -1.0
    contradictions = 0
    chunk = 1000
    done = 0
    while done < n:
        m = min(chunk, n - done)
        idx = rng.integers(0, a.size, size=(m, a.size))
        resampled = diff[idx].mean(axis=1)
        contradictions += int(np.count_nonzero(resampled * sign <= 0.0))
        done += m
    return min(1.0, 2.0 * contradictions / n)


def _mode_ranking(ranked: RankedList, cs: CandidateSet, mode: str) -> tuple[list, list]:
    """ranked's order and scores; exclude_original drops the original from both."""
    dropped = cs.original_index if mode == "exclude_original" else None
    kept = [(idx, score) for idx, score in zip(ranked.order, ranked.scores) if idx != dropped]
    return [idx for idx, _ in kept], [score for _, score in kept]


def per_post_metrics(
    rankings: Sequence[RankedList],
    labelsets: Sequence[LabelSet],
    candidate_sets: Sequence[CandidateSet],
    mode: str,
) -> dict[str, dict[str, float]]:
    """p@1/3/5 and AP per labeled post; missing rankings are an error."""
    ranked_by_post = {rl.post_id: rl for rl in rankings}
    cs_by_post = {cs.post_id: cs for cs in candidate_sets}
    out: dict[str, dict[str, float]] = {}
    for labelset in sorted(labelsets, key=lambda ls: ls.post_id):
        ranked = ranked_by_post.get(labelset.post_id)
        if ranked is None:
            raise EvaluationError(f"no ranking for labeled post {labelset.post_id!r}")
        cs = cs_by_post.get(labelset.post_id)
        if cs is None:
            raise EvaluationError(f"no candidate set for post {labelset.post_id!r}")
        if sorted(ranked.order) != list(range(len(cs))):
            raise EvaluationError(
                f"post {labelset.post_id!r}: ranking order {ranked.order} is not a "
                f"permutation of its {len(cs)} candidates"
            )
        order, scores = _mode_ranking(ranked, cs, mode)
        out[labelset.post_id] = {
            "p_at_1": precision_at_k(order, labelset.relevant, 1, scores),
            "p_at_3": precision_at_k(order, labelset.relevant, 3, scores),
            "p_at_5": precision_at_k(order, labelset.relevant, 5, scores),
            "ap": average_precision(order, labelset.relevant, scores),
        }
    return out


def evaluate(
    rankings: Sequence[RankedList],
    annotations: Iterable[Annotation] | None,
    candidate_sets: Sequence[CandidateSet],
    mode: str,
    exclude_base: str | None = None,
) -> MetricReport:
    """Aggregate p@k (k = 1, 3, 5) and MAP over the labeled posts."""
    labelsets = build_labelsets(annotations, candidate_sets, mode, exclude_base)
    return mean_metrics(per_post_metrics(rankings, labelsets, candidate_sets, mode))


def mean_metrics(per_post: dict[str, dict[str, float]]) -> MetricReport:
    """The mean of each per_post_metrics value, AP's as MAP."""
    if not per_post:
        raise EvaluationError("no posts to evaluate")
    values = list(per_post.values())
    return MetricReport(
        n_posts=len(values),
        p_at_1=float(np.mean([v["p_at_1"] for v in values])),
        p_at_3=float(np.mean([v["p_at_3"] for v in values])),
        p_at_5=float(np.mean([v["p_at_5"] for v in values])),
        map=float(np.mean([v["ap"] for v in values])),
    )


def valid_intersection_histogram(annotations: Iterable[Annotation]) -> dict[int, int]:
    """Distribution of |valid_1 & valid_2| across posts (a CLI convenience)."""
    pairs = _annotation_pairs(annotations)
    histogram: dict[int, int] = {}
    for first, second in pairs.values():
        size = len(first.valid & second.valid)
        histogram[size] = histogram.get(size, 0) + 1
    return dict(sorted(histogram.items()))


def read_annotations(path: str | Path) -> list[Annotation]:
    """Load annotations.jsonl: post_id, annotator_id, best, valid[], once per post and annotator."""
    return read_jsonl(
        path, Annotation, key=lambda a: f"post {a.post_id!r}: annotator {a.annotator_id!r}",
        error=EvaluationError,
    )
