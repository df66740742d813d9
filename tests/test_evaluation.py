"""Metrics, label regimes, kappa, bootstrap, and the evaluate aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpirank.evaluation import (
    Annotation,
    EvaluationError,
    LabelSet,
    average_precision,
    build_labelsets,
    bootstrap_test,
    evaluate,
    per_post_metrics,
    precision_at_k,
    read_annotations,
    valid_intersection_histogram,
)
from evpirank.evpi import RankedList
from evpirank.retrieval import CandidateSet

from tests.oracles import (
    brute_average_precision,
    brute_precision_at_k,
    brute_tied_metrics,
    cohen_kappa,
)


def candidate_set(post_id: str, original: int = 0, n: int = 10) -> CandidateSet:
    return CandidateSet(
        post_id=post_id,
        post_body="body",
        questions=[f"q{j}?" for j in range(n)],
        answers=[f"a{j}" for j in range(n)],
        source_post_ids=[f"s{j}" for j in range(n)],
        original_index=original,
    )


def falling(n: int) -> list[float]:
    """Strictly falling scores of n ranked candidates, so no two tie."""
    return [float(n - r) for r in range(n)]


def ranking(post_id: str, order) -> RankedList:
    n = len(order)
    return RankedList(post_id=post_id, order=list(order), scores=[(n - r) / n for r in range(n)])


def annotation(post_id, annotator, best, valid):
    return Annotation(post_id=post_id, annotator_id=annotator, best=best, valid=set(valid))


class TestPrecisionAtK:
    def test_single_relevant_at_top(self):
        assert precision_at_k([3, 1, 2], {3}, 1, falling(3)) == 1.0

    def test_two_of_three(self):
        order = [5, 1, 2, 0]
        assert precision_at_k(order, {1, 2}, 3, falling(4)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert precision_at_k([0, 1, 2], {8, 9}, 3, falling(3)) == 0.0


class TestAveragePrecision:
    def test_relevant_at_rank_one(self):
        assert average_precision([2, 0, 1], {2}, falling(3)) == 1.0

    def test_relevant_at_rank_two(self):
        assert average_precision([0, 2, 1], {2}, falling(3)) == 0.5

    def test_two_relevant_at_ranks_one_and_three(self):
        got = average_precision([4, 0, 7, 1], {4, 7}, falling(4))
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)

    def test_empty_relevant_set_is_error(self):
        with pytest.raises(EvaluationError, match="relevant set is empty"):
            average_precision([0, 1], set(), falling(2))

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            order = [int(v) for v in rng.permutation(n)]
            m = int(rng.integers(1, n + 1))
            relevant = set(int(v) for v in rng.choice(n, size=m, replace=False))
            for k in (1, 3, 5):
                assert precision_at_k(order, relevant, k, falling(n)) == pytest.approx(
                    brute_precision_at_k(order, relevant, k), abs=1e-12
                )
            assert average_precision(order, relevant, falling(n)) == pytest.approx(
                brute_average_precision(order, relevant), abs=1e-12
            )


@st.composite
def ranked_with_relevant(draw):
    """(order, relevant): a permutation of range(n) and a non-empty subset of it."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    relevant = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return order, relevant


class TestMetricsAgainstBruteForce:
    """A tie-free ranking keeps every bit of the metric summed along its order."""

    @settings(max_examples=200, deadline=None)
    @given(ranked_with_relevant(), st.integers(1, 14))
    def test_precision_at_k(self, ranked, k):
        order, relevant = ranked
        got = precision_at_k(order, relevant, k, falling(len(order)))
        assert got == brute_precision_at_k(order, relevant, k)

    @settings(max_examples=200, deadline=None)
    @given(ranked_with_relevant())
    def test_average_precision(self, ranked):
        order, relevant = ranked
        got = average_precision(order, relevant, falling(len(order)))
        assert got == brute_average_precision(order, relevant)


@st.composite
def tied_ranking(draw):
    """(order, scores, relevant): scores non-increasing along order, drawn from few values."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    scores = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    relevant = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return order, scores[::-1], relevant


class TestTiedScores:
    """A run of equal scores is scored by the expected metric over its orderings."""

    @settings(max_examples=200, deadline=None)
    @given(tied_ranking(), st.integers(1, 8))
    def test_metrics_are_the_mean_over_every_tie_ordering(self, ranked, k):
        order, scores, relevant = ranked
        p_at_k, ap = brute_tied_metrics(order, scores, relevant, k)
        assert precision_at_k(order, relevant, k, scores) == pytest.approx(p_at_k, abs=1e-12)
        assert average_precision(order, relevant, scores) == pytest.approx(ap, abs=1e-12)

    def test_exclude_original_drops_the_original_from_order_and_scores(self):
        # Without the original, 1 and 2 tie at the top: P@1 1/2 and AP (1 + 1/2) / 2.
        cs = candidate_set("p1", original=0, n=4)
        ranked = RankedList(post_id="p1", order=[0, 1, 2, 3], scores=[0.5, 0.5, 0.5, 0.1])
        labelsets = [LabelSet(post_id="p1", relevant={2})]
        got = per_post_metrics([ranked], labelsets, [cs], "exclude_original")["p1"]
        assert got["p_at_1"] == 0.5
        assert got["ap"] == 0.75


class TestBuildLabelsets:
    def annotations(self):
        return [
            annotation("p1", "a1", best=2, valid=[1, 2, 3]),
            annotation("p1", "a2", best=7, valid=[2, 3, 5, 7]),
        ]

    def test_best_union(self):
        sets = build_labelsets(self.annotations(), [candidate_set("p1")], "best_union")
        assert sets[0].relevant == {2, 7}

    def test_valid_intersection(self):
        sets = build_labelsets(self.annotations(), [candidate_set("p1")], "valid_intersection")
        assert sets[0].relevant == {2, 3}

    def test_original_mode_needs_no_annotations(self):
        sets = build_labelsets(None, [candidate_set("p1", original=4)], "original")
        assert sets[0].relevant == {4}

    def test_empty_intersection_dropped_with_warning(self):
        annotations = [
            annotation("p1", "a1", best=1, valid=[1]),
            annotation("p1", "a2", best=2, valid=[2]),
        ]
        with pytest.warns(UserWarning, match="dropped 1"):
            sets = build_labelsets(annotations, [candidate_set("p1")], "valid_intersection")
        assert sets == []

    def test_exclude_original_removes_original(self):
        annotations = [
            annotation("p1", "a1", best=0, valid=[0, 3]),
            annotation("p1", "a2", best=3, valid=[0, 3]),
        ]
        sets = build_labelsets(annotations, [candidate_set("p1", original=0)], "exclude_original")
        assert sets[0].relevant == {3}

    def test_exclude_original_only_original_relevant_drops_post(self):
        annotations = [
            annotation("p1", "a1", best=0, valid=[0]),
            annotation("p1", "a2", best=0, valid=[0]),
        ]
        with pytest.warns(UserWarning, match="dropped 1"):
            sets = build_labelsets(annotations, [candidate_set("p1", original=0)], "exclude_original")
        assert sets == []

    def test_missing_annotator_pair_is_error(self):
        with pytest.raises(EvaluationError, match="two annotators"):
            build_labelsets(
                [annotation("p1", "a1", best=1, valid=[1])], [candidate_set("p1")], "best_union"
            )

    def test_unknown_mode_is_error(self):
        with pytest.raises(EvaluationError, match="mode"):
            build_labelsets(self.annotations(), [candidate_set("p1")], "bogus")

    def test_best_must_be_valid(self):
        with pytest.raises(EvaluationError, match="valid"):
            annotation("p1", "a1", best=4, valid=[1, 2])

    def test_index_beyond_the_candidate_set_is_error(self):
        annotations = [
            annotation("p1", "a1", best=7, valid=[1, 7]),
            annotation("p1", "a2", best=1, valid=[1]),
        ]
        with pytest.raises(EvaluationError, match="post .p1.: candidate index 7 out of range"):
            build_labelsets(annotations, [candidate_set("p1", n=3)], "best_union")

    def test_index_past_nine_is_valid_in_a_larger_set(self):
        # Candidate sets built with --k 20 hold indices up to 19.
        annotations = [
            annotation("p1", "a1", best=15, valid=[15, 19]),
            annotation("p1", "a2", best=19, valid=[12, 19]),
        ]
        sets = build_labelsets(annotations, [candidate_set("p1", n=20)], "valid_intersection")
        assert sets[0].relevant == {19}


class TestCohenKappa:
    def test_identical_sequences(self):
        assert cohen_kappa([1, 0, 1, 1], [1, 0, 1, 1]) == 1.0

    def test_hand_two_by_two_table(self):
        # 10 binary items: 4 yes-yes, 4 no-no, 2 split
        # p_o = 0.8, marginals 0.5/0.5 -> p_e = 0.5, kappa = 0.6
        a = [1, 1, 1, 1, 0, 0, 0, 0, 1, 0]
        b = [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]
        assert cohen_kappa(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_chance_level_agreement_is_zero(self):
        a = [1, 1, 0, 0]
        b = [1, 0, 1, 0]
        assert cohen_kappa(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch_is_error(self):
        with pytest.raises(EvaluationError):
            cohen_kappa([1], [1, 0])


class TestBootstrap:
    def test_identical_inputs_give_p_one(self):
        scores = [0.5, 0.2, 0.9, 0.4]
        assert bootstrap_test(scores, list(scores), n=100, seed=0) == 1.0

    def test_uniform_dominance_gives_tiny_p(self):
        rng = np.random.default_rng(71)
        b = rng.uniform(0, 1, size=100)
        a = b + 10.0
        assert bootstrap_test(a, b, n=10000, seed=0) < 0.001

    def test_seed_reproducible(self):
        rng = np.random.default_rng(72)
        a = rng.uniform(0, 1, size=50)
        b = a + rng.normal(scale=0.5, size=50)
        p1 = bootstrap_test(a, b, n=2000, seed=5)
        p2 = bootstrap_test(a, b, n=2000, seed=5)
        assert p1 == p2

    def test_too_short_is_error(self):
        with pytest.raises(EvaluationError):
            bootstrap_test([1.0], [2.0])


class TestEvaluate:
    def test_perfect_ranker(self):
        annotations = [
            annotation("p1", "a1", best=4, valid=[4, 5]),
            annotation("p1", "a2", best=5, valid=[4, 5]),
        ]
        rankings = [ranking("p1", [4, 5] + [j for j in range(10) if j not in (4, 5)])]
        report = evaluate(rankings, annotations, [candidate_set("p1")], "best_union")
        assert report.p_at_1 == 1.0
        assert report.map == 1.0
        assert report.n_posts == 1

    def test_hand_computed_five_post_report(self):
        # Original-mode fixture: original at ranks 1, 2, 4, 1, 10.
        orders = {
            "p1": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],   # original 0 at rank 1
            "p2": [3, 0, 1, 2, 4, 5, 6, 7, 8, 9],   # original 0 at rank 2
            "p3": [5, 6, 7, 0, 1, 2, 3, 4, 8, 9],   # original 0 at rank 4
            "p4": [2, 0, 1, 3, 4, 5, 6, 7, 8, 9],   # original 2 at rank 1
            "p5": [1, 2, 3, 4, 5, 6, 7, 8, 9, 0],   # original 0 at rank 10
        }
        sets = [
            candidate_set("p1"), candidate_set("p2"), candidate_set("p3"),
            candidate_set("p4", original=2), candidate_set("p5"),
        ]
        rankings = [ranking(pid, order) for pid, order in orders.items()]
        report = evaluate(rankings, None, sets, "original")
        assert report.p_at_1 == pytest.approx(2.0 / 5.0, abs=1e-12)
        assert report.p_at_3 == pytest.approx((1 + 1 + 0 + 1 + 0) / 3.0 / 5.0, abs=1e-12)
        assert report.p_at_5 == pytest.approx((1 + 1 + 1 + 1 + 0) / 5.0 / 5.0, abs=1e-12)
        expected_map = (1.0 + 0.5 + 0.25 + 1.0 + 0.1) / 5.0
        assert report.map == pytest.approx(expected_map, abs=1e-12)
        assert report.n_posts == 5

    def test_input_order_invariance(self):
        orders = {f"p{i}": list(np.random.default_rng(i).permutation(10)) for i in range(6)}
        sets = [candidate_set(pid) for pid in orders]
        rankings = [ranking(pid, order) for pid, order in orders.items()]
        forward = evaluate(rankings, None, sets, "original")
        backward = evaluate(rankings[::-1], None, sets[::-1], "original")
        assert forward == backward

    def test_missing_ranking_is_error(self):
        sets = [candidate_set("p1"), candidate_set("p2")]
        rankings = [ranking("p1", range(10))]
        with pytest.raises(EvaluationError, match="no ranking"):
            evaluate(rankings, None, sets, "original")

    def test_exclude_original_scores_over_nine(self):
        annotations = [
            annotation("p1", "a1", best=0, valid=[0, 3, 5]),
            annotation("p1", "a2", best=3, valid=[0, 3, 5]),
        ]
        rankings = [ranking("p1", [0, 3, 5, 1, 2, 4, 6, 7, 8, 9])]
        report = evaluate(
            rankings, annotations, [candidate_set("p1", original=0)], "exclude_original",
            exclude_base="valid_intersection",
        )
        # After removing the original, candidates 3 and 5 hold ranks 1 and 2.
        assert report.p_at_1 == 1.0
        assert report.map == 1.0


class TestBestUnionMonotonicity:
    def test_union_never_reduces_p_at_1(self):
        # A superset of relevant labels cannot turn a hit into a miss.
        rng = np.random.default_rng(73)
        for trial in range(50):
            order = [int(v) for v in rng.permutation(10)]
            best1, best2 = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            union_p1 = precision_at_k(order, {best1, best2}, 1, falling(10))
            single_p1 = precision_at_k(order, {best1}, 1, falling(10))
            assert union_p1 >= single_p1


class TestPerPostMetrics:
    def test_keys_and_values(self):
        labelsets = [LabelSet(post_id="p1", relevant={1})]
        rankings = [ranking("p1", [1, 0] + list(range(2, 10)))]
        got = per_post_metrics(rankings, labelsets, [candidate_set("p1", original=1)], "original")
        assert got["p1"]["p_at_1"] == 1.0
        assert got["p1"]["ap"] == 1.0

    @pytest.mark.parametrize("order", [[0, 0, 0], [0, 1], [0, 1, 2, 3], [2, 1, 3]])
    def test_order_must_be_a_permutation_of_the_candidates(self, order):
        # [0, 0, 0] would otherwise score AP 3.0 with the original relevant.
        labelsets = [LabelSet(post_id="p1", relevant={0})]
        rankings, sets = [ranking("p1", order)], [candidate_set("p1", n=3)]
        with pytest.raises(EvaluationError, match="'p1'.*not a permutation"):
            per_post_metrics(rankings, labelsets, sets, "original")


class TestAnnotationsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            '{"post_id": "p1", "annotator_id": "a1", "best": 2, "valid": [1, 2]}\n'
            '{"post_id": "p1", "annotator_id": "a2", "best": 1, "valid": [1, 3]}\n',
            encoding="utf-8",
        )
        annotations = read_annotations(path)
        assert len(annotations) == 2
        assert annotations[0].valid == {1, 2}

    def test_histogram(self):
        annotations = [
            annotation("p1", "a1", best=1, valid=[1, 2, 3]),
            annotation("p1", "a2", best=2, valid=[2, 3]),
            annotation("p2", "a1", best=0, valid=[0]),
            annotation("p2", "a2", best=1, valid=[1]),
        ]
        assert valid_intersection_histogram(annotations) == {0: 1, 2: 1}
