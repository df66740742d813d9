"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The overfit-separation criterion trains two models and takes a few
minutes; everything else finishes in seconds.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from evpirank.cli import main
from evpirank.evaluation import (
    average_precision,
    bootstrap_test,
    evaluate,
    precision_at_k,
)
from evpirank.evpi import NeuralParams, expected_value
from evpirank.retrieval import build_index, tokenize, top_k
from evpirank.training import TrainConfig, train

from tests.gradsuite import run_gradient_suite
from tests.oracles import (
    BruteCorpus,
    answer_prob,
    brute_average_precision,
    brute_precision_at_k,
    cohen_kappa,
)
from tests.synthetic import (
    make_clustered_corpus,
    make_random_rankings_fixture,
    make_retrieval_corpus,
    random_p_at_1,
    table_of,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
DUMP = FIXTURES / "dump"


@pytest.fixture(name="report")
def report_fixture(request):
    """Emit one pass/fail line per criterion, visible even under capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def report(number: int, slug: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance] criterion {number} ({slug}): {status} - {detail}\n"
        with manager.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
        assert ok, f"criterion {number} ({slug}): {detail}"

    return report


class TestCriterion1GradientFidelity:
    def test_gradient_fidelity(self, report):
        started = time.monotonic()
        results = run_gradient_suite(seed=0, draws=10, n_probes=8)
        elapsed = time.monotonic() - started
        worst = max(r.max_rel_error for r in results)
        ok = all(r.passed(1e-4) for r in results) and elapsed < 120.0
        detail = f"worst rel err {worst:.2e} over {len(results)} checks x 10 draws in {elapsed:.1f}s"
        report(1, "gradient-fidelity", ok, detail)


class TestCriterion2RandomCalibration:
    def test_random_baseline_original_mode(self, report):
        started = time.monotonic()
        # The code `rank --model random` and `evaluate` run, over 200 seeds.
        sets, _ = make_random_rankings_fixture(n_posts=500, n_candidates=10)
        p1_percent = 100.0 * random_p_at_1(sets, n_seeds=200)
        elapsed = time.monotonic() - started
        ok = abs(p1_percent - 10.0) <= 1.0 and elapsed < 60.0
        detail = f"p@1 = {p1_percent:.2f}% over 200 seeds in {elapsed:.1f}s"
        report(2, "random-calibration", ok, detail)


class TestCriterion3MetricOracleEquivalence:
    def test_random_instances_match_brute_force(self, report):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 12))
            order = [int(v) for v in rng.permutation(n)]
            m = int(rng.integers(1, n + 1))
            relevant = set(int(v) for v in rng.choice(n, size=m, replace=False))
            falling = [float(n - r) for r in range(n)]
            for k in (1, 3, 5):
                got = precision_at_k(order, relevant, k, falling)
                worst = max(worst, abs(got - brute_precision_at_k(order, relevant, k)))
            got = average_precision(order, relevant, falling)
            worst = max(worst, abs(got - brute_average_precision(order, relevant)))
        report(3, "metric-oracle-equivalence", worst <= 1e-12, f"max |diff| = {worst:.2e}")

    def test_hand_computed_fixture_report(self, report):
        from evpirank.evpi import RankedList
        from evpirank.retrieval import CandidateSet

        def cs(post_id, original=0):
            return CandidateSet(
                post_id=post_id, post_body="b",
                questions=[f"q{j}?" for j in range(10)],
                answers=[f"a{j}" for j in range(10)],
                source_post_ids=[f"s{j}" for j in range(10)],
                original_index=original,
            )

        orders = {
            "p1": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            "p2": [3, 0, 1, 2, 4, 5, 6, 7, 8, 9],
            "p3": [5, 6, 7, 0, 1, 2, 3, 4, 8, 9],
            "p4": [2, 0, 1, 3, 4, 5, 6, 7, 8, 9],
            "p5": [1, 2, 3, 4, 5, 6, 7, 8, 9, 0],
        }
        rankings = [
            RankedList(post_id=pid, order=order, scores=[(10 - r) / 10 for r in range(10)])
            for pid, order in orders.items()
        ]
        sets = [cs("p1"), cs("p2"), cs("p3"), cs("p4", original=2), cs("p5")]
        got = evaluate(rankings, None, sets, "original")
        expected = {
            "p_at_1": 2 / 5,
            "p_at_3": (1 + 1 + 0 + 1 + 0) / 3 / 5,
            "p_at_5": (1 + 1 + 1 + 1 + 0) / 5 / 5,
            "map": (1.0 + 0.5 + 0.25 + 1.0 + 0.1) / 5,
        }
        ok = (
            got.p_at_1 == expected["p_at_1"]
            and got.p_at_3 == expected["p_at_3"]
            and got.p_at_5 == expected["p_at_5"]
            and got.map == expected["map"]
        )
        report(3, "metric-hand-fixture", ok, f"report {got} == hand values")


class TestCriterion4RetrievalCorrectness:
    def test_self_retrieval_and_oracle_agreement(self, report):
        started = time.monotonic()
        rng = np.random.default_rng(77)
        docs = make_retrieval_corpus(1000, rng)
        index = build_index(sorted(docs.items()))
        oracle = BruteCorpus(docs)
        self_hits = 0
        worst = 0.0
        for doc_id, text in docs.items():
            query = tokenize(text)
            ranked = top_k(index, query, k=10)
            if ranked[0][0] == doc_id:
                self_hits += 1
            for got_doc, got_score in ranked:
                worst = max(worst, abs(got_score - oracle.score(query, got_doc)))
        elapsed = time.monotonic() - started
        ok = self_hits == 1000 and worst <= 1e-9 and elapsed < 60.0
        detail = f"self-retrieval {self_hits}/1000, max score diff {worst:.2e}, {elapsed:.1f}s"
        report(4, "retrieval-correctness", ok, detail)


class TestCriterion5OverfitSeparation:
    def test_evpi_and_pqa_overfit_clustered_corpus(self, report):
        started = time.monotonic()
        table, sets = make_clustered_corpus(n_posts=50, seed=0)
        config = TrainConfig(
            hidden_dim=24, lr=5e-3, batch_size=10, epochs=200, patience=40, seed=0
        )
        random_p1 = random_p_at_1(sets, n_seeds=200)

        def p_at_1(model) -> float:
            # through evaluation, which gives a tie its expected credit: every
            # original sits at index 0, where ties break, so a model that ties
            # all candidates would read 1.0 from order[0] alone
            ranked = [model.rank_prepared([model.prepare(cs)])[0] for cs in sets]
            return evaluate(ranked, None, sets, "original").p_at_1

        evpi_model, evpi_log = train("evpi", sets, sets, table, config)
        evpi_p1 = p_at_1(evpi_model)

        pqa_model, pqa_log = train("neural-pqa", sets, sets, table, config)
        pqa_p1 = p_at_1(pqa_model)

        elapsed = time.monotonic() - started
        ok = (
            evpi_p1 >= 0.9
            and pqa_p1 >= 0.9
            and evpi_p1 - random_p1 >= 0.5
            and pqa_p1 - random_p1 >= 0.5
            and len(evpi_log.log) <= 200
            and len(pqa_log.log) <= 200
            and elapsed < 600.0
        )
        detail = (
            f"evpi p@1 {evpi_p1:.2f} ({len(evpi_log.log)} epochs), "
            f"pqa p@1 {pqa_p1:.2f} ({len(pqa_log.log)} epochs), "
            f"random p@1 {random_p1:.3f}, {elapsed:.0f}s"
        )
        report(5, "overfit-separation", ok, detail)


class TestCriterion6IngestionGoldenFiles:
    def test_golden_triples_and_candidates(self, tmp_path, report):
        triples = tmp_path / "triples.jsonl"
        candidates = tmp_path / "candidates.jsonl"
        code_ingest = main([
            "ingest",
            "--posts", str(DUMP / "posts.jsonl"),
            "--comments", str(DUMP / "comments.jsonl"),
            "--history", str(DUMP / "history.jsonl"),
            "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
            "--out", str(triples),
        ])
        code_candidates = main([
            "candidates", "--triples", str(triples), "--out", str(candidates),
        ])
        triples_ok = triples.read_bytes() == (FIXTURES / "golden" / "triples.jsonl").read_bytes()
        candidates_ok = (
            candidates.read_bytes() == (FIXTURES / "golden" / "candidates.jsonl").read_bytes()
        )
        ok = code_ingest == 0 and code_candidates == 0 and triples_ok and candidates_ok
        detail = f"triples byte-exact: {triples_ok}, candidates byte-exact: {candidates_ok}"
        report(6, "ingestion-golden-files", ok, detail)


class TestCriterion7StatisticalMachinery:
    def test_kappa_and_bootstrap(self, report):
        a = [1, 1, 1, 1, 0, 0, 0, 0, 1, 0]
        b = [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]
        kappa = cohen_kappa(a, b)
        kappa_ok = kappa == pytest.approx(0.6, abs=1e-12)

        scores = [0.1, 0.5, 0.9, 0.3, 0.7]
        p_same = bootstrap_test(scores, list(scores), n=1000, seed=0)
        rng = np.random.default_rng(7)
        base = rng.uniform(0, 1, size=100)
        p_dominated = bootstrap_test(base + 10.0, base, n=10000, seed=0)
        ok = kappa_ok and p_same == 1.0 and p_dominated < 0.001
        detail = f"kappa = {kappa}, p(same) = {p_same}, p(dominated) = {p_dominated}"
        report(7, "statistical-machinery", ok, detail)


# The files criterion 8's command chain writes under its root.
CRITERION_8_OUTPUTS = (
    "triples.jsonl", "candidates.jsonl", "evpi.ckpt", "rankings.jsonl", "random.jsonl",
    "report.json",
)


def criterion_8_commands(root: Path) -> list[list[str]]:
    """ingest, candidates, train and rank evpi, rank random, evaluate: writing under root."""
    embeddings = str(FIXTURES / "embeddings_toy.txt")
    triples, candidates, ckpt, rankings, random, report = (
        str(root / name) for name in CRITERION_8_OUTPUTS
    )
    return [
        [
            "ingest", "--posts", str(DUMP / "posts.jsonl"),
            "--comments", str(DUMP / "comments.jsonl"),
            "--history", str(DUMP / "history.jsonl"),
            "--embeddings", embeddings, "--out", triples,
        ],
        ["candidates", "--triples", triples, "--out", candidates],
        [
            "train", "--candidates", candidates, "--embeddings", embeddings,
            "--model", "evpi", "--no-split", "--seed", "9",
            "--set", "hidden_dim=4", "--set", "epochs=2", "--set", "batch_size=4",
            "--out", ckpt,
        ],
        [
            "rank", "--candidates", candidates, "--embeddings", embeddings,
            "--model", "evpi", "--checkpoint", ckpt, "--out", rankings,
        ],
        ["rank", "--candidates", candidates, "--model", "random", "--seed", "9", "--out", random],
        ["evaluate", "--rankings", rankings, "--candidates", candidates, "--mode", "original",
         "--out", report],
    ]


class TestCriterion8Determinism:
    def test_commands_reproduce_byte_identical_outputs(self, tmp_path, report):
        def run_all(tag: str) -> dict[str, bytes]:
            root = tmp_path / tag
            root.mkdir()
            for argv in criterion_8_commands(root):
                assert main(argv) == 0
            return {name: (root / name).read_bytes() for name in CRITERION_8_OUTPUTS}

        first = run_all("first")
        second = run_all("second")
        mismatched = [name for name in first if first[name] != second[name]]
        ok = not mismatched
        report(8, "determinism", ok, f"byte-identical outputs: {sorted(first)}; mismatches: {mismatched}")

    def test_processes_of_two_hash_seeds_write_identical_bytes(self, tmp_path, report):
        # A run in another process must not depend on the order of str hashes,
        # which PYTHONHASHSEED sets.
        script = (
            "import json, sys\n"
            "from evpirank.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        runs = []
        for seed in ("0", "1"):
            root = tmp_path / f"hashseed{seed}"
            root.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
            done = subprocess.run(
                [sys.executable, "-B", "-c", script, json.dumps(criterion_8_commands(root))],
                cwd=root, env=env, capture_output=True, timeout=600,
            )
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
            assert b'"map"' in done.stdout  # evaluate's report
            outputs = {name: (root / name).read_bytes() for name in CRITERION_8_OUTPUTS}
            runs.append({**outputs, "stdout": done.stdout})
        mismatched = [name for name in runs[0] if runs[0][name] != runs[1][name]]
        report(
            8, "determinism-across-processes", not mismatched,
            f"PYTHONHASHSEED 0 and 1: {sorted(runs[0])}; mismatches: {mismatched}",
        )


class TestCriterion9EvpiFormulaInvariants:
    def test_argsort_invariance_under_utility_scaling(self, report):
        rng = np.random.default_rng(90)
        stable = True
        for _ in range(200):
            probs = rng.uniform(0, 1, size=(10, 10))
            utils = rng.uniform(0, 1, size=10)
            c = float(rng.uniform(0.01, 100.0))
            base = np.array([expected_value(probs[i], utils) for i in range(10)])
            scaled = np.array([expected_value(probs[i], c * utils) for i in range(10)])
            if np.argsort(-base).tolist() != np.argsort(-scaled).tolist():
                stable = False
                break
        report(9, "argsort-scaling-invariance", stable, "200 random pools, scales in [0.01, 100]")

    def test_answer_prob_unit_interval_fuzz(self, report):
        rng = np.random.default_rng(91)
        n = 100000
        dim = 8
        rep = rng.normal(size=(n, dim))
        a_hat = rng.normal(size=(n, dim))
        q_i = rng.normal(size=(n, dim))
        q_j = rng.normal(size=(n, dim))
        # mix in degenerate zero vectors
        for arr in (rep, a_hat, q_i, q_j):
            arr[rng.random(n) < 0.01] = 0.0

        def cos_rows(u, v):
            nu = np.linalg.norm(u, axis=1)
            nv = np.linalg.norm(v, axis=1)
            dot = np.einsum("ij,ij->i", u, v)
            out = np.zeros(n)
            nz = (nu > 0) & (nv > 0)
            out[nz] = dot[nz] / (nu[nz] * nv[nz])
            return out

        probs = np.exp(-(1.0 - cos_rows(rep, a_hat))) * np.maximum(0.0, cos_rows(q_i, q_j))
        core_ok = bool(np.all(probs >= 0.0) and np.all(probs <= 1.0))

        table = table_of({f"w{k}": rng.normal(size=5) for k in range(12)})
        params = NeuralParams.init("evpi", 5, 3, rng)
        for tensor in params.tensors().values():
            tensor += rng.normal(scale=0.4, size=tensor.shape)
        words = lambda k: " ".join(f"w{int(rng.integers(0, 14))}" for _ in range(k))  # some OOV
        op_ok = True
        for _ in range(2000):
            p = answer_prob(params, words(5), words(3), words(4), words(3), table)
            if not 0.0 <= p <= 1.0:
                op_ok = False
                break
        ok = core_ok and op_ok
        report(9, "answer-prob-unit-interval", ok, f"1e5 core draws + 2000 full-op draws in [0, 1]")

    def test_expected_value_hand_example(self, report):
        got = expected_value([0.3, 0.2, 0.0], [0.5, 1.0, 0.9])
        ok = abs(got - 0.35) <= 1e-9
        report(9, "expected-value-hand-example", ok, f"sum P*U = {got!r}")
