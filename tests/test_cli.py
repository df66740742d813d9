"""End-to-end CLI behavior over the shipped fixture dump."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from evpirank import baselines, cli, embeddings, evaluation, evpi, training
from evpirank.cli import UsageError, _load_settings, main
from evpirank.embeddings import load_embeddings_file
from evpirank.evpi import write_rankings
from evpirank.ingest import Triple, split_name, write_triples
from evpirank.neural import save_checkpoint
from evpirank.retrieval import CandidateSet, read_candidates, tokenize, write_candidates

from tests.synthetic import make_clustered_corpus, make_random_rankings_fixture, zero_params

FIXTURES = Path(__file__).parent / "fixtures"
DUMP = FIXTURES / "dump"
GOLDEN_CANDIDATES = str(FIXTURES / "golden" / "candidates.jsonl")
TOY_VECTORS = str(FIXTURES / "embeddings_toy.txt")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def hidden_dim(model: str, size: int) -> list[str]:
    """The --set of a hidden size, for a model whose training reads one."""
    return [] if model in ("ngrams", "cqa") else ["--set", f"hidden_dim={size}"]


def vectors(model: str) -> list[str]:
    """The toy --embeddings, for a model that reads word vectors."""
    return ["--embeddings", TOY_VECTORS] if model in cli.VECTOR_MODELS else []


def ingest_args(out_path, embeddings=TOY_VECTORS):
    return [
        "ingest",
        "--posts", str(DUMP / "posts.jsonl"),
        "--comments", str(DUMP / "comments.jsonl"),
        "--history", str(DUMP / "history.jsonl"),
        "--out", str(out_path),
        "--embeddings", str(embeddings),
    ]


class TestIngestCommand:
    def test_fixture_produces_golden_bytes(self, tmp_path, capsys):
        out = tmp_path / "triples.jsonl"
        code, _, err = run(capsys, *ingest_args(out))
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "golden" / "triples.jsonl").read_bytes()
        diagnostics = json.loads(err.strip().splitlines()[-1])
        assert diagnostics["triples_out"] == 7
        assert diagnostics["skipped"]["rhetorical"] == 1

    def test_non_utf8_line_is_skipped_and_counted(self, tmp_path, capsys):
        posts = tmp_path / "posts.jsonl"
        posts.write_bytes((DUMP / "posts.jsonl").read_bytes() + b'\xff\xfe{"bad": 1}\n')
        out = tmp_path / "triples.jsonl"
        argv = ingest_args(out)
        argv[argv.index("--posts") + 1] = str(posts)
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "golden" / "triples.jsonl").read_bytes()
        assert err.splitlines()[-1] == (
            '{"posts_in": 10, "triples_out": 7, "skipped": {"no_question": 1, "rhetorical": 1, '
            '"no_answer": 1, "invariant_violation": 0}, "malformed_lines": {"posts": 1, '
            '"comments": 1, "history": 0}, "orphan_records": 0}'
        )

    def test_repeated_post_id_keeps_the_first_post(self, tmp_path, capsys):
        # A second p01 line used to give p01 two triples, which candidates then refused.
        posts = tmp_path / "posts.jsonl"
        lines = (DUMP / "posts.jsonl").read_bytes().splitlines(keepends=True)
        posts.write_bytes(b"".join(lines + lines[:1]))
        out = tmp_path / "triples.jsonl"
        argv = ingest_args(out)
        argv[argv.index("--posts") + 1] = str(posts)
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "golden" / "triples.jsonl").read_bytes()
        assert err.splitlines()[-1] == (
            '{"posts_in": 10, "triples_out": 7, "skipped": {"no_question": 1, "rhetorical": 1, '
            '"no_answer": 1, "invariant_violation": 0}, "malformed_lines": {"posts": 1, '
            '"comments": 1, "history": 0}, "orphan_records": 0}'
        )

    @pytest.mark.parametrize("escape", ["\\t", "\\n"])
    def test_a_post_id_candidates_would_refuse_is_malformed(self, tmp_path, capsys, escape):
        # Such a post used to become a triple that the next stage, candidates, refused (exit 2).
        paths = {}
        for name in ("posts", "comments", "history"):
            text = (DUMP / f"{name}.jsonl").read_text(encoding="utf-8")
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(text.replace('"p01"', f'"p{escape}01"'), encoding="utf-8")
        triples, candidates = tmp_path / "triples.jsonl", tmp_path / "candidates.jsonl"
        argv = ingest_args(triples)
        for name, path in paths.items():
            argv[argv.index(f"--{name}") + 1] = str(path)
        code, _, err = run(capsys, *argv)
        assert code == 0
        diagnostics = json.loads(err.splitlines()[-1])
        assert diagnostics["malformed_lines"]["posts"] == 1
        assert diagnostics["orphan_records"] == 2  # its comment and its edit
        post_ids = [json.loads(line)["post_id"] for line in triples.read_text("utf-8").splitlines()]
        assert post_ids and not any("01" in post_id for post_id in post_ids)
        code, _, err = run(capsys, "candidates", "--triples", str(triples), "--out", str(candidates))
        assert code == 0, err
        assert candidates.exists()

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "ingest",
            "--posts", str(tmp_path / "nope.jsonl"),
            "--comments", str(DUMP / "comments.jsonl"),
            "--history", str(DUMP / "history.jsonl"),
            "--out", str(tmp_path / "out.jsonl"),
            "--embeddings", TOY_VECTORS,
        )
        assert code == 2
        assert "not found" in err

    def test_empty_inputs_give_empty_output(self, tmp_path, capsys):
        for name in ("posts", "comments", "history"):
            (tmp_path / f"{name}.jsonl").write_text("", encoding="utf-8")
        out = tmp_path / "triples.jsonl"
        code, _, _ = run(
            capsys,
            "ingest",
            "--posts", str(tmp_path / "posts.jsonl"),
            "--comments", str(tmp_path / "comments.jsonl"),
            "--history", str(tmp_path / "history.jsonl"),
            "--out", str(out),
            "--embeddings", TOY_VECTORS,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == ""


class TestCandidatesCommand:
    def test_fixture_produces_golden_bytes(self, tmp_path, capsys):
        out = tmp_path / "candidates.jsonl"
        code, _, err = run(
            capsys,
            "candidates",
            "--triples", str(FIXTURES / "golden" / "triples.jsonl"),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "golden" / "candidates.jsonl").read_bytes()
        assert [json.loads(line) for line in err.splitlines()] == [
            {"warning": "corpus has 7 posts; candidate sets are smaller than k=10"},
            {"candidate_sets": 7, "k": 10},
        ]

    def test_empty_triples_give_an_empty_file_and_a_warning(self, tmp_path, capsys):
        triples, out = tmp_path / "triples.jsonl", tmp_path / "candidates.jsonl"
        triples.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "candidates", "--triples", str(triples), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == b""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"candidate_sets": 0, "warning": "no triples in input"}
        ]

    def test_empty_triples_overwrite_a_stale_index_file(self, tmp_path, capsys):
        triples, out = tmp_path / "triples.jsonl", tmp_path / "candidates.jsonl"
        index_path = tmp_path / "posts.idx"
        triples.write_text("", encoding="utf-8")
        index_path.write_text("stale", encoding="utf-8")
        code, _, err = run(
            capsys, "candidates", "--triples", str(triples), "--out", str(out),
            "--index-out", str(index_path),
        )
        assert code == 0
        assert out.read_bytes() == b""
        assert index_path.read_text(encoding="utf-8").splitlines() == [
            "EVPIRANK-IDX v1", "doc_count\t0", "docs\t0", "terms\t0", "postings\t0",
        ]
        assert [json.loads(line) for line in err.splitlines()] == [
            {"candidate_sets": 0, "warning": "no triples in input"}
        ]

    def test_index_out_golden_bytes(self, tmp_path, capsys):
        out = tmp_path / "candidates.jsonl"
        index_path = tmp_path / "posts.idx"
        code, _, _ = run(
            capsys,
            "candidates",
            "--triples", str(FIXTURES / "golden" / "triples.jsonl"),
            "--out", str(out),
            "--index-out", str(index_path),
        )
        assert code == 0
        assert index_path.read_bytes() == (FIXTURES / "golden" / "posts.idx").read_bytes()

    def test_threads_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "candidates.jsonl"
        code, _, err = run(capsys, "candidates", "--triples", str(FIXTURES / "golden" / "triples.jsonl"),
                           "--out", str(out), "--threads", "2")
        assert code == 2
        assert "--threads" in err
        assert not out.exists()


    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_usage_error(self, tmp_path, capsys, k):
        out = tmp_path / "candidates.jsonl"
        code, _, err = run(capsys, "candidates", "--triples", str(FIXTURES / "golden" / "triples.jsonl"),
                           "--out", str(out), "--k", k)
        assert code == 2
        assert "--k must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bodies, left_out",
        [
            # Twelve identical posts tie, and ties break by ascending id.
            (["Why does my wifi drop after suspend?"] * 12, ["p10", "p11"]),
            # A body with no token matches nothing: its top 10 is all padding.
            ([f"wifi{j} drops after suspend" for j in range(11)] + ["?!"], ["p11"]),
        ],
        ids=["identical", "no-token"],
    )
    def test_a_post_outside_its_own_top_k_takes_the_kth_place(
        self, tmp_path, capsys, bodies, left_out
    ):
        triples, out = tmp_path / "triples.jsonl", tmp_path / "candidates.jsonl"
        write_triples(triples, [
            Triple(f"p{j:02d}", "", body, f"question {j}?", 1, f"answer {j}", "edit")
            for j, body in enumerate(bodies)
        ])
        code, _, err = run(capsys, "candidates", "--triples", str(triples), "--out", str(out))
        assert code == 0, err
        sets = {cs.post_id: cs for cs in read_candidates(out)}
        assert len(sets) == 12
        for cs in sets.values():
            assert len(cs) == 10
            assert cs.source_post_ids[cs.original_index] == cs.post_id
        first_nine = [f"p{j:02d}" for j in range(9)]
        for post_id in left_out:
            assert sets[post_id].source_post_ids == first_nine + [post_id]
            assert sets[post_id].original_index == 9
            assert sets[post_id].questions[9] == f"question {int(post_id[1:])}?"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Fixture dump pushed through ingest and candidates once per module."""
    root = tmp_path_factory.mktemp("pipeline")
    triples = root / "triples.jsonl"
    candidates = root / "candidates.jsonl"
    assert main(ingest_args(triples)) == 0
    assert main([
        "candidates", "--triples", str(triples), "--out", str(candidates),
    ]) == 0
    return {"triples": triples, "candidates": candidates, "root": root}


class TestTrainRankEvaluate:
    @pytest.mark.parametrize("command", ["train", "rank", "evaluate", "significance"])
    def test_unknown_model_or_mode_exits_2_naming_the_valid_ones(self, capsys, tmp_path, command):
        cands, out = str(FIXTURES / "golden" / "candidates.jsonl"), tmp_path / "out"
        rankings = str(tmp_path / "rankings.jsonl")  # argparse refuses before any file is read
        argv, option, names = {
            "train": (["--out", str(out)], "--model", cli.MODEL_NAMES),
            "rank": (["--out", str(out)], "--model", cli.MODEL_NAMES),
            "evaluate": (["--rankings", rankings, "--out", str(out)], "--mode", evaluation.MODES),
            "significance": (
                ["--rankings-a", rankings, "--rankings-b", rankings], "--mode", evaluation.MODES
            ),
        }[command]
        code, stdout, err = run(capsys, command, "--candidates", cands, *argv, option, "mystery")
        assert code == 2
        assert f"argument {option}: invalid choice: 'mystery'" in err
        assert all(name in err for name in names)
        assert stdout == "" and not out.exists()

    def test_random_model_cannot_train(self, pipeline, capsys):
        code, _, err = run(
            capsys,
            "train",
            "--candidates", str(pipeline["candidates"]),
            "--model", "random",
            "--out", str(pipeline["root"] / "x.ckpt"),
        )
        assert code == 2

    def test_evpi_train_rank_evaluate_deterministic(self, pipeline, capsys):
        root = pipeline["root"]
        embeddings = str(FIXTURES / "embeddings_toy.txt")
        base_train = [
            "train",
            "--candidates", str(pipeline["candidates"]),
            "--embeddings", embeddings,
            "--model", "evpi",
            "--no-split",
            "--set", "hidden_dim=4",
            "--set", "epochs=2",
            "--set", "batch_size=4",
            "--seed", "3",
        ]
        ckpt_a = root / "evpi_a.ckpt"
        ckpt_b = root / "evpi_b.ckpt"
        log_a = root / "log_a.jsonl"
        assert main(base_train + ["--out", str(ckpt_a), "--log", str(log_a)]) == 0
        assert main(base_train + ["--out", str(ckpt_b)]) == 0
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        log_lines = [json.loads(line) for line in log_a.read_text(encoding="utf-8").splitlines()]
        assert len(log_lines) == 2
        assert list(log_lines[0]) == ["epoch", "train_loss", "tune_map"]

        rankings_a = root / "rankings_a.jsonl"
        rankings_b = root / "rankings_b.jsonl"
        rank_args = [
            "rank",
            "--candidates", str(pipeline["candidates"]),
            "--embeddings", embeddings,
            "--model", "evpi",
            "--checkpoint", str(ckpt_a),
            "--split", "all",
        ]
        assert main(rank_args + ["--out", str(rankings_a)]) == 0
        assert main(rank_args + ["--out", str(rankings_b)]) == 0
        assert rankings_a.read_bytes() == rankings_b.read_bytes()

        code, out, _ = run(
            capsys,
            "evaluate",
            "--rankings", str(rankings_a),
            "--candidates", str(pipeline["candidates"]),
            "--mode", "original",
            "--model", "evpi",
            "--out", str(root / "report.json"),
        )
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert report["n_posts"] == 7
        assert 0.0 <= report["map"] <= 1.0

    def test_lr_zero_keeps_loss_flat(self, pipeline, capsys):
        root = pipeline["root"]
        log = root / "flat.jsonl"
        code, _, _ = run(
            capsys,
            "train",
            "--candidates", str(pipeline["candidates"]),
            "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
            "--model", "evpi",
            "--no-split",
            "--set", "hidden_dim=4",
            "--set", "epochs=3",
            "--set", "lr=0",
            "--out", str(root / "flat.ckpt"),
            "--log", str(log),
        )
        assert code == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        losses = [json.loads(line)["train_loss"] for line in lines]
        assert losses[0] == pytest.approx(losses[-1], abs=1e-12)

    def test_ngrams_and_cqa_train_and_rank(self, pipeline, capsys):
        root = pipeline["root"]
        for model in ("ngrams", "cqa"):
            ckpt = root / f"{model}.ckpt"
            code, _, _ = run(
                capsys,
                "train",
                "--candidates", str(pipeline["candidates"]),
                *vectors(model),
                "--model", model,
                "--no-split",
                "--set", "epochs=2",
                "--out", str(ckpt),
            )
            assert code == 0
            rankings = root / f"{model}_rankings.jsonl"
            code, _, _ = run(
                capsys,
                "rank",
                "--candidates", str(pipeline["candidates"]),
                *vectors(model),
                "--model", model,
                "--checkpoint", str(ckpt),
                "--out", str(rankings),
            )
            assert code == 0
            assert len(rankings.read_text(encoding="utf-8").splitlines()) == 7

    @pytest.mark.parametrize(
        "model", ["evpi", "neural-pq", "neural-pa", "neural-pqa", "ngrams", "cqa"]
    )
    def test_rank_of_a_saved_model_writes_its_own_rankings(
        self, pipeline, capsys, tmp_path, model
    ):
        # rank loads the checkpoint into a zero model: every weight it misses,
        # as a cqa bias that stayed 0, changes the scores written.
        sets = read_candidates(pipeline["candidates"])
        table = load_embeddings_file(FIXTURES / "embeddings_toy.txt")
        config = training.TrainConfig(hidden_dim=4, epochs=2, seed=3)
        if model == "ngrams":
            trained = baselines.ngram_train(sets, config.epochs, config.lr)
            ranked = [trained.rank(cs) for cs in sets]
        elif model == "cqa":
            trained = baselines.cqa_train(sets, table, config.epochs, config.lr)
            ranked = [trained.rank(cs) for cs in sets]
        else:
            trained = training.train(model, sets, sets, table, config)[0]
            ranked = trained.rank_prepared([trained.prepare(cs) for cs in sets])
        ckpt, expected, rankings = (tmp_path / name for name in ("model.ckpt", "want", "got"))
        save_checkpoint(ckpt, trained.tensors())
        write_rankings(expected, model, ranked)
        code, _, _ = run(
            capsys,
            "rank",
            "--candidates", str(pipeline["candidates"]),
            *vectors(model),
            "--model", model,
            "--checkpoint", str(ckpt),
            "--out", str(rankings),
        )
        assert code == 0
        assert rankings.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("model", ["ngrams", "cqa"])
    def test_ngrams_and_cqa_report_the_epochs_run(self, pipeline, capsys, tmp_path, model):
        code, _, err = run(
            capsys, "train", "--candidates", str(pipeline["candidates"]), *vectors(model),
            "--model", model, "--no-split", "--set", "epochs=3",
            "--out", str(tmp_path / "model.ckpt"),
        )
        assert code == 0
        assert json.loads(err.strip().splitlines()[-1])["epochs_run"] == 3

    @pytest.mark.parametrize("model", ["ngrams", "cqa"])
    def test_ngrams_and_cqa_refuse_log(self, pipeline, capsys, tmp_path, model):
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "log.jsonl"
        code, _, err = run(
            capsys, "train", "--candidates", str(pipeline["candidates"]), "--model", model,
            "--no-split", "--out", str(ckpt), "--log", str(log),
        )
        assert code == 2
        assert f"--log: model {model!r} logs no epochs" in err
        assert not ckpt.exists() and not log.exists()

    def train_small(self, pipeline, model) -> Path:
        ckpt = pipeline["root"] / f"small_{model}.ckpt"
        assert main([
            "train",
            "--candidates", str(pipeline["candidates"]),
            *vectors(model),
            "--model", model,
            "--no-split",
            *hidden_dim(model, 3),
            "--set", "epochs=1",
            "--out", str(ckpt),
        ]) == 0
        return ckpt

    def rank_args(self, pipeline, model, ckpt, rankings, embeddings=None):
        return [
            "rank",
            "--candidates", str(pipeline["candidates"]),
            *(["--embeddings", str(embeddings)] if embeddings else vectors(model)),
            "--model", model,
            "--checkpoint", str(ckpt),
            "--out", str(rankings),
        ]

    @pytest.mark.parametrize(
        "trained, ranked, missing",
        [("neural-pq", "evpi", "lstm_answer/W_i"), ("evpi", "neural-pq", "ff/")],
    )
    def test_checkpoint_of_another_model_is_usage_error(
        self, pipeline, capsys, trained, ranked, missing
    ):
        ckpt = self.train_small(pipeline, trained)
        rankings = pipeline["root"] / "mismatch_rankings.jsonl"
        code, _, err = run(capsys, *self.rank_args(pipeline, ranked, ckpt, rankings))
        assert code == 2
        assert f"{ckpt} is not a {ranked} model" in err
        assert missing in err
        assert not rankings.exists()

    @pytest.mark.parametrize(
        "model, name, shape, expected",
        [
            ("evpi", "ff_util/W0", (3, 8), "(3, 9)"),
            ("evpi", "ff_ans/b5", (7,), "(4,)"),
            ("cqa", "cqa/w", (5,), "(6,)"),
            ("ngrams", "ngrams/w", (10,), "(1048576,)"),
            ("ngrams", "ngrams/extra", (3,), "absent"),
            ("neural-pq", "lstm_answer/W_i", (3, 4), "absent"),
        ],
    )
    def test_checkpoint_tensor_of_another_shape_is_usage_error(
        self, pipeline, capsys, tmp_path, model, name, shape, expected
    ):
        from evpirank.neural import load_checkpoint, save_checkpoint

        tensors = load_checkpoint(self.train_small(pipeline, model))
        tensors[name] = np.zeros(shape)
        ckpt, rankings = tmp_path / "edited.ckpt", tmp_path / "rankings.jsonl"
        save_checkpoint(ckpt, tensors)
        code, stdout, err = run(capsys, *self.rank_args(pipeline, model, ckpt, rankings))
        assert code == 2
        assert f"checkpoint {ckpt} is not a {model} model" in err
        assert f"tensor {name!r} is {shape} in the checkpoint but {expected} in the model" in err
        assert "Traceback" not in err and stdout == ""
        assert not rankings.exists()

    def test_embedding_dimension_mismatch_is_usage_error(self, pipeline, capsys):
        ckpt = self.train_small(pipeline, "evpi")
        wide = pipeline["root"] / "embeddings_wide.txt"
        lines = (FIXTURES / "embeddings_toy.txt").read_text(encoding="utf-8").splitlines()
        wide.write_text("".join(line + " 0.5\n" for line in lines), encoding="utf-8")
        rankings = pipeline["root"] / "wide_rankings.jsonl"
        code, _, err = run(capsys, *self.rank_args(pipeline, "evpi", ckpt, rankings, wide))
        assert code == 2
        assert "evpi model of hidden size 3 over 5-d embeddings:" in err
        assert "'lstm_post/W_i' is (3, 4) in the checkpoint but (3, 5) in the model" in err
        assert not rankings.exists()

    def test_checkpoint_ranked_without_its_embeddings_is_usage_error(self, pipeline, capsys):
        ckpt = self.train_small(pipeline, "evpi")
        capsys.readouterr()  # train's lines
        rankings = pipeline["root"] / "no_embeddings_rankings.jsonl"
        argv = self.rank_args(pipeline, "evpi", ckpt, rankings)
        del argv[argv.index("--embeddings") : argv.index("--embeddings") + 2]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert err.splitlines() == ["error: model 'evpi' requires --embeddings"]
        assert stdout == "" and not rankings.exists()

    @pytest.mark.parametrize(
        "assignment", ["batch_size=0", "hidden_dim=0", "lr=-1", "epochs=0", "epochs=-2"]
    )
    def test_out_of_range_config_is_usage_error(self, pipeline, capsys, assignment):
        ckpt = pipeline["root"] / "out_of_range.ckpt"
        code, _, err = run(
            capsys,
            "train",
            "--candidates", str(pipeline["candidates"]),
            "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
            "--model", "evpi",
            "--no-split",
            "--set", assignment,
            "--out", str(ckpt),
        )
        assert code == 2
        assert f"config key {assignment.split('=')[0]!r}: must be >=" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("lr=inf", "config key 'lr': must be finite, got inf"),
            ("lr=-inf", "config key 'lr': must be finite, got -inf"),
            ("lr=nan", "config key 'lr': must be finite, got nan"),
            ("patience=-3", "config key 'patience': must be >= 0, got -3"),
        ],
    )
    def test_unusable_config_value_is_usage_error(
        self, pipeline, capsys, tmp_path, assignment, message
    ):
        ckpt = tmp_path / "unusable.ckpt"
        code, out, err = run(
            capsys,
            "train",
            "--candidates", str(pipeline["candidates"]),
            "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
            "--model", "evpi",
            "--no-split",
            "--set", assignment,
            "--out", str(ckpt),
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err and "Warning" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("model", ["evpi", "neural-pqa"])
    def test_rank_output_does_not_depend_on_chunk_or_split(
        self, pipeline, capsys, tmp_path, monkeypatch, model
    ):
        # One or three sets per rank_prepared call write the bytes of the
        # RANK_CHUNK chunk (the whole fixture), and --split tune writes exactly the
        # tune lines of --split all. The fixture is real `candidates` output:
        # every set holds the questions of all 7 posts, so chunks share texts.
        # The toy table holds 4 words, so most fixture texts would encode no
        # token; here every word has an 8-d vector.
        golden = FIXTURES / "golden" / "candidates.jsonl"
        assert pipeline["candidates"].read_bytes() == golden.read_bytes()
        words = sorted({
            token
            for cs in read_candidates(pipeline["candidates"])
            for text in [cs.post_body, *cs.questions, *cs.answers]
            for token in tokenize(text)
        })
        rng = np.random.default_rng(12)
        embeddings = tmp_path / "fixture_words.txt"
        embeddings.write_text(
            "".join(f"{w} {' '.join(map(repr, rng.normal(size=8).tolist()))}\n" for w in words),
            encoding="utf-8",
        )
        ckpt = tmp_path / "model.ckpt"
        assert main([
            "train", "--candidates", str(pipeline["candidates"]), "--embeddings", str(embeddings),
            "--model", model, "--no-split", "--set", "hidden_dim=8", "--set", "epochs=1",
            "--out", str(ckpt),
        ]) == 0
        written = {}
        for name, chunk, extra in (
            ("all", training.RANK_CHUNK, []), ("one_per_call", 1, []), ("three_per_call", 3, []),
            ("tune", training.RANK_CHUNK, ["--split", "tune"]),
        ):
            monkeypatch.setattr(training, "RANK_CHUNK", chunk)
            path = tmp_path / f"{name}.rank"
            assert main(self.rank_args(pipeline, model, ckpt, path, embeddings) + extra) == 0
            written[name] = path.read_text(encoding="utf-8")
        assert written["one_per_call"] == written["three_per_call"] == written["all"]
        tune_lines = [
            line for line in written["all"].splitlines(keepends=True)
            if split_name(json.loads(line)["post_id"]) == "tune"
        ]
        assert tune_lines and written["tune"] == "".join(tune_lines)

    @pytest.mark.parametrize("model", ["evpi", "neural-pqa"])
    def test_one_chunk_size_sets_rank_and_tune_evaluation(
        self, pipeline, capsys, tmp_path, monkeypatch, model
    ):
        # training.RANK_CHUNK alone sets the sets per rank_prepared call, in
        # `rank` and in each epoch's tune evaluation; batch_size is the
        # optimizer's batch only.
        cls = evpi.EvpiModel if model == "evpi" else baselines.NeuralBaselineModel
        rank_prepared, chunks = cls.rank_prepared, []

        def recording(self, preps, memo=None):
            chunks.append(len(preps))
            return rank_prepared(self, preps, memo)

        monkeypatch.setattr(cls, "rank_prepared", recording)
        monkeypatch.setattr(training, "RANK_CHUNK", 3)
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run(
            capsys, "train", "--candidates", str(pipeline["candidates"]), *vectors(model),
            "--model", model, "--no-split", "--set", "hidden_dim=2", "--set", "epochs=2",
            "--set", "batch_size=5", "--out", str(ckpt),
        )
        assert code == 0 and chunks == [3, 3, 1] * 2  # the fixture's 7 sets, each epoch
        chunks.clear()
        code, _, _ = run(capsys, *self.rank_args(pipeline, model, ckpt, tmp_path / "out.rank"))
        assert code == 0 and chunks == [3, 3, 1]

    def test_random_rank_is_seeded_and_deterministic(self, pipeline, capsys):
        root = pipeline["root"]
        a = root / "rand_a.jsonl"
        b = root / "rand_b.jsonl"
        args = [
            "rank",
            "--candidates", str(pipeline["candidates"]),
            "--model", "random",
            "--seed", "11",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# The AP of one relevant candidate in a tie of 7 is H_7 / 7, H_7 the 7th harmonic number.
H_7 = sum(1 / r for r in range(1, 8))


def rank_argv(model: str, candidates, ckpt, out, *extra: str) -> list[str]:
    """`rank` of model's checkpoint over candidates, with the toy vectors if model reads any."""
    return [
        "rank", "--model", model, "--candidates", str(candidates), *vectors(model),
        "--checkpoint", str(ckpt), "--out", str(out), *extra,
    ]


class TestTiedScores:
    """evaluate, significance and tune MAP give each tie group its expected credit.

    The golden sets hold 7 candidates each. Ties break by index in a
    rankings file, and a post's original sits at index 0, so scoring ties in
    file order had given a model that scores every candidate alike P@1 1.0.
    """

    def test_an_all_tied_file_earns_the_expected_credit(self, pipeline, capsys, tmp_path):
        sets = read_candidates(pipeline["candidates"])
        assert all(len(cs) == 7 for cs in sets)
        tied, random = tmp_path / "tied.jsonl", tmp_path / "random.jsonl"
        write_rankings(tied, "tied", [
            evpi.RankedList(cs.post_id, list(range(7)), [0.0] * 7) for cs in sets
        ])
        write_rankings(random, "random", baselines.random_rankings(sets))
        candidates = ["--candidates", str(pipeline["candidates"]), "--mode", "original"]
        code, out, _ = run(capsys, "evaluate", "--rankings", str(tied), *candidates)
        report = json.loads(out.splitlines()[0])
        assert code == 0
        for metric in ("p_at_1", "p_at_3", "p_at_5"):
            assert report[metric] == pytest.approx(1 / 7, abs=1e-12), metric
        assert report["map"] == pytest.approx(H_7 / 7, abs=1e-12)
        code, out, _ = run(
            capsys, "significance", "--rankings-a", str(tied), "--rankings-b", str(random),
            *candidates,
        )
        assert code == 0 and json.loads(out)["mean_a"] == report["map"]

    def test_a_model_that_ties_every_candidate_logs_its_expected_tune_map(
        self, pipeline, capsys, tmp_path
    ):
        # At lr 1000 evpi scores every candidate 0.0 from the first epoch on.
        log, ckpt, rankings = (tmp_path / name for name in ("log.jsonl", "model.ckpt", "out.rank"))
        code, _, _ = run(
            capsys, "train", "--candidates", str(pipeline["candidates"]), *vectors("evpi"),
            "--model", "evpi", "--no-split", "--set", "hidden_dim=8", "--set", "lr=1000",
            "--set", "epochs=3", "--seed", "1", "--out", str(ckpt), "--log", str(log),
        )
        assert code == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        tune_maps = [json.loads(line)["tune_map"] for line in lines]
        assert tune_maps == pytest.approx([H_7 / 7] * 3, abs=1e-12)
        code, _, _ = run(capsys, *rank_argv("evpi", pipeline["candidates"], ckpt, rankings))
        assert code == 0
        assert all(set(rl.scores) == {0.0} for rl in evpi.read_rankings(rankings))

    @pytest.mark.parametrize("model", ["evpi", "neural-pqa"])
    def test_a_duplicate_of_the_original_shares_its_credit(self, capsys, tmp_path, model):
        # Identical candidates score bit-identically, so the original and its
        # copy at index 1 tie: each is first in half the orderings.
        rng = np.random.default_rng(5)
        vectors_file = tmp_path / "vectors.txt"
        vectors_file.write_text(
            "".join(f"w{k} {rng.normal():.3f} {rng.normal():.3f}\n" for k in range(4)),
            encoding="utf-8",
        )
        candidates, ckpt, rankings = (tmp_path / n for n in ("c.jsonl", "m.ckpt", "r.jsonl"))
        write_candidates(candidates, [CandidateSet(
            "p", "w0 w1 w2", ["w1 w2?", "w1 w2?", "w3?", "w0 w3?"],
            ["w0", "w0", "w3 w1", "w2"], ["p", "s1", "s2", "s3"], 0,
        )])
        save_checkpoint(ckpt, evpi.NeuralParams.init(model, 2, 3, rng).tensors())
        assert main([
            "rank", "--model", model, "--candidates", str(candidates),
            "--embeddings", str(vectors_file), "--checkpoint", str(ckpt), "--out", str(rankings),
        ]) == 0
        (ranked,) = evpi.read_rankings(rankings)
        first = min(ranked.order.index(0), ranked.order.index(1))
        assert sorted(ranked.order[first : first + 2]) == [0, 1]
        assert ranked.scores[first] == ranked.scores[first + 1]
        code, out, _ = run(
            capsys, "evaluate", "--rankings", str(rankings), "--candidates", str(candidates),
            "--mode", "original",
        )
        report = json.loads(out.splitlines()[0])
        assert code == 0
        assert report["p_at_1"] == (0.5 if first == 0 else 0.0)
        assert report["map"] == pytest.approx((1 / (first + 1) + 1 / (first + 2)) / 2, abs=1e-12)


class TestRankLogsWhatItBuilt:
    def test_neural_sizes_and_a_warning_for_tied_tops(self, pipeline, capsys, tmp_path):
        # A zeroed neural-pqa scores every candidate sigma(0) = 0.5.
        ckpt, rankings = tmp_path / "model.ckpt", tmp_path / "out.rank"
        save_checkpoint(ckpt, zero_params("neural-pqa", 4, 3).tensors())
        code, _, err = run(capsys, *rank_argv("neural-pqa", pipeline["candidates"], ckpt, rankings))
        assert code == 0
        assert [json.loads(line) for line in err.splitlines()] == [
            {"warning": "7 of 7 ranked sets tie at their top score"},
            {"model": "neural-pqa", "hidden_dim": 3, "embed_dim": 4, "ranked_posts": 7,
             "split": "all"},
        ]

    def test_other_models_log_no_sizes(self, pipeline, capsys, tmp_path):
        # A zeroed ngrams model ties every set; random scores never tie.
        ckpt, rankings = tmp_path / "model.ckpt", tmp_path / "out.rank"
        save_checkpoint(ckpt, {"ngrams/w": np.zeros(baselines.NGRAM_FEATURE_SPACE)})
        code, _, err = run(capsys, *rank_argv("ngrams", pipeline["candidates"], ckpt, rankings))
        assert code == 0
        assert [json.loads(line) for line in err.splitlines()] == [
            {"warning": "7 of 7 ranked sets tie at their top score"},
            {"model": "ngrams", "ranked_posts": 7, "split": "all"},
        ]
        code, _, err = run(
            capsys, "rank", "--model", "random", "--candidates", str(pipeline["candidates"]),
            "--out", str(rankings),
        )
        assert code == 0
        assert [json.loads(line) for line in err.splitlines()] == [
            {"config": {"seed": 0}}, {"model": "random", "ranked_posts": 7, "split": "all"},
        ]


class TestCachedEmbeddings:
    """rank over a vectors file cached beside it, as every file of CACHE_MIN_BYTES or more is."""

    @pytest.fixture
    def vectors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "CACHE_MIN_BYTES", 1)
        path = tmp_path / "vectors.txt"
        path.write_bytes((FIXTURES / "embeddings_toy.txt").read_bytes())
        return path

    @pytest.mark.parametrize("model", ["evpi", "cqa"])
    def test_rank_outputs_are_byte_identical_cold_and_warm(
        self, pipeline, tmp_path, monkeypatch, vectors, model
    ):
        cands = str(pipeline["candidates"])
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--candidates", cands, "--embeddings", str(vectors), "--model",
                     model, "--no-split", *hidden_dim(model, 4), "--set", "epochs=1",
                     "--out", ckpt]) == 0
        cache = vectors.with_name(vectors.name + embeddings.CACHE_SUFFIX)
        cache.unlink()
        rank = ["rank", "--candidates", cands, "--embeddings", str(vectors), "--model", model,
                "--checkpoint", ckpt, "--out"]
        assert main(rank + [str(tmp_path / "cold.jsonl")]) == 0
        assert cache.is_file()

        def no_parse(path):
            raise AssertionError(f"{path} was parsed, not read from its cache")

        monkeypatch.setattr(embeddings, "_parse_file", no_parse)
        assert main(rank + [str(tmp_path / "warm.jsonl")]) == 0
        cold = (tmp_path / "cold.jsonl").read_bytes()
        assert (tmp_path / "warm.jsonl").read_bytes() == cold

    def test_a_malformed_file_exits_2_as_before_and_leaves_no_cache(
        self, pipeline, capsys, tmp_path, monkeypatch, vectors
    ):
        vectors.write_text("cat 1 2\ndog 3\n", encoding="utf-8")
        argv = ["train", "--candidates", str(pipeline["candidates"]), "--embeddings",
                str(vectors), "--model", "cqa", "--no-split", "--out", str(tmp_path / "out.ckpt")]
        cached_code, _, cached_err = run(capsys, *argv)
        monkeypatch.setattr(embeddings, "CACHE_MIN_BYTES", 1 << 20)
        code, _, err = run(capsys, *argv)
        assert cached_code == code == 2
        assert cached_err == err
        assert f"malformed embeddings file {vectors}: line 2: dimension 1 does not match 2" in err
        assert sorted(tmp_path.iterdir()) == [vectors]


class TestSignificanceCommand:
    def test_same_rankings_give_p_one(self, pipeline, capsys):
        root = pipeline["root"]
        rankings = root / "sig_rankings.jsonl"
        assert main([
            "rank",
            "--candidates", str(pipeline["candidates"]),
            "--model", "random",
            "--seed", "5",
            "--out", str(rankings),
        ]) == 0
        code, out, _ = run(
            capsys,
            "significance",
            "--rankings-a", str(rankings),
            "--rankings-b", str(rankings),
            "--candidates", str(pipeline["candidates"]),
            "--mode", "original",
            "--metric", "map",
            "--n", "200",
        )
        assert code == 0
        assert json.loads(out)["p_value"] == 1.0

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_n_below_one_is_usage_error(self, tmp_path, capsys, n):
        # The input files do not exist: --n is checked before any is read.
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = run(
            capsys,
            "significance",
            "--rankings-a", missing,
            "--rankings-b", missing,
            "--candidates", missing,
            "--mode", "original",
            "--n", n,
        )
        assert code == 2
        assert out == ""
        assert f"--n must be >= 1, got {n}" in err


class TestRankingsValidation:
    def test_order_that_is_not_a_permutation_is_usage_error(self, pipeline, capsys):
        root = pipeline["root"]
        rankings = root / "repeated_rankings.jsonl"
        assert main([
            "rank", "--candidates", str(pipeline["candidates"]),
            "--model", "random", "--seed", "4", "--out", str(rankings),
        ]) == 0
        records = [json.loads(line) for line in rankings.read_text(encoding="utf-8").splitlines()]
        records[0]["order"], records[0]["scores"] = [0, 0, 0], [1.0, 1.0, 1.0]
        rankings.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        bad_post = records[0]["post_id"]
        code, out, err = run(
            capsys,
            "evaluate",
            "--rankings", str(rankings),
            "--candidates", str(pipeline["candidates"]),
            "--mode", "original",
        )
        assert code == 2
        assert out == ""
        assert f"post {bad_post!r}" in err and "not a permutation" in err
        code, out, err = run(
            capsys,
            "significance",
            "--rankings-a", str(rankings),
            "--rankings-b", str(rankings),
            "--candidates", str(pipeline["candidates"]),
            "--mode", "original",
            "--n", "10",
        )
        assert code == 2
        assert out == ""
        assert "not a permutation" in err

    @pytest.mark.parametrize("command", ["evaluate", "significance"])
    @pytest.mark.parametrize("rising", [True, False])
    def test_scores_must_not_rise_along_order(self, tmp_path, capsys, command, rising):
        # Rising scores put the golden originals first: that file read P@1
        # 1.0 with exit 0. Equal scores stay legal.
        cands = FIXTURES / "golden" / "candidates.jsonl"
        rankings = tmp_path / "rankings.jsonl"
        with open(rankings, "w", encoding="utf-8") as handle:
            for line in cands.read_text(encoding="utf-8").splitlines():
                cs = json.loads(line)
                n = len(cs["questions"])
                scores = [float(r) if rising else 0.0 for r in range(n)]
                record = {"post_id": cs["post_id"], "order": list(range(n)), "scores": scores}
                handle.write(json.dumps(record) + "\n")
        argv = {
            "evaluate": ["evaluate", "--rankings", str(rankings)],
            "significance": ["significance", "--rankings-a", str(rankings),
                             "--rankings-b", str(rankings), "--n", "10"],
        }[command]
        code, out, err = run(capsys, *argv, "--candidates", str(cands), "--mode", "original")
        if rising:
            assert code == 2 and out == ""
            assert f"{rankings}: line 1: post " in err and "scores rise along order" in err
        else:
            assert code == 0, err


class TestMalformedInputFiles:
    """A file a reader cannot parse ends in exit 2 naming it, never in a traceback."""

    # A JSON line that lacks most fields: a bad record for every JSONL reader,
    # and a non-numeric vector for the embeddings reader.
    BAD_LINE = '{"post_id": "p01"}\n'
    # The manifest gives tensor ff/W0 two dimensions but lists one.
    BAD_CHECKPOINT = b"EVPIRANK-CKPT v1\n1\nff/W0 2 3\ndata\n"

    @pytest.mark.parametrize(
        "reader", ["triples", "candidates", "rankings", "embeddings", "checkpoint", "annotations"]
    )
    def test_corrupt_file_is_usage_error(self, pipeline, capsys, tmp_path, reader):
        bad = tmp_path / f"bad.{reader}"
        if reader == "checkpoint":
            bad.write_bytes(self.BAD_CHECKPOINT)
        else:
            bad.write_text(self.BAD_LINE, encoding="utf-8")
        self.assert_usage_error(pipeline, capsys, tmp_path, reader, bad, "")

    def test_checkpoint_naming_a_tensor_twice_is_usage_error(self, pipeline, capsys, tmp_path):
        bad = tmp_path / "twice.ckpt"
        bad.write_bytes(b"EVPIRANK-CKPT v1\n2\nff/W0 1 1\nff/W0 1 1\ndata\n" + bytes(16))
        message = "malformed checkpoint manifest: tensor 'ff/W0' is listed twice"
        self.assert_usage_error(pipeline, capsys, tmp_path, "checkpoint", bad, message)

    @staticmethod
    def assert_usage_error(pipeline, capsys, tmp_path, reader, bad, message):
        """The command reading bad as its reader's input exits 2 with message."""
        cands, path = str(pipeline["candidates"]), str(bad)
        rankings = str(tmp_path / "rankings.jsonl")
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", rankings]) == 0
        out = tmp_path / "out"
        argv = {
            "triples": ["candidates", "--triples", path],
            "candidates": ["rank", "--candidates", path, "--model", "random"],
            "rankings": ["evaluate", "--rankings", path, "--candidates", cands, "--mode", "original"],
            "embeddings": ["train", "--candidates", cands, "--embeddings", path, "--model", "cqa",
                           "--no-split"],
            "checkpoint": ["rank", "--candidates", cands, *vectors("evpi"), "--model", "evpi",
                           "--checkpoint", path],
            "annotations": [
                "evaluate", "--rankings", rankings, "--candidates", cands,
                "--annotations", path, "--mode", "best_union",
            ],
        }[reader]
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert f"malformed {reader} file {bad}: {message}" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @staticmethod
    def golden_record(name: str) -> dict:
        return json.loads((FIXTURES / "golden" / name).read_text(encoding="utf-8").splitlines()[0])

    # (reader, a valid record of its file, the field the test drops)
    JSONL_RECORDS = [
        ("triples", golden_record("triples.jsonl"), "question"),
        ("candidates", golden_record("candidates.jsonl"), "original_index"),
        ("rankings", {"post_id": "p01", "order": [1, 0], "scores": [0.5, 0.2]}, "order"),
        ("annotations", {"post_id": "p01", "annotator_id": "a1", "best": 1, "valid": [1]}, "best"),
    ]

    @pytest.mark.parametrize(
        "reader, record, field", JSONL_RECORDS, ids=[r[0] for r in JSONL_RECORDS]
    )
    def test_missing_field_and_non_object_line_are_named(
        self, pipeline, capsys, tmp_path, reader, record, field
    ):
        lacking = tmp_path / f"lacking.{reader}"
        without = {k: v for k, v in record.items() if k != field}
        lacking.write_text(f"{json.dumps(record)}\n{json.dumps(without)}\n", encoding="utf-8")
        message = f"line 2: missing field '{field}'"
        self.assert_usage_error(pipeline, capsys, tmp_path, reader, lacking, message)
        not_object = tmp_path / f"list.{reader}"
        not_object.write_text(f"\n{json.dumps(list(record))}\n", encoding="utf-8")
        message = "line 2: expected a JSON object"
        self.assert_usage_error(pipeline, capsys, tmp_path, reader, not_object, message)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("original_index", 42, "original_index 42 is not in range(7)"),
            ("original_index", -1, "original_index -1 is not in range(7)"),
            ("answers", 3, "7 questions, 3 answers and 7 source_post_ids"),
            ("source_post_ids", 8, "7 questions, 7 answers and 8 source_post_ids"),
        ],
    )
    def test_inconsistent_candidate_set_is_usage_error(
        self, pipeline, capsys, tmp_path, field, value, message
    ):
        # The second set gets a bad original_index, or its list cut or padded to value entries.
        lines = pipeline["candidates"].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        if field == "original_index":
            record[field] = value
        else:
            record[field] = (record[field] * 2)[:value]
        bad = tmp_path / "inconsistent.jsonl"
        text = "\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n"
        bad.write_text(text, encoding="utf-8")
        cands, path = str(pipeline["candidates"]), str(bad)
        rankings = str(tmp_path / "rankings.jsonl")
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", rankings]) == 0
        out = tmp_path / "out"
        for argv in (
            ["train", "--candidates", path, "--model", "ngrams", "--no-split"],
            [
                "train", "--candidates", path, "--model", "evpi", "--no-split",
                "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
            ],
            ["evaluate", "--rankings", rankings, "--candidates", path, "--mode", "original"],
        ):
            code, stdout, err = run(capsys, *argv, "--out", str(out))
            assert code == 2, argv
            post_id = record["post_id"]
            assert f"malformed candidates file {bad}: line 2: post {post_id!r}: {message}" in err
            assert "Traceback" not in err and stdout == ""
            assert not out.exists()

    REPEATED = "line 8: post 'p01': already appears on an earlier line"

    def test_repeated_post_id_in_rankings_is_usage_error(self, pipeline, capsys, tmp_path):
        # A second p01 line ranking the original question first used to replace the first.
        cands = str(pipeline["candidates"])
        rankings = tmp_path / "rankings.jsonl"
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", str(rankings)]) == 0
        lines = rankings.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        assert first["post_id"] == "p01" and len(lines) == 7
        bad = tmp_path / "repeated.jsonl"
        # p01's original_index is 0.
        bad.write_text("\n".join([*lines, json.dumps({**first, "order": list(range(7))})]) + "\n",
                       encoding="utf-8")
        self.assert_usage_error(pipeline, capsys, tmp_path, "rankings", bad, self.REPEATED)
        code, stdout, err = run(
            capsys, "significance", "--rankings-a", str(rankings), "--rankings-b", str(bad),
            "--candidates", cands, "--mode", "original", "--n", "10",
        )
        assert code == 2 and stdout == ""
        assert f"malformed rankings-b file {bad}: {self.REPEATED}" in err

    def test_repeated_post_id_in_triples_is_usage_error(self, pipeline, capsys, tmp_path):
        lines = (FIXTURES / "golden" / "triples.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["post_id"] == "p01" and len(lines) == 7
        bad = tmp_path / "repeated.jsonl"
        bad.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        self.assert_usage_error(pipeline, capsys, tmp_path, "triples", bad, self.REPEATED)

    # A stray byte, a multi-byte sequence cut short, and a UTF-16 byte order mark.
    NOT_UTF8 = {"ff": b"\xff", "truncated": b"\xe2\x82", "utf16-bom": b"\xff\xfe"}

    @pytest.mark.parametrize("bad_bytes", NOT_UTF8.values(), ids=NOT_UTF8.keys())
    @pytest.mark.parametrize("reader", ["triples", "annotations", "embeddings"])
    def test_a_line_that_is_not_utf8_is_named(
        self, pipeline, capsys, tmp_path, monkeypatch, reader, bad_bytes
    ):
        if reader == "annotations":
            record = {"post_id": "p01", "annotator_id": "a1", "best": 1, "valid": [1, 2]}
            lines = [json.dumps(record), json.dumps({**record, "annotator_id": "a2"})]
            text = "".join(line + "\n" for line in lines)
        else:
            name = "golden/triples.jsonl" if reader == "triples" else "embeddings_toy.txt"
            text = (FIXTURES / name).read_text(encoding="utf-8")
        lines = text.encode("utf-8").splitlines(keepends=True)
        lines[1] = lines[1][:2] + bad_bytes + lines[1][2:]
        bad = tmp_path / f"bad.{reader}"
        bad.write_bytes(b"".join(lines))
        monkeypatch.setattr(embeddings, "CACHE_MIN_BYTES", 1)  # a vectors file parsed for caching
        self.assert_usage_error(pipeline, capsys, tmp_path, reader, bad, "line 2: not UTF-8")
        assert not bad.with_name(bad.name + embeddings.CACHE_SUFFIX).exists()

    def test_repeated_post_id_in_candidates_is_usage_error(self, pipeline, capsys, tmp_path):
        lines = pipeline["candidates"].read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["post_id"] == "p01" and len(lines) == 7
        bad = tmp_path / "repeated.jsonl"
        bad.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        self.assert_usage_error(pipeline, capsys, tmp_path, "candidates", bad, self.REPEATED)
        rankings = str(tmp_path / "rankings.jsonl")  # written by assert_usage_error
        path, out = str(bad), tmp_path / "out"
        for argv in (
            ["train", "--candidates", path, "--model", "ngrams", "--no-split", "--out", str(out)],
            [
                "train", "--candidates", path, "--model", "evpi", "--no-split",
                "--embeddings", str(FIXTURES / "embeddings_toy.txt"), "--out", str(out),
            ],
            ["evaluate", "--rankings", rankings, "--candidates", path, "--mode", "original"],
            [
                "significance", "--rankings-a", rankings, "--rankings-b", rankings,
                "--candidates", path, "--mode", "original", "--n", "10",
            ],
        ):
            code, stdout, err = run(capsys, *argv)
            assert code == 2, argv
            assert f"malformed candidates file {bad}: {self.REPEATED}" in err
            assert "Traceback" not in err and stdout == ""
            assert not out.exists()

    @staticmethod
    def edited_copy(source: Path, bad: Path, **fields) -> None:
        """bad is source with fields set on its second line."""
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **fields})
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"answer_source": "bogus"}, "answer_source must be edit or comment, got 'bogus'"),
            ({"answer_source": "Edit"}, "answer_source must be edit or comment, got 'Edit'"),
            ({"question_time": -5}, "question_time must be >= 1, got -5"),
            ({"question_time": 0}, "question_time must be >= 1, got 0"),
        ],
    )
    def test_a_triple_ingest_cannot_write_is_usage_error(
        self, pipeline, capsys, tmp_path, fields, message
    ):
        bad = tmp_path / "triples.jsonl"
        self.edited_copy(FIXTURES / "golden" / "triples.jsonl", bad, **fields)
        self.assert_usage_error(pipeline, capsys, tmp_path, "triples", bad, f"line 2: {message}")

    @pytest.mark.parametrize("post_id", ["p\t02", "p\n02"])
    def test_tab_or_newline_in_a_triples_post_id_is_usage_error(
        self, pipeline, capsys, tmp_path, post_id
    ):
        bad = tmp_path / "tab.jsonl"
        self.edited_copy(FIXTURES / "golden" / "triples.jsonl", bad, post_id=post_id)
        message = f"line 2: post {post_id!r}: post_id may not contain tabs or newlines"
        self.assert_usage_error(pipeline, capsys, tmp_path, "triples", bad, message)

    @pytest.mark.parametrize(
        "fields, message",
        [
            # Strings as long as the lists they replace: list() used to split them.
            (
                {"questions": "abcdefg", "answers": "hijklmn", "source_post_ids": "opqrstu"},
                "questions must be a list of strings",
            ),
            ({"answers": "hijklmn"}, "answers must be a list of strings"),
            ({"source_post_ids": list(range(7))}, "source_post_ids must be a list of strings"),
            ({"original_index": True}, "original_index must be an integer"),
            ({"original_index": 1.0}, "original_index must be an integer"),
            ({"original_index": "1"}, "original_index must be an integer"),
            ({"post_id": 2}, "post_id must be a string"),
            ({"post_body": None}, "post_body must be a string"),
        ],
    )
    def test_wrong_json_type_in_candidates_is_usage_error(
        self, pipeline, capsys, tmp_path, fields, message
    ):
        bad = tmp_path / "typed.jsonl"
        self.edited_copy(FIXTURES / "golden" / "candidates.jsonl", bad, **fields)
        self.assert_usage_error(pipeline, capsys, tmp_path, "candidates", bad, f"line 2: {message}")
        code, _, err = run(capsys, "train", "--candidates", str(bad), "--model", "ngrams",
                           "--no-split", "--out", str(tmp_path / "model"))
        assert code == 2 and f"line 2: {message}" in err

    @pytest.mark.parametrize(
        "reader, fields, message",
        [
            ("triples", {"question_time": "12"}, "question_time must be an integer"),
            ("triples", {"post_id": 7}, "post_id must be a string"),
            ("triples", {"answer": ["a"]}, "answer must be a string"),
            ("annotations", {"valid": "12"}, "valid must be a list of integers"),
            ("annotations", {"valid": [True]}, "valid must be a list of integers"),
            ("annotations", {"best": 1.0}, "best must be an integer"),
            ("annotations", {"annotator_id": 2}, "annotator_id must be a string"),
        ],
    )
    def test_wrong_json_type_in_triples_and_annotations_is_usage_error(
        self, pipeline, capsys, tmp_path, reader, fields, message
    ):
        source = tmp_path / "valid.jsonl"
        if reader == "triples":
            source = FIXTURES / "golden" / "triples.jsonl"
        else:
            record = {"post_id": "p01", "annotator_id": "a1", "best": 1, "valid": [1, 2]}
            lines = [json.dumps(record), json.dumps({**record, "annotator_id": "a2"})]
            source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bad = tmp_path / "typed.jsonl"
        self.edited_copy(source, bad, **fields)
        self.assert_usage_error(pipeline, capsys, tmp_path, reader, bad, f"line 2: {message}")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"order": "1023456"}, "order must be a list of integers"),
            ({"order": [1.0, 0, 2, 3, 4, 5, 6]}, "order must be a list of integers"),
            ({"order": [True, False, 2, 3, 4, 5, 6]}, "order must be a list of integers"),
            ({"scores": [True] * 7}, "scores must be a list of numbers"),
            ({"scores": "0.50.40.3"}, "scores must be a list of numbers"),
            ({"post_id": 2}, "post_id must be a string"),
        ],
    )
    def test_wrong_json_type_in_rankings_is_usage_error(
        self, pipeline, capsys, tmp_path, fields, message
    ):
        rankings = tmp_path / "ranked.jsonl"
        cands = str(FIXTURES / "golden" / "candidates.jsonl")
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", str(rankings)]) == 0
        bad = tmp_path / "typed.jsonl"
        self.edited_copy(rankings, bad, **fields)
        self.assert_usage_error(pipeline, capsys, tmp_path, "rankings", bad, f"line 2: {message}")

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"order": [0, 0, 2], "scores": [1.0, 1.0, 1.0]}, "not a permutation of range(3)"),
            ({"order": [1, 2], "scores": [1.0, 0.5]}, "not a permutation of range(2)"),
            ({"order": [1, 0], "scores": [1.0]}, "1 scores for 2 entries"),
            ({"order": [1, 0, 2], "scores": [1.0, 1.0, 2.0]}, "scores rise along order"),
        ],
    )
    def test_rankings_reader_checks_each_line(self, tmp_path, record, message):
        from evpirank.evpi import read_rankings

        path = tmp_path / "rankings.jsonl"
        path.write_text(json.dumps({"post_id": "p9", **record}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: post 'p9': ") as info:
            read_rankings(path)
        assert message in str(info.value)


class TestNonFiniteNumbers:
    """nan, inf and overflowing numbers are refused where they enter and where they leave."""

    # A finite value whose square overflows used to end ingest and cqa's
    # cos_sim in numpy overflow warnings and a nan similarity.
    @pytest.mark.parametrize(
        "value, message", [("nan", "non-finite value"), ("1e308", "value above 1e+100 in magnitude")]
    )
    @pytest.mark.parametrize("command", ["ingest", "train", "rank"])
    def test_non_finite_embedding_is_usage_error(
        self, pipeline, capsys, tmp_path, command, value, message
    ):
        bad = tmp_path / "bad.embeddings"
        lines = (FIXTURES / "embeddings_toy.txt").read_text(encoding="utf-8").splitlines()
        lines[1] = f"ram {value} 1 0 0"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cands = str(pipeline["candidates"])
        ckpt, out = tmp_path / "cqa.ckpt", tmp_path / "out"
        train = ["train", "--candidates", cands, "--model", "cqa", "--no-split"]
        assert main([*train, *vectors("cqa"), "--set", "epochs=1", "--out", str(ckpt)]) == 0
        argv = {
            "ingest": ingest_args(out, embeddings=bad),
            "train": [*train, "--embeddings", str(bad), "--out", str(out)],
            "rank": ["rank", "--candidates", cands, "--embeddings", str(bad), "--model", "cqa",
                     "--checkpoint", str(ckpt), "--out", str(out)],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert f"malformed embeddings file {bad}: line 2: {message}" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, tensor", [("evpi", "ff_ans/W0"), ("neural-pq", "lstm_post/b_f"), ("cqa", "cqa/b")]
    )
    def test_non_finite_checkpoint_tensor_is_usage_error(
        self, pipeline, capsys, tmp_path, model, tensor
    ):
        from evpirank.neural import load_checkpoint

        ckpt = tmp_path / "trained.ckpt"
        embeddings = str(FIXTURES / "embeddings_toy.txt")
        cands = str(pipeline["candidates"])
        assert main([
            "train", "--candidates", cands, "--embeddings", embeddings, "--model", model,
            "--no-split", *hidden_dim(model, 3), "--set", "epochs=1", "--out", str(ckpt),
        ]) == 0
        # save_checkpoint refuses inf, so write it over the tensor's first double.
        blob = bytearray(ckpt.read_bytes())
        offset = blob.index(b"\ndata\n") + len(b"\ndata\n")
        for name, values in load_checkpoint(ckpt).items():
            if name == tensor:
                break
            offset += values.size * 8
        blob[offset : offset + 8] = np.array(np.inf, "<f8").tobytes()
        ckpt.write_bytes(bytes(blob))
        rankings = tmp_path / "rankings.jsonl"
        code, stdout, err = run(
            capsys, "rank", "--candidates", cands, "--embeddings", embeddings, "--model", model,
            "--checkpoint", str(ckpt), "--out", str(rankings),
        )
        assert code == 2
        assert f"malformed checkpoint file {ckpt}: {tensor!r} holds nan or inf" in err
        assert "Traceback" not in err and stdout == ""
        assert not rankings.exists()

    @pytest.mark.parametrize(
        "score, message",
        [
            (float("nan"), "scores hold a non-finite value"),
            (float("inf"), "scores hold a non-finite value"),
            (float("-inf"), "scores hold a non-finite value"),
            (10**400, "int too large to convert to float"),
        ],
    )
    @pytest.mark.parametrize("command", ["evaluate", "significance"])
    def test_non_finite_score_is_usage_error(
        self, pipeline, capsys, tmp_path, score, message, command
    ):
        # A file of NaN scores used to evaluate to MAP 1.0.
        rankings = tmp_path / "ranked.jsonl"
        cands = str(pipeline["candidates"])
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", str(rankings)]) == 0
        bad = tmp_path / "nan.jsonl"
        TestMalformedInputFiles.edited_copy(rankings, bad, scores=[score] * 7)
        argv = {
            "evaluate": ["evaluate", "--rankings", str(bad)],
            "significance": ["significance", "--rankings-a", str(rankings),
                             "--rankings-b", str(bad), "--n", "10"],
        }[command]
        code, stdout, err = run(capsys, *argv, "--candidates", cands, "--mode", "original")
        assert code == 2
        assert f"{bad}: line 2: " in err and message in err
        assert "Traceback" not in err and stdout == ""


def write_annotations(root) -> Path:
    """Two annotators for each of the fixture's seven posts: bests 0 and 1, valid {0, 1, 2} and {0, 1}."""
    path = root / "annotations.jsonl"
    lines = []
    for post_id in ("p01", "p02", "p06", "p07", "p08", "p09", "p10"):
        lines.append(
            json.dumps({"post_id": post_id, "annotator_id": "a1", "best": 0, "valid": [0, 1, 2]})
        )
        lines.append(
            json.dumps({"post_id": post_id, "annotator_id": "a2", "best": 1, "valid": [0, 1]})
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestEvaluateWithAnnotations:
    def test_best_union_and_histogram(self, pipeline, capsys):
        root = pipeline["root"]
        annotations = write_annotations(root)
        rankings = root / "ann_rankings.jsonl"
        assert main([
            "rank", "--candidates", str(pipeline["candidates"]),
            "--model", "random", "--seed", "2", "--out", str(rankings),
        ]) == 0
        code, out, _ = run(
            capsys,
            "evaluate",
            "--rankings", str(rankings),
            "--candidates", str(pipeline["candidates"]),
            "--annotations", str(annotations),
            "--mode", "best_union",
            "--valid-histogram",
        )
        assert code == 0
        lines = out.splitlines()
        body = json.loads(lines[0])
        assert body["mode"] == "best_union"
        assert body["n_posts"] == 7
        histogram = json.loads(lines[-1])["valid_intersection_histogram"]
        assert histogram == {"2": 7}  # |{0,1,2} & {0,1}| = 2 for every post

    def test_one_split_is_scored_against_the_whole_annotations_file(
        self, pipeline, capsys, tmp_path
    ):
        # Annotations of the posts another split holds once failed as unknown posts.
        cands = str(pipeline["candidates"])
        annotations = str(write_annotations(tmp_path))
        ranked = {}
        for split, seed in (("test", "1"), ("train", "1"), ("train", "2")):
            ranked[split, seed] = str(tmp_path / f"{split}_{seed}.jsonl")
            assert main(["rank", "--candidates", cands, "--model", "random", "--split", split,
                         "--seed", seed, "--out", ranked[split, seed]]) == 0
        labels = ["--candidates", cands, "--annotations", annotations, "--mode", "best_union"]
        code, out, err = run(capsys, "evaluate", "--rankings", ranked["test", "1"], *labels)
        assert code == 0, err
        assert json.loads(out.splitlines()[0])["n_posts"] == 1  # p06
        code, out, err = run(
            capsys, "significance", "--rankings-a", ranked["train", "1"],
            "--rankings-b", ranked["train", "2"], *labels, "--n", "10",
        )
        assert code == 0, err
        assert json.loads(out)["n_posts"] == 5
        # The train and test files share no post, so none is scored.
        code, out, err = run(
            capsys, "significance", "--rankings-a", ranked["train", "1"],
            "--rankings-b", ranked["test", "1"], *labels, "--n", "10",
        )
        assert code == 2 and out == ""
        assert "need at least two paired scores" in err
        # A post missing from the candidates file is still refused.
        with open(annotations, "a", encoding="utf-8") as handle:
            for annotator in ("a1", "a2"):
                handle.write(json.dumps(
                    {"post_id": "p99", "annotator_id": annotator, "best": 0, "valid": [0]}
                ) + "\n")
        code, out, err = run(capsys, "evaluate", "--rankings", ranked["test", "1"], *labels)
        assert code == 2 and out == ""
        assert "annotations reference unknown post 'p99'" in err

    def test_an_annotator_repeated_on_a_post_is_usage_error(self, capsys, tmp_path):
        # Two identical a1 lines per post once passed as two annotators who agree.
        cands = FIXTURES / "golden" / "candidates.jsonl"
        rankings, report = tmp_path / "ranked.jsonl", tmp_path / "report.json"
        assert main(["rank", "--candidates", str(cands), "--model", "random",
                     "--out", str(rankings)]) == 0
        line = '{{"post_id": "{}", "annotator_id": "a1", "best": 0, "valid": [0, 1]}}\n'
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(
            "".join(2 * line.format(cs.post_id) for cs in read_candidates(cands)), encoding="utf-8"
        )
        code, out, err = run(
            capsys, "evaluate", "--rankings", str(rankings), "--candidates", str(cands),
            "--annotations", str(annotations), "--mode", "best_union", "--out", str(report),
        )
        assert code == 2
        assert (
            f"malformed annotations file {annotations}: line 2: post 'p01': annotator 'a1' "
            "already appears on an earlier line"
        ) in err
        assert out == "" and not report.exists()

    def test_valid_histogram_without_annotations_fails_before_any_output(
        self, pipeline, capsys, tmp_path
    ):
        rankings = tmp_path / "ranked.jsonl"
        cands = str(pipeline["candidates"])
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", str(rankings)]) == 0
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "evaluate", "--rankings", str(rankings), "--candidates", cands,
            "--mode", "original", "--valid-histogram", "--out", str(report),
        )
        assert code == 2
        assert "--valid-histogram requires --annotations" in err
        assert out == ""
        assert not report.exists()

    def test_annotation_mode_requires_annotations(self, pipeline, capsys):
        rankings = pipeline["root"] / "ann_rankings.jsonl"
        code, _, err = run(
            capsys,
            "evaluate",
            "--rankings", str(rankings),
            "--candidates", str(pipeline["candidates"]),
            "--mode", "valid_intersection",
        )
        assert code == 2
        assert "annotations" in err

    def test_exclude_original_mode(self, pipeline, capsys):
        root = pipeline["root"]
        annotations = write_annotations(root)
        rankings = root / "ann_rankings.jsonl"
        code, out, _ = run(
            capsys,
            "evaluate",
            "--rankings", str(rankings),
            "--candidates", str(pipeline["candidates"]),
            "--annotations", str(annotations),
            "--mode", "exclude_original",
            "--exclude-base", "valid_intersection",
        )
        assert code == 0
        body = json.loads(out.splitlines()[0])
        # original_index is 0 everywhere, so the label set is {1} per post
        assert body["n_posts"] == 7


class TestConfig:
    def test_unknown_key_rejected_with_valid_list(self):
        with pytest.raises(UsageError, match="valid keys"):
            _load_settings("evpi", ["hiden_dim=12"])

    def test_later_override_and_seed_win(self):
        values = _load_settings("evpi", ["lr=0.5", "seed=2", "lr=0.25"], seed=9)
        assert values["lr"] == 0.25 and values["seed"] == 9
        assert values["batch_size"] == 32  # documented default

    def test_malformed_override(self):
        with pytest.raises(UsageError):
            _load_settings("evpi", ["hidden_dim"])

    def test_each_model_reads_its_keys(self):
        every = {"hidden_dim", "lr", "batch_size", "epochs", "patience", "seed"}
        for model in cli.MODEL_NAMES:
            if model != "random":  # random trains nothing
                reads = {"epochs", "lr"} if model in ("ngrams", "cqa") else every
                assert set(_load_settings(model)) == reads, model

    def test_each_command_logs_the_settings_it_read(self, capsys, tmp_path):
        cands = ["--candidates", GOLDEN_CANDIDATES]
        ngrams, rankings = str(tmp_path / "ngrams.ckpt"), str(tmp_path / "random.jsonl")
        runs = [
            (["train", *cands, "--model", "ngrams", "--no-split", "--set", "lr=1e-5",
              "--set", "epochs=7", "--out", ngrams],
             '{"config": {"epochs": 7, "lr": 1e-05}}'),
            (["train", *cands, *vectors("evpi"), "--model", "evpi", "--no-split",
              "--set", "hidden_dim=2", "--set", "epochs=1", "--seed", "4",
              "--out", str(tmp_path / "evpi.ckpt")],
             '{"config": {"batch_size": 32, "epochs": 1, "hidden_dim": 2, "lr": 0.001, '
             '"patience": 5, "seed": 4}}'),
            (["rank", *cands, "--model", "random", "--out", rankings], '{"config": {"seed": 0}}'),
            (["rank", *cands, "--model", "random", "--seed", "4", "--out", rankings],
             '{"config": {"seed": 4}}'),
            (["significance", *cands, "--rankings-a", rankings, "--rankings-b", rankings,
              "--mode", "original", "--n", "10", "--seed", "3"],
             '{"config": {"seed": 3}}'),
            # A trained model's rank reads no setting, so it logs none.
            (["rank", *cands, "--model", "ngrams", "--checkpoint", ngrams, "--out", rankings],
             None),
        ]
        for argv, line in runs:
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            logged = [entry for entry in err.splitlines() if entry.startswith('{"config": ')]
            assert logged == ([line] if line else []), argv


class TestOptionsEachCommandReads:
    """A command refuses an option it would not read, instead of ignoring it."""

    @pytest.mark.parametrize("command", ["ingest", "candidates", "evaluate"])
    @pytest.mark.parametrize("option", ["--seed", "--set", "--config"])
    def test_commands_without_config_refuse_config_options(
        self, pipeline, capsys, tmp_path, command, option
    ):
        config = tmp_path / "run.conf"
        config.write_text("seed = 5\n", encoding="utf-8")
        value = {"--seed": "5", "--set": "epochs=0", "--config": str(config)}[option]
        out = tmp_path / "out"
        argv = {
            "ingest": ingest_args(out),
            "candidates": ["candidates", "--triples", str(pipeline["triples"]), "--out", str(out)],
            "evaluate": [
                "evaluate", "--rankings", self.random_rankings(pipeline, tmp_path),
                "--candidates", str(pipeline["candidates"]), "--mode", "original",
                "--out", str(out),
            ],
        }[command]
        code, stdout, err = run(capsys, *argv, option, value)
        assert code == 2
        assert f"unrecognized arguments: {option}" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, option",
        [("train", "--config"), ("rank", "--config"), ("significance", "--config"),
         ("rank", "--set"), ("significance", "--set")],
    )
    def test_only_train_takes_settings(self, pipeline, capsys, tmp_path, command, option):
        config = tmp_path / "run.conf"
        config.write_text("seed = 5\n", encoding="utf-8")
        value = {"--set": "seed=5", "--config": str(config)}[option]
        cands, out = str(pipeline["candidates"]), tmp_path / "out"
        rankings = self.random_rankings(pipeline, tmp_path)
        argv = {
            "train": ["train", "--candidates", cands, "--model", "ngrams", "--no-split",
                      "--set", "epochs=1", "--out", str(out)],
            "rank": ["rank", "--candidates", cands, "--model", "random", "--out", str(out)],
            "significance": [
                "significance", "--rankings-a", rankings, "--rankings-b", rankings,
                "--candidates", cands, "--mode", "original", "--n", "10",
            ],
        }[command]
        code, stdout, err = run(capsys, *argv, option, value)
        assert code == 2
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"evpirank: error: unrecognized arguments: {option} {value}"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("model", [m for m in cli.MODEL_NAMES if m != "random"])
    def test_rank_refuses_a_seed_its_model_does_not_draw(self, capsys, tmp_path, model):
        out = tmp_path / "out.rank"
        code, stdout, err = run(
            capsys, "rank", "--candidates", GOLDEN_CANDIDATES, "--model", model, "--seed", "5",
            "--out", str(out),
        )
        assert code == 2
        assert err.splitlines() == [f"error: --seed: model {model!r} draws no random numbers"]
        assert stdout == "" and not out.exists()

    def test_random_rank_refuses_a_checkpoint(self, capsys, tmp_path):
        # A user who names their trained model must not silently get random rankings.
        ckpt, out = tmp_path / "junk.ckpt", tmp_path / "out.rank"
        ckpt.write_bytes(b"junk")
        code, stdout, err = run(
            capsys, "rank", "--candidates", GOLDEN_CANDIDATES, "--model", "random",
            "--checkpoint", str(ckpt), "--out", str(out),
        )
        assert code == 2
        assert err.splitlines() == ["error: model 'random' takes no --checkpoint"]
        assert stdout == "" and not out.exists()

    def test_ingest_requires_embeddings(self, capsys, tmp_path):
        out = tmp_path / "triples.jsonl"
        argv = ingest_args(out)
        code, stdout, err = run(capsys, *argv[: argv.index("--embeddings")])
        assert code == 2
        assert [line for line in err.splitlines() if "error:" in line] == [
            "evpirank ingest: error: the following arguments are required: --embeddings"
        ]
        assert stdout == "" and not out.exists()

    @staticmethod
    def model_argv(command, model, tmp_path) -> list[str]:
        """A train or rank of model on the golden candidates, short of --embeddings and --out."""
        ckpt = tmp_path / "junk.ckpt"
        ckpt.write_bytes(b"junk")
        extra = {"train": ["--no-split"], "rank": ["--checkpoint", str(ckpt)]}[command]
        if model == "random":
            extra = []
        return [command, "--candidates", GOLDEN_CANDIDATES, "--model", model, *extra]

    @pytest.mark.parametrize("model", sorted(cli.VECTOR_MODELS))
    @pytest.mark.parametrize("command", ["train", "rank"])
    def test_a_model_that_reads_vectors_requires_embeddings(
        self, capsys, tmp_path, command, model
    ):
        # Without vectors, evpi used to train on an empty 1-d table and score every candidate 0.
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, *self.model_argv(command, model, tmp_path), "--out", str(out)
        )
        assert code == 2
        assert [line for line in err.splitlines() if not line.startswith("{")] == [
            f"error: model {model!r} requires --embeddings"
        ]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, model", [("train", "ngrams"), ("rank", "random"), ("rank", "ngrams")]
    )
    def test_a_model_that_reads_no_vectors_refuses_embeddings(
        self, capsys, tmp_path, command, model
    ):
        # The file does not exist: the refusal comes before it would be opened.
        out, missing = tmp_path / "out", tmp_path / "nonexistent.txt"
        code, stdout, err = run(
            capsys, *self.model_argv(command, model, tmp_path), "--embeddings", str(missing),
            "--out", str(out),
        )
        assert code == 2
        assert [line for line in err.splitlines() if not line.startswith("{")] == [
            f"error: --embeddings: model {model!r} reads no word vectors"
        ]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("model", ["ngrams", "cqa"])
    @pytest.mark.parametrize(
        "option, value, key",
        [("--seed", "4", "seed"), ("--set", "seed=4", "seed"),
         ("--set", "hidden_dim=3", "hidden_dim"), ("--set", "batch_size=2", "batch_size"),
         ("--set", "patience=9", "patience"), ("--set", "hiden_dim=3", "hiden_dim")],
    )
    def test_ngrams_and_cqa_train_refuse_keys_they_do_not_read(
        self, capsys, tmp_path, model, option, value, key
    ):
        ckpt = tmp_path / "model.ckpt"
        code, stdout, err = run(
            capsys, "train", "--candidates", GOLDEN_CANDIDATES, "--model", model, "--no-split",
            "--set", "epochs=1", option, value, "--out", str(ckpt),
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: model {model!r} reads no config key {key!r}; valid keys: epochs, lr"
        ]
        assert stdout == "" and not ckpt.exists()

    def test_gradcheck_is_not_a_command(self, capsys):
        # The gradient suite is acceptance criterion 1 (tests/gradsuite.py).
        code, out, err = run(capsys, "gradcheck")
        assert code == 2
        assert out == "" and "invalid choice: 'gradcheck'" in err

    @pytest.mark.parametrize("command", ["evaluate", "significance"])
    @pytest.mark.parametrize("mode", ["original", "best_union", "valid_intersection"])
    def test_exclude_base_needs_exclude_original(self, pipeline, capsys, tmp_path, command, mode):
        rankings = self.random_rankings(pipeline, tmp_path)
        argv = {
            "evaluate": ["evaluate", "--rankings", rankings],
            "significance": ["significance", "--rankings-a", rankings, "--rankings-b", rankings],
        }[command]
        code, stdout, err = run(
            capsys, *argv, "--candidates", str(pipeline["candidates"]),
            "--annotations", str(write_annotations(tmp_path)), "--mode", mode,
            "--exclude-base", "valid_intersection",
        )
        assert code == 2
        assert "--exclude-base applies only to --mode exclude_original" in err
        assert stdout == ""

    @pytest.mark.parametrize("command", ["evaluate", "significance"])
    def test_original_mode_refuses_annotations(self, pipeline, capsys, tmp_path, command):
        # Post 'zzz' is in no candidates file: a mode that read the file would refuse it.
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(
            json.dumps({"post_id": "zzz", "annotator_id": "a1", "best": 0, "valid": [0]}) + "\n",
            encoding="utf-8",
        )
        rankings, report = self.random_rankings(pipeline, tmp_path), tmp_path / "report.json"
        capsys.readouterr()
        argv = {
            "evaluate": ["evaluate", "--rankings", rankings, "--out", str(report)],
            "significance": [
                "significance", "--rankings-a", rankings, "--rankings-b", rankings, "--n", "10",
            ],
        }[command]
        code, stdout, err = run(
            capsys, *argv, "--candidates", str(pipeline["candidates"]),
            "--annotations", str(annotations), "--mode", "original",
        )
        assert code == 2
        assert err.splitlines() == ["error: --annotations: mode 'original' reads no annotations"]
        assert stdout == "" and not report.exists()

    def test_original_mode_reads_annotations_for_the_valid_histogram(
        self, pipeline, capsys, tmp_path
    ):
        code, stdout, err = run(
            capsys, "evaluate", "--rankings", self.random_rankings(pipeline, tmp_path),
            "--candidates", str(pipeline["candidates"]),
            "--annotations", str(write_annotations(tmp_path)), "--mode", "original",
            "--valid-histogram",
        )
        assert code == 0, err
        assert "valid_intersection_histogram" in json.loads(stdout.splitlines()[-1])

    @staticmethod
    def random_rankings(pipeline, tmp_path) -> str:
        rankings = str(tmp_path / "random.jsonl")
        cands = str(pipeline["candidates"])
        assert main(["rank", "--candidates", cands, "--model", "random", "--out", rankings]) == 0
        return rankings


class TestSharedMetricsPath:
    @pytest.mark.parametrize(
        "mode, posts", [("original", "fixture"), ("best_union", "fixture"), ("original", "synthetic")]
    )
    def test_significance_means_are_evaluate_values(self, pipeline, capsys, tmp_path, mode, posts):
        cands = str(pipeline["candidates"])
        if posts == "synthetic":
            # From 8 posts on, a mean taken in another summation order can move the last bit.
            cands = str(tmp_path / "candidates.jsonl")
            write_candidates(cands, make_random_rankings_fixture(n_posts=60)[0])
        ranked = []
        for seed in ("1", "2"):
            ranked.append(str(tmp_path / f"random_{seed}.jsonl"))
            assert main([
                "rank", "--candidates", cands, "--model", "random", "--seed", seed,
                "--out", ranked[-1],
            ]) == 0
        labels = ["--candidates", cands, "--mode", mode]
        if mode != "original":
            labels += ["--annotations", str(write_annotations(tmp_path))]
        code, out, _ = run(capsys, "evaluate", "--rankings", ranked[0], *labels)
        assert code == 0
        report = json.loads(out.splitlines()[0])
        for metric in ("p_at_1", "p_at_3", "p_at_5", "map"):
            code, out, _ = run(
                capsys, "significance", "--rankings-a", ranked[0], "--rankings-b", ranked[1],
                *labels, "--metric", metric, "--n", "10",
            )
            assert code == 0
            result = json.loads(out)
            assert result["n_posts"] == report["n_posts"]
            assert result["mean_a"] == report[metric], metric

    @pytest.mark.parametrize("model", ["evpi", "neural-pqa"])
    def test_best_tune_map_is_the_evaluated_map(self, capsys, tmp_path, model):
        # train keeps the epoch of the best tune MAP; rank runs that checkpoint, and
        # evaluate's MAP of its rankings must be the same number to the last bit.
        table, sets = make_clustered_corpus(n_posts=40, seed=0)
        cands, vectors = str(tmp_path / "candidates.jsonl"), tmp_path / "embeddings.txt"
        write_candidates(cands, sets)
        words = list(table.rows)
        vectors.write_text("".join(
            " ".join([word, *map(repr, row.tolist())]) + "\n"
            for word, row in zip(words, table.gather(table.token_ids(words)))
        ), encoding="utf-8")
        ckpt, log, ranked = (str(tmp_path / name) for name in ("m.ckpt", "log.jsonl", "r.jsonl"))
        common = ["--candidates", cands, "--embeddings", str(vectors), "--model", model]
        assert main([
            "train", *common, "--no-split", "--set", "hidden_dim=8", "--set", "epochs=4",
            "--out", ckpt, "--log", log,
        ]) == 0
        assert main(["rank", *common, "--checkpoint", ckpt, "--out", ranked]) == 0
        code, out, _ = run(
            capsys, "evaluate", "--rankings", ranked, "--candidates", cands, "--mode", "original"
        )
        assert code == 0
        lines = Path(log).read_text(encoding="utf-8").splitlines()
        tune_maps = [json.loads(line)["tune_map"] for line in lines]
        assert json.loads(out.splitlines()[0])["map"] == max(tune_maps)


class TestSplitsAndRefusals:
    """train on the hash splits, and the refusals of train and rank."""

    def test_train_follows_the_hash_splits(self, capsys, tmp_path, monkeypatch):
        seen = {}
        real_train = training.train

        def recording_train(model_name, train_sets, tune_sets, table, config):
            seen["train"] = [cs.post_id for cs in train_sets]
            seen["tune"] = [cs.post_id for cs in tune_sets]
            return real_train(model_name, train_sets, tune_sets, table, config)

        monkeypatch.setattr(training, "train", recording_train)
        ckpt, log, ranked = (str(tmp_path / name) for name in ("m.ckpt", "log.jsonl", "r.jsonl"))
        common = [
            "--candidates", GOLDEN_CANDIDATES, "--embeddings", str(FIXTURES / "embeddings_toy.txt"),
            "--model", "evpi",
        ]
        assert main([
            "train", *common, "--set", "hidden_dim=4", "--set", "epochs=3",
            "--out", ckpt, "--log", log,
        ]) == 0
        # p06 is the golden file's only test post
        assert seen == {"train": ["p01", "p02", "p08", "p09", "p10"], "tune": ["p07"]}
        assert main(["rank", *common, "--checkpoint", ckpt, "--split", "tune", "--out", ranked]) == 0
        code, out, _ = run(
            capsys, "evaluate", "--rankings", ranked, "--candidates", GOLDEN_CANDIDATES,
            "--mode", "original",
        )
        assert code == 0
        report = json.loads(out.splitlines()[0])
        lines = Path(log).read_text(encoding="utf-8").splitlines()
        assert report["n_posts"] == 1
        assert report["map"] == max(json.loads(line)["tune_map"] for line in lines)

    def test_a_file_without_a_tune_post_is_usage_error(self, capsys, tmp_path):
        cands, ckpt = tmp_path / "candidates.jsonl", tmp_path / "m.ckpt"
        sets = read_candidates(GOLDEN_CANDIDATES)
        write_candidates(cands, [cs for cs in sets if split_name(cs.post_id) != "tune"])
        code, _, err = run(
            capsys, "train", "--candidates", str(cands), "--model", "ngrams", "--out", str(ckpt)
        )
        assert code == 2
        assert "empty train or tune split" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("model", [m for m in cli.MODEL_NAMES if m != "random"])
    def test_sets_without_a_negative_candidate_are_usage_error(self, capsys, tmp_path, model):
        cands, ckpt, log = (tmp_path / name for name in ("candidates.jsonl", "m.ckpt", "log.jsonl"))
        write_candidates(cands, [
            CandidateSet(
                post_id=cs.post_id, post_body=cs.post_body,
                questions=[cs.questions[cs.original_index]],
                answers=[cs.answers[cs.original_index]], source_post_ids=[cs.post_id],
                original_index=0,
            )
            for cs in read_candidates(GOLDEN_CANDIDATES)
        ])
        logs = ["--log", str(log)] if model in evpi.MODEL_PARTS else []
        code, stdout, err = run(
            capsys, "train", "--candidates", str(cands), *vectors(model), "--model", model,
            "--no-split", *hidden_dim(model, 2), "--out", str(ckpt), *logs,
        )
        assert code == 2
        assert err.splitlines()[-1] == "error: training needs both positive and negative examples"
        assert stdout == "" and not ckpt.exists() and not log.exists()

    def test_neural_rank_without_a_checkpoint_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "rankings.jsonl"
        code, _, err = run(
            capsys, "rank", "--candidates", GOLDEN_CANDIDATES, *vectors("neural-pqa"),
            "--model", "neural-pqa", "--out", str(out),
        )
        assert code == 2
        assert "model 'neural-pqa' requires --checkpoint" in err
        assert not out.exists()

    def test_a_non_finite_loss_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(evpi.EvpiModel, "loss_and_grads", lambda self, batch: (float("nan"), {}))
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(
            capsys, "train", "--candidates", GOLDEN_CANDIDATES, *vectors("evpi"), "--model", "evpi",
            "--no-split", "--set", "hidden_dim=2", "--out", str(ckpt),
        )
        assert code == 1
        assert "training diverged: non-finite loss nan at epoch 0, batch 0" in err
        assert not ckpt.exists()

    # lr=1e308 overflows the first Adam step; the CLI reports numpy's overflow
    # warnings as JSON lines, which pytest would otherwise turn into errors.
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_a_step_that_leaves_a_non_finite_tensor_exits_1(self, capsys, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(
            capsys, "train", "--candidates", GOLDEN_CANDIDATES, "--embeddings",
            str(FIXTURES / "embeddings_toy.txt"), "--model", "evpi", "--no-split",
            "--set", "lr=1e308", "--set", "epochs=1", "--out", str(ckpt),
        )
        assert code == 1
        *logged, last = err.splitlines()
        assert all(type(json.loads(line)) is dict for line in logged)
        assert re.fullmatch(r"training diverged: non-finite tensor '\S+' at epoch 0, batch 0", last)
        assert not ckpt.exists()

    def test_an_unreadable_config_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "model.ckpt"
        code, stdout, err = run(
            capsys, "train", "--candidates", GOLDEN_CANDIDATES, "--model", "ngrams", "--no-split",
            "--set", "epochs=x", "--out", str(out),
        )
        assert code == 2
        assert "config key 'epochs': invalid literal for int()" in err
        assert stdout == "" and not out.exists()


class TestWarnings:
    """A warning reaches stderr as one {"warning": ...} JSON line, like every other line there."""

    @pytest.mark.parametrize("command", ["evaluate", "significance"])
    def test_a_post_with_disjoint_valid_sets_is_dropped_with_a_warning(
        self, pipeline, capsys, tmp_path, command
    ):
        annotations = write_annotations(tmp_path)
        lines = annotations.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({"post_id": "p01", "annotator_id": "a2", "best": 3, "valid": [3]})
        annotations.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rankings = TestOptionsEachCommandReads.random_rankings(pipeline, tmp_path)
        argv = {
            "evaluate": ["evaluate", "--rankings", rankings],
            "significance": [
                "significance", "--rankings-a", rankings, "--rankings-b", rankings, "--n", "10"
            ],
        }[command]
        code, out, err = run(
            capsys, *argv, "--candidates", str(pipeline["candidates"]),
            "--annotations", str(annotations), "--mode", "valid_intersection",
        )
        assert code == 0, err
        assert json.loads(out.splitlines()[0])["n_posts"] == 6
        logged = [json.loads(line) for line in err.splitlines()]
        assert all(type(entry) is dict for entry in logged)
        assert logged.count({"warning": "dropped 1 posts with no relevant labels"}) == 1

    def test_cqa_over_constant_features_trains_with_a_warning(self, capsys, tmp_path):
        cands, ckpt = tmp_path / "candidates.jsonl", tmp_path / "cqa.ckpt"
        write_candidates(cands, [
            CandidateSet(
                post_id=post_id, post_body="same post", questions=["why?", "why?"],
                answers=["yes", "no"], source_post_ids=[post_id, "p9"], original_index=0,
            )
            for post_id in ("p1", "p2")
        ])
        code, _, err = run(
            capsys, "train", "--candidates", str(cands), *vectors("cqa"), "--model", "cqa",
            "--no-split", "--set", "epochs=1", "--out", str(ckpt),
        )
        assert code == 0, err
        assert ckpt.exists()
        logged = [json.loads(line) for line in err.splitlines()]
        assert all(type(entry) is dict for entry in logged)
        assert logged.count({"warning": "all CQA features are constant across examples"}) == 1


def readme_quickstart() -> list[list[str]]:
    """The argv of each `evpirank` command in the README's fixture walk, in order."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    walk = text.split("A full walk over the shipped", 1)[1]
    block = walk.split("```sh\n", 1)[1].split("```", 1)[0]
    assert block.startswith("cd tests/fixtures\n")
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["evpirank"]:
            commands.append(argv[1:])
    return commands


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    commands = readme_quickstart()
    assert [argv[0] for argv in commands] == [
        "ingest", "candidates", "train", "rank", "evaluate", "rank", "significance",
    ]
    monkeypatch.chdir(FIXTURES)
    for argv in commands:
        argv = [arg.replace("/tmp/", f"{tmp_path}/") for arg in argv]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0, (argv, err)
        for line in err.splitlines():
            assert type(json.loads(line)) is dict, (argv, line)
