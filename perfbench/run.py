"""evpirank benchmark: seeded workloads through the real CLI stages.

    python3 perfbench/run.py --workload {prep,train,rank} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. The benchmark generates the workload's input
files from the seed (perfbench/gen.py), then repeats the workload's chain of
`evpirank` CLI stages in a closed loop (one client, stages in sequence) until
the time is up. Every iteration runs in a fresh interpreter (worker.py) with
BLAS pinned to one thread, EVPIRANK_THREADS unset and no --threads flag.
Every output is checked; any failed stage or check counts in `failed`, and
the exit code is 1. A worker still running at the run's time limit is
killed and reported as a timeout, apart from the failures; only a run in
which no iteration completes fails for it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
iterations). --trace 1 alternates untraced and traced iterations and
reports the per-layer metrics from the spans of the traced ones (medians
over traced iterations), the tracing overhead, and the stage metrics of the
untraced ones. Traced and untraced outputs must be byte-identical, and in
each stage the traced self times must add up to the untraced stage wall
within TRACE_TOLERANCE.

Human-readable lines come first on stdout; the last line is the JSON
result. Inputs, outputs, spans and the environment record are written
under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pin BLAS to one thread before numpy loads; workers inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("EVPIRANK_THREADS", None)

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import read_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# No worker runs past max(RUN_LIMIT_S, LIMIT_PER_SECOND * --seconds) from
# the start, so a run ends within 180 s at the usual --seconds. An iteration
# that is merely slow is not cut: the loop starts no iteration it expects to
# overrun --seconds, and a slow program shows as a higher wall_s.
RUN_LIMIT_S = 170.0
LIMIT_PER_SECOND = 3
# Traced self times of a stage sum to its traced wall. That sum must match
# the untraced wall within this share plus TRACE_SLACK_S, which absorbs
# scheduler jitter on stages of a few milliseconds. Observed traced/untraced
# stage ratios: 0.86-1.09.
TRACE_TOLERANCE = 0.5
TRACE_SLACK_S = 0.05
TRAIN_EPOCHS = 1
STAGES = ("ingest", "candidates", "train_evpi", "train_pqa",
          "rank_evpi", "rank_pqa", "evaluate_evpi", "evaluate_pqa")
MODELS = {"evpi": "evpi", "pqa": "neural-pqa"}

# Reference figures from ROADMAP item 1, measured before this benchmark.
ROADMAP = {
    "evpi_s_per_epoch": (1.0, "50-post clustered corpus, hidden_dim 24"),
    "evpi_ms_per_post_ranked": (7.7, "evpi rank_prepared, setting not recorded"),
    "top_k_ms_per_query": (1.17, "make_retrieval_corpus, 3,000 short uniform docs"),
}


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, pct):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Failures:
    """Counts attempted and failed stage invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


# ---------------------------------------------------------------------------
# Workloads: inputs, stage argument vectors, output checks and stage metrics


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Prep:
    name = "prep"
    outputs = ("triples.jsonl", "candidates.jsonl", "index.txt")

    def generate(self, seed, inp):
        self.inp = inp
        self.expected = gen.make_prep(seed, inp)

    def stages(self, out):
        i = self.inp
        return [
            ("ingest", ["ingest", "--posts", f"{i}/posts.jsonl", "--comments",
                        f"{i}/comments.jsonl", "--history", f"{i}/history.jsonl",
                        "--embeddings", f"{i}/embeddings.txt", "--out", f"{out}/triples.jsonl"]),
            ("candidates", ["candidates", "--triples", f"{out}/triples.jsonl", "--out",
                            f"{out}/candidates.jsonl", "--index-out", f"{out}/index.txt"]),
        ]

    def reloads(self, out):
        return []

    def check(self, result, out, fail: Failures):
        stderr = result["stages"][0]["stderr"].strip().splitlines()
        diagnostics = json.loads(stderr[-1]) if stderr else None
        fail.check(diagnostics == self.expected,
                   f"ingest diagnostics {diagnostics} != expected {self.expected}")
        sets = read_jsonl(out / "candidates.jsonl")
        fail.check(len(sets) == self.expected["triples_out"],
                   f"{len(sets)} candidate sets for {self.expected['triples_out']} triples")
        own = all(cs["source_post_ids"][cs["original_index"]] == cs["post_id"]
                  and len(cs["questions"]) == len(cs["answers"]) == len(cs["source_post_ids"])
                  for cs in sets)
        fail.check(own, "a candidate set does not hold its own post at original_index")

    def stage_metrics(self, walls):
        return {
            "ingest_posts_per_s": gen.PREP_POSTS / median(walls["ingest"]),
            "candidates_posts_per_s": self.expected["triples_out"] / median(walls["candidates"]),
        }


class Train:
    name = "train"
    outputs = ("evpi.ckpt", "evpi.log", "pqa.ckpt", "pqa.log")

    def generate(self, seed, inp):
        self.inp = inp
        self.n_sets = gen.make_train(seed, inp)
        self.tune_map = {}

    def stages(self, out):
        i = self.inp
        settings = []
        for key, value in (("hidden_dim", 24), ("lr", 5e-3), ("batch_size", 10),
                           ("epochs", TRAIN_EPOCHS), ("patience", TRAIN_EPOCHS)):
            settings += ["--set", f"{key}={value}"]
        return [
            (f"train_{m}", ["train", "--model", model, "--candidates", f"{i}/candidates.jsonl",
                            "--embeddings", f"{i}/embeddings.txt", "--out", f"{out}/{m}.ckpt",
                            "--log", f"{out}/{m}.log", "--no-split"] + settings)
            for m, model in MODELS.items()
        ]

    def reloads(self, out):
        return [f"{out}/{m}.ckpt" for m in MODELS]

    def check(self, result, out, fail: Failures):
        for m in MODELS:
            log = read_jsonl(out / f"{m}.log")
            ok = [e["epoch"] for e in log] == list(range(TRAIN_EPOCHS)) and all(
                math.isfinite(e["train_loss"]) and 0.0 <= e["tune_map"] <= 1.0 for e in log)
            fail.check(ok, f"{m} train log is not {TRAIN_EPOCHS} finite epochs")
            self.tune_map[m] = max((e["tune_map"] for e in log), default=0.0)
            fail.check(result["reloads"].get(f"{out}/{m}.ckpt", False),
                       f"{m} checkpoint does not reload")

    def stage_metrics(self, walls):
        post_epochs = self.n_sets * TRAIN_EPOCHS
        return {
            "train_evpi_post_epochs_per_s": post_epochs / median(walls["train_evpi"]),
            "train_pqa_post_epochs_per_s": post_epochs / median(walls["train_pqa"]),
            "evpi_tune_map": self.tune_map.get("evpi", 0.0),
            "pqa_tune_map": self.tune_map.get("pqa", 0.0),
        }


class Rank:
    name = "rank"
    outputs = ("evpi.rank", "pqa.rank", "evpi.eval.json", "pqa.eval.json")

    def generate(self, seed, inp):
        self.inp = inp
        self.records, vectors, evpi, pqa = gen.make_rank(seed, inp)
        self.models = {"evpi": evpi, "pqa": pqa}
        self.scorer = oracle.Scorer(vectors, gen.EMBED_DIM)
        self.worst_rel_error = 0.0

    def stages(self, out):
        i = self.inp
        ranks = [
            (f"rank_{m}", ["rank", "--model", model, "--candidates", f"{i}/candidates.jsonl",
                           "--embeddings", f"{i}/embeddings.txt", "--checkpoint",
                           f"{i}/{m}.ckpt", "--out", f"{out}/{m}.rank"])
            for m, model in MODELS.items()
        ]
        evaluations = [
            (f"evaluate_{m}", ["evaluate", "--rankings", f"{out}/{m}.rank", "--candidates",
                               f"{i}/candidates.jsonl", "--mode", "original", "--model", model,
                               "--out", f"{out}/{m}.eval.json"])
            for m, model in MODELS.items()
        ]
        return ranks + evaluations

    def reloads(self, out):
        return []

    def check(self, result, out, fail: Failures):
        by_post = {r["post_id"]: r for r in self.records}
        for m in MODELS:
            ranked = read_jsonl(out / f"{m}.rank")
            fail.check(sorted(r["post_id"] for r in ranked) == sorted(by_post),
                       f"{m} rankings do not cover every post exactly once")
            score = self.scorer.evpi_scores if m == "evpi" else self.scorer.pqa_scores
            for r in ranked:
                record = by_post.get(r["post_id"])
                n = len(record["questions"]) if record else 0
                # The benchmark checks permutations itself: read_rankings
                # accepts orders such as [0, 0, 0].
                if not fail.check(sorted(r["order"]) == list(range(n))
                                  and len(r["scores"]) == n,
                                  f"{m} order for {r['post_id']} is not a permutation"):
                    continue
                reference = score(self.models[m], record)
                want = [reference[j] for j in r["order"]]
                ok = all(oracle.scores_match(got, ref) for got, ref in zip(r["scores"], want))
                ok = ok and all(a >= b for a, b in zip(r["scores"], r["scores"][1:]))
                fail.check(ok, f"{m} scores for {r['post_id']} differ from the reference")
                self.worst_rel_error = max([self.worst_rel_error] + [
                    abs(got - ref) / max(abs(ref), 1e-300) for got, ref in zip(r["scores"], want)])
            report = json.loads((out / f"{m}.eval.json").read_text(encoding="utf-8"))
            fail.check(report.get("n_posts") == len(by_post),
                       f"{m} evaluation covers {report.get('n_posts')} of {len(by_post)} posts")

    def stage_metrics(self, walls):
        return {f"rank_{m}_posts_per_s": len(self.records) / median(walls[f"rank_{m}"])
                for m in MODELS}


WORKLOADS = {w.name: w for w in (Prep(), Train(), Rank())}


# ---------------------------------------------------------------------------
# Running iterations


class Runner:
    def __init__(self, root: Path, work: Path, workload, fail: Failures, deadline: float):
        self.root = root
        self.work = work
        self.workload = workload
        self.fail = fail
        self.deadline = deadline
        self.timeouts: list[tuple[int, float]] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, stages, reload=(), spans=None):
        """Run one worker; return (status, set-up seconds, result).

        status is "ok", "timeout" (killed at the deadline) or "error".
        """
        job = self.work / "job.json"
        job.write_text(json.dumps({"stages": stages, "reload": list(reload),
                                   "spans": str(spans) if spans else None}), encoding="utf-8")
        timeout = max(1.0, self.deadline - perf_counter())
        with open(self.work / "worker.err", "a", encoding="utf-8") as err:
            spawned = perf_counter()
            proc = subprocess.Popen([sys.executable, str(WORKER), str(job)], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return "timeout", perf_counter() - spawned, None
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return "error", None, None
        result = json.loads(lines[-1])
        return "ok", result["ready_at"] - spawned, result

    def iteration(self, index: int, traced: bool):
        """Run the workload's stages once; return (setup, result, out dir)."""
        out = self.work / f"iter{index:03d}"
        out.mkdir()
        stages = self.workload.stages(out)
        spans = self.work / f"spans{index:03d}.jsonl" if traced else None
        status, setup, result = self.spawn(stages, self.workload.reloads(out), spans)
        if status == "timeout":
            self.timeouts.append((index, setup))
            return None
        if status == "error":
            self.fail.check(False, f"iteration {index}: worker failed")
            return None
        for stage in result["stages"]:
            self.fail.check(stage["code"] == 0,
                            f"{stage['stage']} exited {stage['code']}: {stage['stderr'][-500:]}")
        if any(stage["code"] != 0 for stage in result["stages"]):
            return None
        return setup, result, out

    def same_outputs(self, out: Path, reference: Path, what: str) -> None:
        same = all((out / name).read_bytes() == (reference / name).read_bytes()
                   for name in self.workload.outputs)
        self.fail.check(same, f"{what} outputs differ from the first iteration")


def run_loop(runner: Runner, seconds: float, trace: bool):
    """Closed loop; trace alternates untraced and traced iterations."""
    start = perf_counter()
    plain, traced = [], []
    reference = None
    last = {False: 0.0, True: 0.0}
    index = 0
    while True:
        is_traced = trace and len(plain) > len(traced)
        began = perf_counter()
        got = runner.iteration(index, is_traced)
        if got is None:
            break
        last[is_traced] = perf_counter() - began
        setup, result, out = got
        if reference is None:
            reference = out
            runner.workload.check(result, out, runner.fail)
        else:
            runner.same_outputs(out, reference, "traced" if is_traced else "untraced")
            shutil.rmtree(out)
        (traced if is_traced else plain).append((setup, result, index))
        index += 1
        enough = plain and (traced or not trace)
        next_cost = last[trace and len(plain) > len(traced)] or last[False]
        if enough and perf_counter() - start + next_cost > seconds:
            break
    return plain, traced


# ---------------------------------------------------------------------------
# Metrics


def stage_walls(iterations) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for _, result, _ in iterations:
        for stage in result["stages"]:
            walls.setdefault(stage["stage"], []).append(stage["wall_s"])
    return walls


def end_to_end(plain) -> dict[str, list[float]]:
    """Per-iteration samples of each end-to-end metric."""
    return {
        "setup_s": [s for s, _, _ in plain],
        "wall_s": [sum(st["wall_s"] for st in r["stages"]) for _, r, _ in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for _, r, _ in plain],
    }


class SpanStats:
    """Per-name aggregates of one traced iteration's spans."""

    def __init__(self, spans):
        children = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.by_stage: dict[tuple[str, str], float] = {}
        # Per stage: per-layer self times plus cli.<stage>.self_s.
        self.stage_self: dict[str, float] = {}
        for span, child in zip(spans, children):
            name, duration = span[0], span[2] - span[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
            self.durations.setdefault(name, []).append(duration)
            key = (span[4], name)
            self.by_stage[key] = self.by_stage.get(key, 0.0) + duration
            self.stage_self[span[4]] = self.stage_self.get(span[4], 0.0) + duration - child
            counts = self.counts.setdefault(name, {})
            for counter, value in (span[5] or {}).items():
                counts[counter] = counts.get(counter, 0) + value

    def count(self, name, counter):
        return self.counts.get(name, {}).get(counter, 0)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats) -> dict[str, float]:
    s = stats
    m: dict[str, float] = {}
    for name in ("neural.lstm_forward", "neural.lstm_backward"):
        tokens = s.count(name, "tokens")
        m[f"{name}.calls"] = s.calls.get(name, 0)
        m[f"{name}.tokens"] = tokens
        m[f"{name}.busy_s"] = s.busy.get(name, 0.0)
        m[f"{name}.us_per_token"] = ratio(s.busy.get(name, 0.0), tokens) * 1e6
    m["neural.lstm_forward.gflops_computed"] = s.count("neural.lstm_forward", "flops") / 1e9
    for name in ("neural.feedforward_forward", "neural.feedforward_backward",
                 "neural.adam_step", "embeddings.cos_sim", "embeddings.avg_vector",
                 "retrieval.top_k"):
        m[f"{name}.calls"] = s.calls.get(name, 0)
        m[f"{name}.busy_s"] = s.busy.get(name, 0.0)
    for name in ("neural.load_checkpoint", "neural.save_checkpoint", "training.fit",
                 "training.original_mode_map", "retrieval.build_index", "retrieval.save_index",
                 "retrieval.write_candidates", "retrieval.read_candidates",
                 "embeddings.load_embeddings_file", "ingest.read", "ingest.write_triples",
                 "evaluation.evaluate"):
        m[f"{name}.busy_s"] = s.busy.get(name, 0.0)
    for name in ("evpi.rank_prepared", "evpi.loss_and_grads", "evpi.prepare",
                 "baselines.rank_prepared", "baselines.loss_and_grads", "baselines.prepare"):
        m[f"{name}.calls"] = s.calls.get(name, 0)
        m[f"{name}.self_s"] = s.self_s.get(name, 0.0)
    m["evpi.sim_weight_active_ratio"] = ratio(s.count("evpi.prepare", "active"),
                                              s.count("evpi.prepare", "others"))
    m["training.epochs"] = s.count("training.fit", "epochs")
    m["training.tune_eval_share"] = ratio(s.busy.get("training.original_mode_map", 0.0),
                                          s.busy.get("training.fit", 0.0))
    m["retrieval.top_k.postings_scanned"] = s.count("retrieval.top_k", "postings")
    m["retrieval.top_k.pad_ratio"] = ratio(s.count("retrieval.top_k", "pads"),
                                           s.count("retrieval.top_k", "slots"))
    m["retrieval.build_index.docs"] = s.count("retrieval.build_index", "docs")
    m["retrieval.build_index.terms"] = s.count("retrieval.build_index", "terms")
    m["embeddings.load_embeddings_file.words"] = s.count("embeddings.load_embeddings_file",
                                                         "words")
    m["embeddings.avg_vector.coverage"] = ratio(s.count("embeddings.avg_vector", "found"),
                                                s.count("embeddings.avg_vector", "tokens"))
    m["ingest.read.lines"] = s.count("ingest.read", "lines")
    m["ingest.read.malformed_ratio"] = ratio(s.count("ingest.read", "malformed"),
                                             s.count("ingest.read", "lines"))
    m["ingest.build_triples.self_s"] = s.self_s.get("ingest.build_triples", 0.0)
    m["ingest.build_triples.yield_ratio"] = ratio(s.count("ingest.build_triples", "triples_out"),
                                                  s.count("ingest.build_triples", "posts_in"))
    m["evaluation.evaluate.posts"] = s.count("evaluation.evaluate", "posts")
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = s.busy.get(f"cli.{stage}", 0.0)
        m[f"cli.{stage}.self_s"] = s.self_s.get(f"cli.{stage}", 0.0)
    # Per epoch: fit time less the one-off preparation of the inputs.
    fit_evpi = s.by_stage.get(("train_evpi", "training.fit"), 0.0)
    prepare_evpi = s.by_stage.get(("train_evpi", "evpi.prepare"), 0.0)
    m["reconcile.evpi_s_per_epoch"] = ratio(fit_evpi - prepare_evpi,
                                            TRAIN_EPOCHS if fit_evpi else 0)
    m["reconcile.evpi_ms_per_post_ranked"] = ratio(s.busy.get("evpi.rank_prepared", 0.0),
                                                   s.calls.get("evpi.rank_prepared", 0)) * 1e3
    m["reconcile.top_k_ms_per_query"] = ratio(s.busy.get("retrieval.top_k", 0.0),
                                              s.calls.get("retrieval.top_k", 0)) * 1e3
    return m


def per_layer(work: Path, plain, traced, workload, fail: Failures):
    per_iteration = []
    pooled: dict[str, list[float]] = {}
    self_sums: dict[str, list[float]] = {}
    for _, _, index in traced:
        stats = SpanStats(read_spans(work / f"spans{index:03d}.jsonl"))
        per_iteration.append(layer_metrics(stats))
        for stage, total in stats.stage_self.items():
            self_sums.setdefault(stage, []).append(total)
        for name in ("evpi.rank_prepared", "baselines.rank_prepared"):
            pooled.setdefault(name, []).extend(stats.durations.get(name, []))
    metrics = {key: median([it[key] for it in per_iteration]) for key in per_iteration[0]}
    for name, durations in pooled.items():
        metrics[f"{name}.ms_p50"] = percentile(durations, 50) * 1e3
        metrics[f"{name}.ms_p95"] = percentile(durations, 95) * 1e3
    plain_wall = median([sum(st["wall_s"] for st in r["stages"]) for _, r, _ in plain])
    traced_wall = median([sum(st["wall_s"] for st in r["stages"]) for _, r, _ in traced])
    metrics["trace.overhead_ratio"] = ratio(traced_wall, plain_wall)
    stage = dict.fromkeys(
        ("ingest_posts_per_s", "candidates_posts_per_s", "train_evpi_post_epochs_per_s",
         "train_pqa_post_epochs_per_s", "evpi_tune_map", "pqa_tune_map",
         "rank_evpi_posts_per_s", "rank_pqa_posts_per_s"), 0.0)
    stage.update(workload.stage_metrics(stage_walls(plain)))
    metrics.update(stage)
    check_self_times(self_sums, stage_walls(plain), fail)
    return metrics, {name: len(d) for name, d in pooled.items()}


def check_self_times(self_sums, plain_walls, fail: Failures) -> None:
    """Per stage, traced self times must add up to the untraced stage wall.

    The sum of a stage's self times is its traced wall by construction; what
    can differ is the untraced wall, when tracing distorts the stage.
    """
    for stage, walls in plain_walls.items():
        traced = median(self_sums.get(stage, []))
        untraced = median(walls)
        ok = abs(traced - untraced) <= TRACE_TOLERANCE * untraced + TRACE_SLACK_S
        print(f"# {stage}: traced self times sum to {fmt(traced)} s, untraced wall "
              f"{fmt(untraced)} s, ratio {fmt(ratio(traced, untraced))}")
        fail.check(ok, f"{stage}: traced self times sum to {traced:.4g} s, untraced wall "
                       f"{untraced:.4g} s (tolerance {TRACE_TOLERANCE:g} + {TRACE_SLACK_S:g} s)")


# ---------------------------------------------------------------------------
# Environment record


def environment(root: Path) -> dict:
    def git_commit():
        head = root / ".git" / "HEAD"
        if not head.is_file():
            return "unknown (not a git checkout)"
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.is_file() else []:
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    # Turn SIGTERM into SystemExit so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "evpirank" / "cli.py").is_file():
        print("error: run from the repository root; src/evpirank/cli.py not found",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    env = environment(root)
    (work / "environment.json").write_text(json.dumps(env, indent=1), encoding="utf-8")

    workload = WORKLOADS[args.workload]
    workload.generate(args.seed, work / "inputs")
    fail = Failures()
    limit = max(RUN_LIMIT_S, LIMIT_PER_SECOND * args.seconds)
    runner = Runner(root, work, workload, fail, started + limit)
    # Warm-up: the first import compiles bytecode, which users pay once.
    runner.spawn([])
    plain, traced = run_loop(runner, args.seconds, bool(args.trace))
    if not plain or (args.trace and not traced):
        fail.check(False, f"no complete iteration ({len(runner.timeouts)} timed out)")

    print(f"# evpirank benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics: dict[str, float] = {}
    if plain:
        e2e = end_to_end(plain)
        for name, values in e2e.items():
            lo, hi = quartiles(values)
            print(f"{name} {fmt(median(values))} {units.get(name, '')}  "
                  f"(median of {len(values)}, quartiles {fmt(lo)}..{fmt(hi)})")
        walls = stage_walls(plain)
        for name, values in workload.stage_metrics(walls).items():
            print(f"{name} {fmt(values)} {units.get(name, '')}")
        for stage, values in walls.items():
            print(f"cli.{stage}.wall_s {fmt(median(values))} s  (median of {len(values)})")
        cpu = sum(st["cpu_s"] for _, r, _ in plain for st in r["stages"])
        print(f"# CPU time / wall time of the stages: {fmt(ratio(cpu, sum(e2e['wall_s'])))} "
              f"(below 1 when the host is contended)")
        if not args.trace:
            metrics = {name: median(e2e[name]) for name in e2e}
    if args.trace and plain and traced:
        metrics, samples = per_layer(work, plain, traced, workload, fail)
        for name, count in samples.items():
            if count:
                print(f"# {name}: ms_p50/ms_p95 pooled over {count} calls in "
                      f"{len(traced)} traced iterations")
        print_reconciliation(args.workload, metrics)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if metrics:
        missing = sorted(set(wanted) - set(metrics) - {"failed_ratio"})
        fail.check(not missing, f"metrics not computed: {missing}")
    if isinstance(workload, Rank):
        print(f"# rank scores vs reference: worst relative error "
              f"{workload.worst_rel_error:.3g} (tolerance {oracle.SCORE_RTOL:g})")
    for index, after in runner.timeouts:
        print(f"# TIMEOUT: iteration {index} was killed after {after:.1f} s at the run's "
              f"{limit:g} s limit; a slowdown, not a failed check, and not in the medians")
    failed_ratio = ratio(fail.failed, fail.attempted)
    print(f"failed_ratio {fmt(failed_ratio)} ratio  ({fail.failed} of {fail.attempted})")
    for message in fail.messages[:20]:
        print(f"# FAILED: {message}")
    if args.trace:
        metrics["failed_ratio"] = failed_ratio
    result = {
        "correct": fail.failed == 0,
        "attempted": max(1, fail.attempted),
        "failed": fail.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0 if fail.failed == 0 else 1


def print_reconciliation(workload: str, metrics: dict) -> None:
    """Set the traced figures next to ROADMAP item 1's reference numbers."""
    notes = {
        "train": ("evpi_s_per_epoch", "same corpus and settings as the reference, so a "
                  "difference beyond the host's run-to-run spread is not from the input"),
        "rank": ("evpi_ms_per_post_ranked", "different input: hidden_dim 100, 200-d vectors "
                 "and posts of 40-200 tokens against short clustered posts at hidden_dim 24"),
        "prep": ("top_k_ms_per_query", "different input: Zipfian text with long postings "
                 "lists against short uniform documents; compare us per posting scanned"),
    }
    key, why = notes[workload]
    ref, setting = ROADMAP[key]
    print(f"# reconcile {key}: measured {fmt(metrics[f'reconcile.{key}'])}, "
          f"ROADMAP {ref} ({setting}); {why}")
    if workload == "prep":
        scanned = metrics["retrieval.top_k.postings_scanned"]
        print(f"# reconcile top_k: {fmt(ratio(metrics['retrieval.top_k.busy_s'], scanned) * 1e6)}"
              f" us per posting scanned, {fmt(ratio(scanned, metrics['retrieval.top_k.calls']))}"
              f" postings per query")
    if workload == "train":
        print(f"# reconcile evpi_ms_per_post_ranked (tune evaluation, the reference's setting): "
              f"measured {fmt(metrics['reconcile.evpi_ms_per_post_ranked'])}, ROADMAP 7.7")


if __name__ == "__main__":
    sys.exit(main())
