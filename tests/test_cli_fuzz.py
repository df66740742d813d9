"""Mutated input lines never end in a traceback, a partial file or a non-finite number.

Each example edits one line of a dump file, of the golden triples or
candidates file, of a rankings file written from the candidates, or of an
annotations file of them: it drops a field, swaps a value's JSON type,
writes a non-finite or overflowing number, empties a list, or inserts odd
Unicode. `ingest` reads the dump files; `candidates` reads the triples;
`rank` (evpi and random) reads the candidates; `evaluate` and
`significance` read the rest. Other examples give `train` odd `--set`
settings. Every run must exit 0 or 2 with no traceback; every stderr line
is a JSON object or the one `error: ...` line; after exit 2 no output file
exists and stdout is empty, and every number any run writes is finite. A
line given bytes that are not UTF-8 must exit 2 naming that line, except
in a dump file, where `ingest` counts it as malformed.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evpirank.cli import MODEL_NAMES, main
from evpirank.neural import load_checkpoint

FIXTURES = Path(__file__).parent / "fixtures"
DUMP = FIXTURES / "dump"
CANDIDATES = FIXTURES / "golden" / "candidates.jsonl"
TRIPLES = FIXTURES / "golden" / "triples.jsonl"
EMBEDDINGS = FIXTURES / "embeddings_toy.txt"

# Raw JSON number text json.dumps cannot write: json.loads reads the first
# three as non-finite floats and 1e999 as inf.
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]
ODD_UNICODE = [
    "\u0000", "\ud800", "\udfff", "\ufeff", "\u200b", "\u202e", "\u2028", "\u0085",
    "\r", "e\u0301", "\U0001f600", "\uffff", "\\", '"',
]
OTHER_TYPE = [None, True, 0, -1, 2**70, 1.5, "7", "", [], ["x"], [1], {}, {"a": 1}]


def run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_finite_json(text: str) -> None:
    """Every line of text that is JSON holds only finite numbers."""
    for line in text.splitlines():
        try:
            value = json.loads(line, parse_constant=lambda name: math.nan)
        except ValueError:
            continue  # the evaluate table
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)
            elif isinstance(item, float):
                assert math.isfinite(item), line


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An evpi checkpoint trained on the golden candidates, and evpi and random rankings of them."""
    root = tmp_path_factory.mktemp("fuzz")
    checkpoint = root / "evpi.ckpt"
    rankings = root / "evpi.rank"
    random_rankings = root / "random.rank"
    assert run(
        "train", "--candidates", CANDIDATES, "--embeddings", EMBEDDINGS, "--model", "evpi",
        "--no-split", "--set", "hidden_dim=3", "--set", "epochs=1", "--out", checkpoint,
    )[0] == 0
    assert run(
        "rank", "--candidates", CANDIDATES, "--embeddings", EMBEDDINGS, "--model", "evpi",
        "--checkpoint", checkpoint, "--out", rankings,
    )[0] == 0
    assert run(
        "rank", "--candidates", CANDIDATES, "--model", "random", "--out", random_rankings
    )[0] == 0
    return {"checkpoint": checkpoint, "rankings": rankings, "random_rankings": random_rankings}


@st.composite
def mutated_line(draw, lines: list[str]) -> tuple[int, str]:
    """(index, new text) of one of lines, each a JSON object."""
    index = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    field = draw(st.sampled_from(sorted(record)))
    value = record[field]
    kind = draw(st.sampled_from(["drop", "type", "number", "empty", "unicode", "raw"]))
    if kind == "drop":
        del record[field]
    elif kind == "type":
        record[field] = draw(st.sampled_from(OTHER_TYPE))
    elif kind == "number":
        # The placeholder string becomes raw number text after json.dumps.
        if isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = "@NUMBER@"
        else:
            record[field] = "@NUMBER@"
    elif kind == "empty":
        record[field] = [] if isinstance(value, list) else ""
    elif kind == "unicode":
        odd = draw(st.sampled_from(ODD_UNICODE))
        if isinstance(value, list) and value and isinstance(value[0], str):
            j = draw(st.integers(0, len(value) - 1))
            value[j] = value[j][:1] + odd + value[j][1:]
        elif isinstance(value, str):
            record[field] = value[:1] + odd + value[1:]
        else:
            record[field] = odd
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    text = text.replace('"@NUMBER@"', draw(st.sampled_from(NON_FINITE)))
    if kind == "raw":
        # Odd Unicode straight into the line's text, possibly breaking its JSON.
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_UNICODE)) + text[at:]
    return index, text


def write_mutated(path: Path, lines: list[str], index: int, text: str | bytes) -> None:
    """lines with line index replaced by text, or by raw bytes."""
    edited = [line.encode("utf-8") for line in lines]
    edited[index] = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    path.write_bytes(b"".join(line + b"\n" for line in edited))


def check(argv: list, out_path: Path | None) -> None:
    """Run argv, which writes out_path (only stdout if None), under the fuzz test's assertions."""
    code, out, err = run(*argv, *(["--out", out_path] if out_path else []))
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert sum(line.startswith("error: ") for line in lines) == (code == 2), err
    for line in lines:
        assert line.startswith("error: ") or type(json.loads(line)) is dict, err
    if code == 2:
        assert out == "" and not (out_path and out_path.exists()), err
        return
    assert_finite_json(out)
    if out_path is None:
        return
    if out_path.suffix == ".ckpt":
        assert all(np.isfinite(tensor).all() for tensor in load_checkpoint(out_path).values())
    else:
        assert_finite_json(out_path.read_text(encoding="utf-8"))


CANDIDATE_LINES = CANDIDATES.read_text(encoding="utf-8").splitlines()


def with_field(line: str, **fields) -> str:
    return json.dumps({**json.loads(line), **fields})


# A post id holding a lone surrogate (written as its \\ud800 escape) made
# `rank` exit 1 when it hashed or wrote the id.
SURROGATE_ID = "p\ud800"

_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_settings
@given(mutation=mutated_line(CANDIDATE_LINES))
@example(mutation=(0, with_field(CANDIDATE_LINES[0], post_id=SURROGATE_ID)))
def test_mutated_candidates_line(inputs, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        candidates = tmp / "candidates.jsonl"
        write_mutated(candidates, CANDIDATE_LINES, *mutation)
        for model, checkpoint in (("evpi", ["--checkpoint", inputs["checkpoint"]]), ("random", [])):
            rankings = tmp / f"{model}.rank"
            check(
                ["rank", "--candidates", candidates, "--embeddings", EMBEDDINGS,
                 "--model", model, *checkpoint],
                rankings,
            )
            if rankings.exists():
                check(
                    ["evaluate", "--rankings", rankings, "--candidates", candidates,
                     "--mode", "original"],
                    tmp / f"{model}.eval.json",
                )


TRIPLE_LINES = TRIPLES.read_text(encoding="utf-8").splitlines()


@_settings
@given(mutation=mutated_line(TRIPLE_LINES))
# A post id holding a tab made `candidates` exit 1 when it built the index.
@example(mutation=(1, with_field(TRIPLE_LINES[1], post_id="p\t02")))
def test_mutated_triples_line(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        triples = tmp / "triples.jsonl"
        write_mutated(triples, TRIPLE_LINES, *mutation)
        check(
            ["candidates", "--triples", triples, "--index-out", tmp / "posts.idx"],
            tmp / "candidates.jsonl",
        )


@_settings
@given(data=st.data())
def test_mutated_rankings_line(inputs, data):
    lines = inputs["rankings"].read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rankings = tmp / "evpi.rank"
        write_mutated(rankings, lines, *data.draw(mutated_line(lines)))
        check(
            ["evaluate", "--rankings", rankings, "--candidates", CANDIDATES, "--mode", "original"],
            tmp / "eval.json",
        )


# Bytes that no UTF-8 text holds: a stray byte, a multi-byte sequence cut
# short, and a UTF-16 byte order mark.
NOT_UTF8 = [b"\xff", b"\xe2\x82", b"\xff\xfe"]


@st.composite
def non_utf8_line(draw, lines: list[str]) -> tuple[int, bytes]:
    """(index, new bytes) of one of lines, with bytes that are not UTF-8 inserted anywhere."""
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index].encode("utf-8")
    at = draw(st.integers(0, len(line)))
    return index, line[:at] + draw(st.sampled_from(NOT_UTF8)) + line[at:]


# Two annotators for each post of the golden candidates.
ANNOTATION_LINES = [
    json.dumps({"post_id": json.loads(line)["post_id"], "annotator_id": annotator,
                "best": best, "valid": valid})
    for line in CANDIDATE_LINES
    for annotator, best, valid in (("a1", 0, [0, 1, 2]), ("a2", 1, [0, 1]))
]
ANNOTATED_MODES = ["best_union", "valid_intersection", "exclude_original"]


@_settings
@given(mutation=mutated_line(ANNOTATION_LINES), mode=st.sampled_from(ANNOTATED_MODES))
# An error naming a post id that holds U+2028 printed the id raw, splitting its line in two.
@example(mutation=(0, with_field(ANNOTATION_LINES[0], post_id="p\u202801")), mode="best_union")
def test_mutated_annotations_line(inputs, mutation, mode):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        annotations = tmp / "annotations.jsonl"
        write_mutated(annotations, ANNOTATION_LINES, *mutation)
        labels = ["--candidates", CANDIDATES, "--annotations", annotations, "--mode", mode]
        check(["evaluate", "--rankings", inputs["rankings"], *labels], tmp / "eval.json")
        check(
            ["significance", "--rankings-a", inputs["rankings"],
             "--rankings-b", inputs["random_rankings"], "--n", "20", *labels],
            None,
        )


# Values of the settings each model reads that train stays small under.
SMALL_VALUES = {
    "hidden_dim": st.integers(-1, 4),
    "epochs": st.integers(-1, 2),
    "batch_size": st.integers(-1, 8),
    "patience": st.integers(-1, 3),
    "seed": st.integers(-(2**70), 2**70),
    "lr": st.floats(-1.0, 0.1),
}
ODD_KEYS = ["hiden_dim", "", "Epochs", " lr ", "seed\u200b", "config", "hidden_dim=2"]
# Values no setting takes: not numbers, not finite, over Python's 4,300-digit
# int() limit, or not decimal digits.
ODD_VALUES = [
    "", " ", "x", "1.5", "0x10", "1e3", "true", "None", "nan", "-nan", "inf", "-inf",
    "Infinity", "1e999", "9" * 5000, "-" + "9" * 5000, "\u00b2", "\u2161", "1\u200b",
]
# Unicode decimal digits 0-2 other than ASCII: Arabic-Indic, Devanagari,
# fullwidth and mathematical bold. int() and float() read them.
UNICODE_DIGITS = [
    "\u0660\u0661\u0662", "\u0966\u0967\u0968", "\uff10\uff11\uff12", "\U0001d7ce\U0001d7cf\U0001d7d0"
]


@st.composite
def setting(draw) -> list[str]:
    """One train option: --set with a known, odd or missing key and value, or --seed."""
    key = draw(st.sampled_from(sorted(SMALL_VALUES) + ODD_KEYS))
    kind = draw(st.sampled_from(["small", "odd", "unicode", "no_equals", "seed"]))
    if kind == "seed":
        return ["--seed", str(draw(st.integers(-3, 3)))]
    if kind == "no_equals":
        return ["--set", key]
    if kind == "small" and key in SMALL_VALUES:
        value = str(draw(SMALL_VALUES[key]))
    elif kind == "unicode":
        value = draw(st.sampled_from(UNICODE_DIGITS))[draw(st.integers(0, 2))]
    else:
        value = draw(st.sampled_from(ODD_VALUES))
    return ["--set", f"{key}={value}"]


@_settings
@given(
    model=st.sampled_from([name for name in MODEL_NAMES if name != "random"]),
    options=st.lists(setting(), min_size=1, max_size=3),
)
def test_odd_train_settings(model, options):
    # Small defaults first: a setting drawn later overrides them.
    small = ["--set", "epochs=1"] if model in ("ngrams", "cqa") else [
        "--set", "epochs=1", "--set", "hidden_dim=2"
    ]
    with tempfile.TemporaryDirectory() as tmp:
        check(
            ["train", "--candidates", CANDIDATES, "--embeddings", EMBEDDINGS, "--model", model,
             "--no-split", *small, *[arg for option in options for arg in option]],
            Path(tmp) / "model.ckpt",
        )


@_settings
@given(data=st.data())
@pytest.mark.parametrize("reader", ["candidates", "rankings", "annotations"])
def test_a_line_that_is_not_utf8_is_named(inputs, reader, data):
    lines = {
        "candidates": CANDIDATE_LINES,
        "rankings": inputs["rankings"].read_text(encoding="utf-8").splitlines(),
        "annotations": ANNOTATION_LINES,
    }[reader]
    index, mutated = data.draw(non_utf8_line(lines))
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / f"bad.{reader}", Path(tmp) / "out"
        edited = [line.encode("utf-8") for line in lines]
        edited[index] = mutated
        bad.write_bytes(b"".join(line + b"\n" for line in edited))
        argv = {
            "candidates": ["rank", "--candidates", bad, "--model", "random"],
            "rankings": [
                "evaluate", "--rankings", bad, "--candidates", CANDIDATES, "--mode", "original"
            ],
            "annotations": [
                "evaluate", "--rankings", inputs["rankings"], "--candidates", CANDIDATES,
                "--annotations", bad, "--mode", "best_union",
            ],
        }[reader]
        code, stdout, err = run(*argv, "--out", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert f"malformed {reader} file {bad}: line {index + 1}: not UTF-8" in err


DUMP_LINES = {
    name: (DUMP / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    for name in ("posts", "comments", "history")
}


@_settings
@given(data=st.data(), name=st.sampled_from(sorted(DUMP_LINES)))
def test_mutated_dump_line(data, name):
    lines = DUMP_LINES[name]
    mutation = data.draw(st.one_of(mutated_line(lines), non_utf8_line(lines)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dump = {other: DUMP / f"{other}.jsonl" for other in DUMP_LINES}
        dump[name] = tmp / f"{name}.jsonl"
        write_mutated(dump[name], lines, *mutation)
        check(
            ["ingest", "--posts", dump["posts"], "--comments", dump["comments"],
             "--history", dump["history"], "--embeddings", EMBEDDINGS],
            tmp / "triples.jsonl",
        )


def test_surrogate_post_id_in_rankings(inputs, tmp_path):
    lines = inputs["rankings"].read_text(encoding="utf-8").splitlines()
    rankings = tmp_path / "evpi.rank"
    write_mutated(rankings, lines, 0, with_field(lines[0], post_id=SURROGATE_ID))
    code, _, err = run(
        "evaluate", "--rankings", rankings, "--candidates", CANDIDATES, "--mode", "original"
    )
    assert code == 2 and "line 1: post_id must be a string" in err
