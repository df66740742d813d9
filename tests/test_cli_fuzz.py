"""Mutated input lines never end in a traceback, a partial file or a non-finite number.

Each example edits one line of a dump file, of the golden triples or
candidates file, or of a rankings file written from the candidates: it
drops a field, swaps a value's JSON type, writes a non-finite or
overflowing number, empties a list, or inserts odd Unicode. `ingest` reads
the dump files; `candidates` reads the triples; `rank` (evpi and random) and
`evaluate` read the rest. Every run must exit 0 or 2 with no traceback;
every stderr line is a JSON object or the one `error: ...` line; after exit
2 no output file exists, and every number any run writes is finite. A line
given bytes that are not UTF-8 must exit 2 naming that line, except in a
dump file, where `ingest` counts it as malformed.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evpirank.cli import main

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
    """An evpi checkpoint trained on the golden candidates, and a rankings file of them."""
    root = tmp_path_factory.mktemp("fuzz")
    checkpoint = root / "evpi.ckpt"
    rankings = root / "evpi.rank"
    assert run(
        "train", "--candidates", CANDIDATES, "--embeddings", EMBEDDINGS, "--model", "evpi",
        "--no-split", "--set", "hidden_dim=3", "--set", "epochs=1", "--out", checkpoint,
    )[0] == 0
    assert run(
        "rank", "--candidates", CANDIDATES, "--embeddings", EMBEDDINGS, "--model", "evpi",
        "--checkpoint", checkpoint, "--out", rankings,
    )[0] == 0
    return {"checkpoint": checkpoint, "rankings": rankings}


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


def check(argv: list, out_path: Path) -> None:
    """Run argv, which writes out_path, under the fuzz test's assertions."""
    code, out, err = run(*argv, "--out", out_path)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert sum(line.startswith("error: ") for line in lines) == (code == 2), err
    for line in lines:
        assert line.startswith("error: ") or type(json.loads(line)) is dict, err
    if code == 2:
        assert not out_path.exists(), err
    else:
        assert_finite_json(out)
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
        for model in ("evpi", "random"):
            rankings = tmp / f"{model}.rank"
            check(
                ["rank", "--candidates", candidates, "--embeddings", EMBEDDINGS,
                 "--model", model, "--checkpoint", inputs["checkpoint"]],
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


@_settings
@given(data=st.data())
@pytest.mark.parametrize("reader", ["candidates", "rankings"])
def test_a_line_that_is_not_utf8_is_named(inputs, reader, data):
    lines = (CANDIDATES if reader == "candidates" else inputs["rankings"]).read_text(
        encoding="utf-8"
    ).splitlines()
    index, mutated = data.draw(non_utf8_line(lines))
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / f"bad.{reader}", Path(tmp) / "out"
        edited = [line.encode("utf-8") for line in lines]
        edited[index] = mutated
        bad.write_bytes(b"".join(line + b"\n" for line in edited))
        if reader == "candidates":
            argv = ["rank", "--candidates", bad, "--model", "random"]
        else:
            argv = ["evaluate", "--rankings", bad, "--candidates", CANDIDATES, "--mode", "original"]
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
