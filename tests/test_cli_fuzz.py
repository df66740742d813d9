"""Mutated input lines never end in a traceback, a partial file or a non-finite number.

Each example edits one line of the golden candidates file, or of a rankings
file written from it: it drops a field, swaps a value's JSON type, writes a
non-finite or overflowing number, empties a list, or inserts odd Unicode.
`rank` (evpi and random) and `evaluate` then read the result. Every run
must exit 0 or 2 with no traceback; after exit 2 no output file exists, and
every number any run writes is finite.
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
CANDIDATES = FIXTURES / "golden" / "candidates.jsonl"
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


def write_mutated(path: Path, lines: list[str], index: int, text: str) -> None:
    edited = lines[:index] + [text] + lines[index + 1 :]
    with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in edited))


def check(argv: list, out_path: Path) -> None:
    """Run argv, which writes out_path, under the fuzz test's assertions."""
    code, out, err = run(*argv, "--out", out_path)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
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


def test_surrogate_post_id_in_rankings(inputs, tmp_path):
    lines = inputs["rankings"].read_text(encoding="utf-8").splitlines()
    rankings = tmp_path / "evpi.rank"
    write_mutated(rankings, lines, 0, with_field(lines[0], post_id=SURROGATE_ID))
    code, _, err = run(
        "evaluate", "--rankings", rankings, "--candidates", CANDIDATES, "--mode", "original"
    )
    assert code == 2 and "line 1: post_id must be a string" in err
