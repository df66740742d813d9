"""Mutated input lines never end in a traceback, a partial file or a non-finite number.

Each example edits one line of a dump file, of the golden triples or
candidates file, of a rankings file written from the candidates, or of an
annotations file of them: it drops a field, swaps a value's JSON type,
writes a non-finite or overflowing number, empties a list, or inserts odd
Unicode. `ingest` reads the dump files; `candidates` reads the triples;
`rank` (evpi and random) reads the candidates; `evaluate` and
`significance` read the rest. Other examples give `train` odd `--set`
settings, edit a line of the vectors file that `ingest`, `train --model
cqa` and `rank --model evpi` read, or damage the checkpoint `rank` reads.
Every run must exit 0 or 2 with no traceback; every stderr line is a JSON
object or the one `error: ...` line; after exit 2 no output file exists and
stdout is empty, and every number any run writes is finite. A line given
bytes that are not UTF-8 must exit 2 naming that line, except in a dump
file, where `ingest` counts it as malformed. A damaged vectors cache must
change nothing a run writes.
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

from evpirank import embeddings
from evpirank.cli import MODEL_NAMES, VECTOR_MODELS, main
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
        for model, extra in (
            ("evpi", ["--embeddings", EMBEDDINGS, "--checkpoint", inputs["checkpoint"]]),
            ("random", []),
        ):
            rankings = tmp / f"{model}.rank"
            check(["rank", "--candidates", candidates, "--model", model, *extra], rankings)
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
    vectors = ["--embeddings", EMBEDDINGS] if model in VECTOR_MODELS else []
    with tempfile.TemporaryDirectory() as tmp:
        check(
            ["train", "--candidates", CANDIDATES, *vectors, "--model", model,
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


VECTOR_LINES = EMBEDDINGS.read_text(encoding="utf-8").splitlines()
# Value text float() reads and np.loadtxt does not, or the reverse, or neither.
ODD_NUMBERS = NON_FINITE + [
    "nan", "-inf", "1_0", "0x10", "1e-400", "1e308", "-0.0", ".5", "5.", "+1", "--1", "1e",
    "1,5", "", "true", "１", "١", "²",
]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", " ", "　", "\x85", "\r"]


@st.composite
def mutated_vectors_line(draw, lines: list[str]) -> tuple[int, str]:
    """(index, new text) of one `word v1 ... vd` line of lines."""
    index = draw(st.integers(0, len(lines) - 1))
    word, *values = lines[index].split(" ")
    kind = draw(st.sampled_from(["value", "drop", "add", "word", "separator", "empty", "raw"]))
    if kind == "value":
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_NUMBERS))
    elif kind == "drop":
        del values[draw(st.integers(0, len(values) - 1))]
    elif kind == "add":
        values.append(draw(st.sampled_from(["0", "1"])))
    elif kind == "word":
        # another line's word repeats it; an odd character may make it no word at all
        word = draw(st.sampled_from([line.split(" ")[0] for line in lines] + ODD_UNICODE + [""]))
    elif kind == "empty":
        return index, draw(st.sampled_from(["", " ", word]))
    fields = [word, *values]
    at = draw(st.integers(1, len(fields) - 1))
    separator = draw(st.sampled_from(SEPARATORS)) if kind == "separator" else " "
    text = " ".join(fields[:at]) + separator + " ".join(fields[at:])
    if kind == "raw":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_UNICODE)) + text[at:]
    return index, text


@_settings
@given(
    mutation=st.one_of(mutated_vectors_line(VECTOR_LINES), non_utf8_line(VECTOR_LINES)),
    cached=st.booleans(),
)
# A finite value whose square overflows made cos_sim warn of overflow, which
# pytest's filters turn into exit 1.
@example(mutation=(0, "cpu 1e308 0 0 0"), cached=False)
def test_mutated_vectors_line(inputs, mutation, cached):
    # Cached, the first command parses the file and writes its cache, and the others read it.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        vectors = tmp / "vectors.txt"
        write_mutated(vectors, VECTOR_LINES, *mutation)
        if cached:
            mp.setattr(embeddings, "CACHE_MIN_BYTES", 1)
        check(
            ["ingest", "--posts", DUMP / "posts.jsonl", "--comments", DUMP / "comments.jsonl",
             "--history", DUMP / "history.jsonl", "--embeddings", vectors],
            tmp / "triples.jsonl",
        )
        check(
            ["train", "--candidates", CANDIDATES, "--embeddings", vectors, "--model", "cqa",
             "--no-split", "--set", "epochs=1"],
            tmp / "cqa.ckpt",
        )
        check(
            ["rank", "--candidates", CANDIDATES, "--embeddings", vectors, "--model", "evpi",
             "--checkpoint", inputs["checkpoint"]],
            tmp / "evpi.rank",
        )


def cache_of(vectors: Path) -> bytes:
    """The cache load_embeddings_file writes beside a vectors file."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "CACHE_MIN_BYTES", 1)
        copy = Path(tmp) / "vectors.txt"
        copy.write_bytes(vectors.read_bytes())
        embeddings.load_embeddings_file(copy)
        return copy.with_name(copy.name + embeddings.CACHE_SUFFIX).read_bytes()


def cache_parts(blob: bytes) -> tuple[list[int], list[int]]:
    """Offsets of the cache's .npy headers and key, and of the words and values it stores."""
    handle, structure, payload = io.BytesIO(blob), [], []
    for k in range(3):  # the key, the words and the matrix
        start = handle.tell()
        np.lib.format.read_magic(handle)
        shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
        data = handle.tell()
        end = data + math.prod(shape) * dtype.itemsize
        structure += range(start, end if k == 0 else data)
        payload += range(end if k == 0 else data, end)
        handle.seek(end)
    return structure, payload


CACHE = cache_of(EMBEDDINGS)
CACHE_STRUCTURE, CACHE_PAYLOAD = cache_parts(CACHE)


@st.composite
def damaged_cache(draw) -> bytes:
    """The toy vectors' cache cut short, extended, with a structural byte replaced or a bit
    of its words or values flipped, or garbage."""
    kind = draw(st.sampled_from(["truncate", "append", "byte", "bit", "garbage"]))
    if kind == "truncate":
        return CACHE[: draw(st.integers(0, len(CACHE) - 1))]
    if kind == "append":
        return CACHE + draw(st.binary(min_size=1, max_size=16))
    if kind == "garbage":
        return draw(st.binary(max_size=64))
    if kind == "bit":
        return flipped(draw(st.sampled_from(CACHE_PAYLOAD)), draw(st.integers(0, 7)))
    at = draw(st.sampled_from(CACHE_STRUCTURE))
    byte = draw(st.integers(0, 255).filter(lambda b: b != CACHE[at]))
    return CACHE[:at] + bytes([byte]) + CACHE[at + 1 :]


def flipped(at: int, bit: int) -> bytes:
    """The toy vectors' cache with one bit of byte at flipped."""
    return CACHE[:at] + bytes([CACHE[at] ^ 1 << bit]) + CACHE[at + 1 :]


@_settings
@given(cache=damaged_cache())
# A .npy header that does not parse raised tokenize.TokenError, and `rank` exited 1.
@example(cache=CACHE.replace(b"'shape':", b"'shape(:", 1))
# Before the cache held a CRC of its payload, net's row read [0, 0, 0, 1.0625].
@example(cache=flipped(len(CACHE) - 2, 0))
def test_a_damaged_cache_changes_no_output(inputs, cache):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        vectors = tmp / "vectors.txt"
        vectors.write_bytes(EMBEDDINGS.read_bytes())
        rank = ["rank", "--candidates", CANDIDATES, "--embeddings", vectors, "--model", "evpi",
                "--checkpoint", inputs["checkpoint"], "--out"]
        uncached = run(*rank, tmp / "uncached.rank")
        mp.setattr(embeddings, "CACHE_MIN_BYTES", 1)
        vectors.with_name(vectors.name + embeddings.CACHE_SUFFIX).write_bytes(cache)
        assert run(*rank, tmp / "cached.rank") == uncached
        assert (tmp / "cached.rank").read_bytes() == (tmp / "uncached.rank").read_bytes()


# Manifest field text: no dimension or count at all, a negative or huge one,
# non-ASCII digits, and odd Unicode.
ODD_FIELDS = [
    "", "x", "-1", "0", "1.0", "1e3", "9" * 30, str(2**63), "٣", "３", "ff/W0",
    "data", *ODD_UNICODE,
]
ODD_DOUBLES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0, -0.0, 1e154]


@st.composite
def damaged_checkpoint(draw, blob: bytes) -> bytes:
    """blob with one manifest line edited, data bytes or a double overwritten, cut or extended."""
    data = blob.index(b"\ndata\n") + len(b"\ndata\n")
    kind = draw(st.sampled_from(["field", "line", "raw", "double", "byte", "truncate", "append"]))
    if kind in ("field", "line", "raw"):
        lines = blob[:data].decode("utf-8").split("\n")[:-1]  # the manifest, header to "data"
        index = draw(st.integers(0, len(lines) - 1))
        if kind == "field":
            fields = lines[index].split(" ")
            at = draw(st.integers(0, len(fields)))
            what = draw(st.sampled_from(["replace", "insert", "drop"]))
            if what != "insert" and at < len(fields):
                del fields[at]
            if what != "drop":
                fields.insert(at, draw(st.sampled_from(ODD_FIELDS)))
            lines[index] = " ".join(fields)
        elif kind == "line":
            what = draw(st.sampled_from(["drop", "repeat"]))
            lines[index : index + 1] = [] if what == "drop" else [lines[index]] * 2
        else:
            at = draw(st.integers(0, len(lines[index])))
            lines[index] = lines[index][:at] + draw(st.sampled_from(ODD_UNICODE)) + lines[index][at:]
        head = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
        return head + blob[data:]
    if kind == "double":
        at = data + 8 * draw(st.integers(0, (len(blob) - data) // 8 - 1))
        value = np.array(draw(st.sampled_from(ODD_DOUBLES)), "<f8").tobytes()
        return blob[:at] + value + blob[at + 8 :]
    if kind == "byte":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    return blob + draw(st.binary(min_size=1, max_size=16))


@_settings
@given(data=st.data())
def test_damaged_checkpoint(inputs, data):
    blob = data.draw(damaged_checkpoint(inputs["checkpoint"].read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkpoint = tmp / "evpi.ckpt"
        checkpoint.write_bytes(blob)
        check(
            ["rank", "--candidates", CANDIDATES, "--embeddings", EMBEDDINGS, "--model", "evpi",
             "--checkpoint", checkpoint],
            tmp / "evpi.rank",
        )
