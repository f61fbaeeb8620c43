"""Low-level text helpers shared across the pipeline.

Everything here is deliberately tokenizer-free: token counts are whitespace
splits, "word" boundaries are ASCII-alphanumeric neighbourhood checks, and
sentence splitting is naive punctuation splitting. The JSON-lines reader
and writer below are the only place the row format is spelled out.
atomic_open replaces one output file only when its writer succeeds;
atomic_outputs opens a run's files in its output directory that way, and
a failed run leaves no directory it created.
Only this module imports json. JSON_ENCODER (and JSON_INDENTED) writes
and decode_json reads every JSON text in ppc, both strict RFC 8259: no NaN
or +-Infinity in or out. json_is is the one type test of a decoded value.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from itertools import takewhile
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

_ASCII_ALNUM = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
)

# Byte class of each ASCII character: digits become "0", letters "a", the rest " ".
_CHAR_CLASS = bytes(
    ord("0") if c in "0123456789" else ord("a") if c in _ASCII_ALNUM else ord(" ")
    for c in map(chr, range(256))
)

_SENTENCE = re.compile(r"[^.!?]*[.!?]|[^.!?]+$")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# Every JSON text ppc writes: sorted keys, non-ASCII kept, no non-finite number.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False)
# The same, indented two spaces (summary.json).
JSON_INDENTED = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False, indent=2)
JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_json(text: str):
    """Every JSON text ppc reads; `NaN`, `Infinity`, `-Infinity` and nesting too deep for the decoder are a ValueError."""
    try:
        return JSON_DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def json_is(value, *kinds: type) -> bool:
    """Whether a decoded JSON value is one of `kinds`; true and false are bools, never ints or floats."""
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _converted(text: str, convert: Callable, where: str, row: bool):
    """`convert` of the JSON in `text`, a JSONL `row` (an object) or a whole document.

    Invalid JSON, or a KeyError/ValueError from `convert`, is a ValueError "<where>: ...".
    """
    try:
        data = decode_json(text)
        if row and not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return convert(data)
    except json.JSONDecodeError as exc:
        at = f"column {exc.pos + 1}" if row else f"line {exc.lineno} column {exc.colno}"
        raise ValueError(f"{where}: invalid JSON at {at}: {exc.msg}") from exc
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def count_tokens(text: str) -> int:
    """Whitespace-delimited token count."""
    return len(text.split())


def is_boundary(text: str, index: int) -> bool:
    """True when `index` falls outside `text` or on a non-alphanumeric char."""
    if index < 0 or index >= len(text):
        return True
    return text[index] not in _ASCII_ALNUM


def find_phrase(text: str, phrase: str, start: int = 0) -> int:
    """First occurrence of `phrase` with non-alphanumeric neighbours, else -1.

    Blocks partial-word hits such as "results in" inside "results into".
    """
    while True:
        hit = text.find(phrase, start)
        if hit == -1:
            return -1
        if is_boundary(text, hit - 1) and is_boundary(text, hit + len(phrase)):
            return hit
        start = hit + 1


def standalone_integers(text: str, min_digits: int = 1) -> list[str]:
    """Maximal digit runs of >= min_digits chars with non-alphanumeric neighbours.

    "1001" in prose or "$1001$" qualifies; "x1001y" does not.
    """
    # One byte per character (non-ASCII ones read as "?"), so offsets match `text`'s.
    classes = text.encode("ascii", "replace").translate(_CHAR_CLASS)
    find = classes.find
    runs = []
    start = find(b"0")
    while start != -1:
        # `start` is the first digit since the last run, so the run holds a letter
        # before it exactly when the byte before it is one.
        end = find(b" ", start)
        if end == -1:
            end = len(classes)
        if end - start >= min_digits and classes[start - 1 : start] != b"a" and find(b"a", start, end) == -1:
            runs.append(text[start:end])
        start = find(b"0", end)
    return runs


def math_spans(text: str) -> list[str]:
    """Contents of $...$ spans, left to right; $$...$$ counts as one span.

    An opening delimiter that never closes turns the remainder into plain
    text (no span is emitted for it).
    """
    spans: list[str] = []
    i = 0
    while i < len(text):
        j = text.find("$", i)
        if j == -1:
            break
        if text.startswith("$$", j):
            k = text.find("$$", j + 2)
            if k == -1:
                break
            spans.append(text[j + 2 : k])
            i = k + 2
        else:
            k = text.find("$", j + 1)
            if k == -1:
                break
            spans.append(text[j + 1 : k])
            i = k + 1
    return spans


def split_sentences(text: str) -> list[str]:
    """Split at every '.', '!' or '?' (abbreviation-naive), dropping blanks."""
    return [part.strip() for part in _SENTENCE.findall(text) if part.strip()]


def read_jsonl(path, convert: Callable[[dict], T] = dict) -> Iterator[T]:
    """Yield `convert(row)` for each JSON-object line; '-' or None reads stdin.

    Blank lines are skipped. Invalid JSON (NaN and +-Infinity included), a
    line that is not an object, or a KeyError/ValueError raised by `convert`
    is a ValueError "<path>:<line>: ...".
    """
    std = path in (None, "-")
    name = "<stdin>" if std else str(path)
    with nullcontext(sys.stdin) if std else open(path, encoding="utf-8") as stream:
        for line_no, line in enumerate(stream, 1):
            if line.strip():
                yield _converted(line, convert, f"{name}:{line_no}", row=True)


def read_json(path, convert: Callable[[object], T]) -> T:
    """`convert(document)` for the one JSON document in the file at `path`.

    Invalid JSON (NaN and +-Infinity included), or a KeyError/ValueError
    raised by `convert`, is a ValueError "<path>: ..."; a file that cannot
    be read is the OSError that names it.
    """
    return _converted(Path(path).read_text(encoding="utf-8"), convert, str(path), row=False)


def typed_field(row: dict, key: str, kind: type = str, *items: type):
    """row[key], a ValueError unless it is a `kind` (whose elements are each one of `items`)."""
    value = row[key]
    if not isinstance(value, kind) or items and not all(isinstance(v, items) for v in value):
        of = " of " + " or ".join("null" if t is type(None) else t.__name__ for t in items) if items else ""
        raise ValueError(f"field {key!r} must be {kind.__name__}{of}, got {value!r:.60}")
    return value


def row_id(row: dict) -> str | int:
    """row["id"], a ValueError unless it is a non-empty string or an integer."""
    value = row["id"]
    if not json_is(value, str, int) or value == "":
        raise ValueError(f"field 'id' must be a non-empty string or an integer, got {value!r:.60}")
    return value


def read_by_id(path, convert: Callable[[dict], T]) -> dict[str, T]:
    """`convert(row)` per read_jsonl row, keyed by its id as a string; a repeated id is an error naming its line."""
    rows: dict[str, T] = {}

    def add(row: dict) -> None:
        key = str(row_id(row))
        if key in rows:
            raise ValueError(f"repeated id {key!r}")
        rows[key] = convert(row)

    for _ in read_jsonl(path, add):
        pass
    return rows


@contextmanager
def atomic_open(path):
    """A text file that replaces `path` only when the block succeeds.

    It is written beside `path` under a temporary name and renamed over it
    with os.replace; on any exception it is removed and `path` is untouched.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def atomic_outputs(out_dir, *names: str) -> Iterator[list]:
    """The files `names` in `out_dir`, each opened with atomic_open.

    Creates `out_dir` and any missing parents. The files replace their
    targets in reverse order of `names`, so the first name lands last. If
    the block raises, no file is replaced and the directories this call
    created are removed again.
    """
    out_dir = Path(out_dir)
    made = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(atomic_open(out_dir / name)) for name in names]
    except BaseException:
        for d in made:
            d.rmdir()
        raise


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """One JSON_ENCODER object per line; '-' or None writes stdout.

    A file is written atomically (see atomic_open). A non-finite number is a
    ValueError.
    """
    encode = JSON_ENCODER.encode
    with nullcontext(sys.stdout) if path in (None, "-") else atomic_open(path) as f:
        for row in rows:
            f.write(encode(row) + "\n")
