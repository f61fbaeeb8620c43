"""Low-level text helpers shared across the pipeline.

Everything here is deliberately tokenizer-free: token counts are whitespace
splits, "word" boundaries are ASCII-alphanumeric neighbourhood checks, and
sentence splitting is naive punctuation splitting. The JSON-lines reader
and writer below are the only place the row format is spelled out.
JSON_ENCODER writes every JSONL line and JSON_DECODER reads every input
document, both strict RFC 8259: no NaN or +-Infinity in or out.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext
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


# Every JSONL line ppc writes: sorted keys, non-ASCII kept, no non-finite number.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False)
# Every JSON document ppc reads; `NaN`, `Infinity` and `-Infinity` are a ValueError.
JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


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
            if not line.strip():
                continue
            try:
                row = JSON_DECODER.decode(line)
                if not isinstance(row, dict):
                    raise ValueError(f"expected a JSON object, got {type(row).__name__}")
                value = convert(row)
            except json.JSONDecodeError as exc:
                detail = f"invalid JSON at column {exc.pos + 1}: {exc.msg}"
                raise ValueError(f"{name}:{line_no}: {detail}") from exc
            except KeyError as exc:
                raise ValueError(f"{name}:{line_no}: missing field {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{name}:{line_no}: {exc}") from exc
            yield value


def typed_field(row: dict, key: str, kind: type = str, item: type | None = None):
    """row[key], a ValueError unless it is a `kind` (whose elements are `item`s)."""
    value = row[key]
    if not isinstance(value, kind) or item and not all(isinstance(v, item) for v in value):
        of = f" of {item.__name__}" if item else ""
        raise ValueError(f"field {key!r} must be {kind.__name__}{of}, got {value!r:.60}")
    return value


def row_id(row: dict) -> str | int:
    """row["id"], a ValueError unless it is a non-empty string or an integer."""
    value = row["id"]
    if isinstance(value, bool) or not isinstance(value, (str, int)) or value == "":
        raise ValueError(f"field 'id' must be a non-empty string or an integer, got {value!r:.60}")
    return value


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


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """One JSON_ENCODER object per line; '-' or None writes stdout.

    A file is written atomically (see atomic_open). A non-finite number is a
    ValueError.
    """
    encode = JSON_ENCODER.encode
    with nullcontext(sys.stdout) if path in (None, "-") else atomic_open(path) as f:
        for row in rows:
            f.write(encode(row) + "\n")
