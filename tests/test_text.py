import json
import random
import re

import pytest

from ppc._text import is_boundary, math_spans, read_jsonl, standalone_integers, write_jsonl

# Row values the JSON encoder escapes in different ways: plain ASCII, Latin-1, CJK,
# astral-plane emoji, control characters, DEL, and a literal backslash-u.
STRINGS = ["plain", "café é", "数学题", "🙂 ok", "tab\there\nnl\x00\x1f", "del\x7f", "a\\u00e9b", "\\", '"q"', ""]


def rows():
    rng = random.Random("write_jsonl")
    out = [{"id": s, "samples": [s, s + s]} for s in STRINGS]
    out += [{s: s, "n": 1.5, "none": None, "ok": True} for s in STRINGS if s]
    for _ in range(500):
        text = "".join(rng.choices(STRINGS + ["x", " ", " ", "퟿", "\U0010ffff"], k=rng.randint(0, 6)))
        out.append({"id": rng.randrange(10**6), "text": text, "nested": {"list": [text, {"k": text}]}})
    return out


def expected_text(rows):
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


class TestWriteJsonlMatchesNonAsciiEncoder:
    """write_jsonl's bytes are those of json.dumps(row, sort_keys=True, ensure_ascii=False)."""

    def test_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, rows())
        assert path.read_bytes() == expected_text(rows()).encode("utf-8")

    def test_stdout(self, capsys):
        write_jsonl("-", rows())
        assert capsys.readouterr().out == expected_text(rows())


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_number_is_not_written(tmp_path, number):
    path = tmp_path / "rows.jsonl"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_jsonl(path, [{"x": 1.5}, {"x": number}])
    assert list(tmp_path.iterdir()) == []


def test_nesting_too_deep_names_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n' + "[" * 100_000 + "\n")
    with pytest.raises(ValueError, match=r"rows\.jsonl:2: JSON nested too deeply$"):
        list(read_jsonl(path))


def reference_standalone_integers(text, min_digits=1):
    """standalone_integers as it was written, one regex digit run at a time; kept as the oracle."""
    runs = []
    for m in re.finditer(r"[0-9]+", text):
        if len(m.group(0)) < min_digits:
            continue
        if is_boundary(text, m.start() - 1) and is_boundary(text, m.end()):
            runs.append(m.group(0))
    return runs


class TestStandaloneIntegersMatchesReference:
    # Non-ASCII digits (superscript two, Arabic-Indic three, fullwidth five) are
    # boundaries, not digits; so are "_", "-", "$", DEL and a lone surrogate.
    PIECES = ["7", "12", "1001", "0", "x", "Z", "ab", " ", "_", "-", "$", "\x7f", "\ud800", "²", "٣", "５", "é", "\n"]

    @pytest.mark.parametrize("min_digits", [1, 2, 3, 4])
    def test_seeded_fuzz(self, min_digits):
        rng = random.Random(f"standalone_integers-{min_digits}")
        found = 0
        for _ in range(5_000):
            text = "".join(rng.choices(self.PIECES, k=rng.randint(0, 12)))
            expected = reference_standalone_integers(text, min_digits)
            assert standalone_integers(text, min_digits) == expected, repr(text)
            found += bool(expected)
        assert 0 < found < 5_000

    @pytest.mark.parametrize(
        "text, runs",
        [
            ("", []),
            ("1001", ["1001"]),
            ("$1001$ and 22.", ["1001", "22"]),
            ("x1001y 1001y x1001 12a34", []),
            ("²123٣ ５45５ \ud8006\ud800", ["123", "45", "6"]),
            ("_7-8\x7f9", ["7", "8", "9"]),
        ],
    )
    def test_examples(self, text, runs):
        assert standalone_integers(text) == runs == reference_standalone_integers(text)


@pytest.mark.parametrize(
    "text, spans",
    [
        ("$x$ and $$y$$", ["x", "y"]),
        ("$x$ and $$y", ["x"]),  # an unclosed $$ ends the scan
    ],
)
def test_math_spans(text, spans):
    assert math_spans(text) == spans
