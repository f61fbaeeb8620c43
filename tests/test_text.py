import json
import random

import pytest

from ppc._text import write_jsonl

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
