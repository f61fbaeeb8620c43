"""Structured completion handling: parsing, the format guard, boxed answers.

A completion is expected to carry exactly three tagged blocks,

    <preplan>...</preplan>
    <plan>...</plan>
    <execute>...</execute>

in that order, with the final answer inside a ``\\boxed{...}`` group in the
execute block and nothing but whitespace after ``</execute>``. The guard and
the parser agree exactly: ``parse_trajectory`` succeeds iff
``check_format`` reports the text as well formed. ``read_trajectory`` is the
lenient reader for text the guard may reject: it never raises, and on
well-formed text it returns what ``parse_trajectory`` returns. All three share
one memoized scan that finds the tags once and cuts the blocks at them; only
this module spells the tags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

TAG_NAMES = ("preplan", "plan", "execute")

_TAG_PAIRS = tuple((f"<{name}>", f"</{name}>") for name in TAG_NAMES)
_EXPECTED_TOKENS = tuple(tok for pair in _TAG_PAIRS for tok in pair)

# Anything shaped like a markup tag; used to spot tags outside the allowed set.
_TAG_TOKEN = re.compile(r"</?[A-Za-z][A-Za-z0-9_-]*>")

_BOXED = "\\boxed{"


class Violation(str, Enum):
    MISSING_TAG = "MISSING_TAG"
    DUPLICATE_TAG = "DUPLICATE_TAG"
    OUT_OF_ORDER = "OUT_OF_ORDER"
    NO_BOXED = "NO_BOXED"
    TRAILING_TEXT = "TRAILING_TEXT"
    FOREIGN_TAG = "FOREIGN_TAG"


_Findings = tuple[tuple[int, Violation, str], ...]


class MalformedTrajectory(ValueError):
    """Raised by the parser; names the first violation in document order."""

    def __init__(self, findings: _Findings):
        self.violations = [code for _, code, _ in findings]
        pos, code, detail = findings[0]
        super().__init__(f"{code.value} at offset {pos}: {detail}")


@dataclass(frozen=True)
class FormatVerdict:
    """`check_format`'s verdict: the violations found, in document order."""

    violations: tuple[Violation, ...] = ()

    @property
    def well_formed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Trajectory:
    """A (preplan, plan, execute) triple; its answer is read from execute."""

    preplan: str
    plan: str
    execute: str

    @cached_property
    def boxed_answer(self) -> str | None:
        """`extract_boxed` of execute, read once per trajectory."""
        return extract_boxed(self.execute)


def extract_boxed(text: str) -> str | None:
    """Content of the last ``\\boxed{...}`` group, honouring nested braces.

    Returns None when no group opens or when the last one never closes. The
    content is returned byte-for-byte, so re-wrapping it reproduces the
    original substring.
    """
    start = text.rfind(_BOXED)
    if start == -1:
        return None
    begin = i = start + len(_BOXED)
    depth = 1
    # Jump from one closing brace to the next, counting the braces opened on the way.
    while (close := text.find("}", i)) != -1:
        depth += text.count("{", i, close) - 1
        if depth == 0:
            return text[begin:close]
        i = close + 1
    return None


# The text `_scan` saw last, its findings and its blocks, so the guard, the
# parser and the lenient reader of one string (in any order) scan it once.
# Matched by `is`, which spares hashing the text; replaced as one tuple, so no
# thread can pair one text with another's findings or blocks. It starts with an
# object no caller holds, so the first scan of any value, None too, is a miss.
_last_scan: tuple[object, _Findings, Trajectory | None] = (object(), (), None)


def _scan(text: str) -> tuple[_Findings, Trajectory]:
    """Format violations as (position, code, detail), in document order, and the blocks."""
    global _last_scan
    last_text, last_findings, last_trajectory = _last_scan
    if last_text is text:
        return last_findings, last_trajectory
    findings, trajectory = _scan_text(text)
    _last_scan = (text, findings, trajectory)
    return findings, trajectory


def _scan_text(text: str) -> tuple[_Findings, Trajectory]:
    """`_scan` without the memo."""
    positions: dict[str, list[int]] = {tok: [] for tok in _EXPECTED_TOKENS}
    findings: list[tuple[int, Violation, str]] = []

    find, match = text.find, _TAG_TOKEN.match
    i = find("<")
    while i != -1:
        m = match(text, i)
        if m is None:
            i = find("<", i + 1)
            continue
        token = m.group()
        seen = positions.get(token)
        if seen is None:
            findings.append((i, Violation.FOREIGN_TAG, token))
        else:
            seen.append(i)
        i = find("<", m.end())

    # Each block runs from its first opening tag to the next closing tag; "" without both.
    blocks = []
    for open_tok, close_tok in _TAG_PAIRS:
        opens = positions[open_tok]
        closes = positions[close_tok]
        if not opens or not closes:
            absent = [t for t, seen in ((open_tok, opens), (close_tok, closes)) if not seen]
            findings.append((len(text), Violation.MISSING_TAG, " ".join(absent)))
        repeats = [seen[1] for seen in (opens, closes) if len(seen) > 1]
        if repeats:
            findings.append((min(repeats), Violation.DUPLICATE_TAG, open_tok))
        start = opens[0] + len(open_tok) if opens else len(text)
        end = next((c for c in closes if c >= start), start)
        blocks.append(text[start:end])

    firsts = [(tok, positions[tok][0]) for tok in _EXPECTED_TOKENS if positions[tok]]
    for (prev_tok, prev_pos), (tok, pos) in zip(firsts, firsts[1:]):
        if pos < prev_pos:
            findings.append((pos, Violation.OUT_OF_ORDER, f"{tok} before {prev_tok}"))
            break

    # Trimming moves no boxed group, so NO_BOXED can test the trimmed block's
    # answer; read on every scan, it is the one every later reader shares.
    trajectory = Trajectory(*(block.strip() for block in blocks))
    open_exec = positions["<execute>"]
    close_exec = positions["</execute>"]
    in_order = len(open_exec) == 1 and len(close_exec) == 1 and open_exec[0] < close_exec[0]
    if trajectory.boxed_answer is None and in_order:
        findings.append((close_exec[0], Violation.NO_BOXED, "no closed boxed group in execute"))

    if close_exec:
        tail_start = close_exec[-1] + len("</execute>")
        tail = text[tail_start:]
        if tail.strip():
            offset = tail_start + (len(tail) - len(tail.lstrip()))
            findings.append((offset, Violation.TRAILING_TEXT, tail.strip()[:40]))

    findings.sort(key=lambda f: f[0])
    return tuple(findings), trajectory


def check_format(text: str) -> FormatVerdict:
    """Total structural check; never raises."""
    return FormatVerdict(tuple(code for _, code, _ in _scan(text)[0]))


def read_trajectory(text: str) -> Trajectory:
    """Lenient parse that never raises.

    Each block runs from its first opening tag to the next closing tag and
    is trimmed at both ends; a block without both tags reads as "". The
    boxed answer comes from the execute block.
    """
    return _scan(text)[1]


def parse_trajectory(text: str) -> Trajectory:
    """Parse a tagged completion into a Trajectory.

    Segment contents are trimmed at both ends; inner whitespace is kept.
    Raises MalformedTrajectory when the format guard fails.
    """
    findings, trajectory = _scan(text)
    if findings:
        raise MalformedTrajectory(findings)
    return trajectory


def forced_prefix_for(preplan: str) -> str:
    """Assistant prefill that pins the preplan and opens the plan block."""
    return f"<preplan>{preplan}</preplan>\n<plan>"


def render_trajectory(t: Trajectory) -> str:
    """Canonical tagged form, blocks separated by single newlines.

    For any trajectory produced by `parse_trajectory` (or built from
    tag-free segments with a boxed answer) the output passes `check_format`.
    """
    return f"{forced_prefix_for(t.preplan)}{t.plan}</plan>\n<execute>{t.execute}</execute>"
