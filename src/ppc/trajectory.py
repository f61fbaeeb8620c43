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
well-formed text it returns what ``parse_trajectory`` returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

TAG_NAMES = ("preplan", "plan", "execute")

_EXPECTED_TOKENS = (
    "<preplan>",
    "</preplan>",
    "<plan>",
    "</plan>",
    "<execute>",
    "</execute>",
)

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


class TrajectoryError(ValueError):
    pass


class UnbalancedBraces(TrajectoryError):
    """A boxed group opens but its braces never balance."""


class MalformedTrajectory(TrajectoryError):
    """Raised by the parser; names the first violation in document order."""

    def __init__(self, findings: list[tuple[int, Violation, str]]):
        self.violations = [code for _, code, _ in findings]
        pos, code, detail = findings[0]
        super().__init__(f"{code.value} at offset {pos}: {detail}")


@dataclass(frozen=True)
class FormatVerdict:
    well_formed: bool
    violations: tuple[Violation, ...] = ()

    def __post_init__(self):
        if self.well_formed != (len(self.violations) == 0):
            raise ValueError("well_formed must mirror an empty violation list")


@dataclass(frozen=True)
class Trajectory:
    """A parsed (preplan, plan, execute) triple."""

    preplan: str
    plan: str
    execute: str
    boxed_answer: str | None = None

    @classmethod
    def from_parts(cls, preplan: str, plan: str, execute: str) -> "Trajectory":
        """Build from segment texts, deriving the boxed answer from execute."""
        return cls(preplan, plan, execute, boxed_or_none(execute))


def extract_boxed(text: str) -> str | None:
    """Content of the last ``\\boxed{...}`` group, honouring nested braces.

    Returns None when no group opens; raises UnbalancedBraces when the last
    one opens but never closes. The content is returned byte-for-byte, so
    re-wrapping it reproduces the original substring.
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
    raise UnbalancedBraces(f"boxed group opened at offset {start} never closes")


def boxed_or_none(text: str) -> str | None:
    """``extract_boxed``, except that a group that never closes reads as no answer."""
    try:
        return extract_boxed(text)
    except UnbalancedBraces:
        return None


def _scan(text: str) -> list[tuple[int, Violation, str]]:
    """All format violations as (position, code, detail), in document order."""
    positions: dict[str, list[int]] = {tok: [] for tok in _EXPECTED_TOKENS}
    findings: list[tuple[int, Violation, str]] = []

    for m in _TAG_TOKEN.finditer(text):
        token = m.group(0)
        if token in positions:
            positions[token].append(m.start())
        else:
            findings.append((m.start(), Violation.FOREIGN_TAG, token))

    for name in TAG_NAMES:
        opens = positions[f"<{name}>"]
        closes = positions[f"</{name}>"]
        if not opens or not closes:
            absent = [t for t, seen in ((f"<{name}>", opens), (f"</{name}>", closes)) if not seen]
            findings.append((len(text), Violation.MISSING_TAG, " ".join(absent)))
        repeats = [seen[1] for seen in (opens, closes) if len(seen) > 1]
        if repeats:
            findings.append((min(repeats), Violation.DUPLICATE_TAG, f"<{name}>"))

    firsts = [(tok, positions[tok][0]) for tok in _EXPECTED_TOKENS if positions[tok]]
    for (prev_tok, prev_pos), (tok, pos) in zip(firsts, firsts[1:]):
        if pos < prev_pos:
            findings.append((pos, Violation.OUT_OF_ORDER, f"{tok} before {prev_tok}"))
            break

    open_exec = positions["<execute>"]
    close_exec = positions["</execute>"]
    if len(open_exec) == 1 and len(close_exec) == 1 and open_exec[0] < close_exec[0]:
        body = text[open_exec[0] + len("<execute>") : close_exec[0]]
        if boxed_or_none(body) is None:
            findings.append(
                (close_exec[0], Violation.NO_BOXED, "no closed boxed group in execute")
            )

    if close_exec:
        tail_start = close_exec[-1] + len("</execute>")
        tail = text[tail_start:]
        if tail.strip():
            offset = tail_start + (len(tail) - len(tail.lstrip()))
            findings.append((offset, Violation.TRAILING_TEXT, tail.strip()[:40]))

    findings.sort(key=lambda f: f[0])
    return findings


def check_format(text: str) -> FormatVerdict:
    """Total structural check; never raises."""
    findings = _scan(text)
    return FormatVerdict(
        well_formed=not findings,
        violations=tuple(code for _, code, _ in findings),
    )


def read_trajectory(text: str) -> Trajectory:
    """Lenient parse that never raises.

    Each block runs from its first opening tag to the next closing tag and
    is trimmed at both ends; a block without both tags reads as "". The
    boxed answer comes from the execute block.
    """
    segments = []
    for name in TAG_NAMES:
        open_tok, close_tok = f"<{name}>", f"</{name}>"
        start = text.find(open_tok)
        end = text.find(close_tok, start + len(open_tok)) if start != -1 else -1
        segments.append(text[start + len(open_tok) : end].strip() if end != -1 else "")
    preplan, plan, execute = segments
    return Trajectory(preplan, plan, execute, boxed_or_none(execute))


def parse_trajectory(text: str) -> Trajectory:
    """Parse a tagged completion into a Trajectory.

    Segment contents are trimmed at both ends; inner whitespace is kept.
    Raises MalformedTrajectory when the format guard fails.
    """
    findings = _scan(text)
    if findings:
        raise MalformedTrajectory(findings)
    return read_trajectory(text)


def render_trajectory(t: Trajectory) -> str:
    """Canonical tagged form, blocks separated by single newlines.

    For any trajectory produced by `parse_trajectory` (or `from_parts` with
    tag-free segments and a boxed answer) the output passes `check_format`.
    """
    return (
        f"<preplan>{t.preplan}</preplan>\n"
        f"<plan>{t.plan}</plan>\n"
        f"<execute>{t.execute}</execute>"
    )
