"""Rule-based spoiler scoring of preplan text and the derived keep/drop filter.

A preplan is supposed to analyse a problem without solving it. Six cheap
surface signals each add one point when they fire, so the score lands in
0..6; preplans above the threshold read as worked derivations rather than
analysis. The same score doubles as the style penalty during reward
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ._text import count_tokens, find_phrase, math_spans, standalone_integers
from .trajectory import Trajectory, check_format, render_trajectory

# The detector's fixed vocabulary, after the rules of prompts.PREPLAN_PROMPT.
# Lower-case, since they are matched against the lower-cased preplan.
DERIVATION_PHRASES = (
    "simplifies to",
    "reduces to",
    "leads to",
    "results in",
    "yields",
    "gives us",
    "implies that",
    "becomes",
    "transforms to",
    "evaluates to",
    "rewrites as",
)

ANSWER_PHRASES = (
    "the answer",
    "the result is",
    "we get",
    "we obtain",
)

SIGNAL_NAMES = (
    "derivation_phrasing",
    "equation_density",
    "long_math_spans",
    "multidigit_constant",
    "answer_phrasing",
    "math_span_count",
)

DEFAULT_LENGTH_BOUNDS = (150, 1500)


@dataclass(frozen=True)
class SpoilerConfig:
    equality_threshold: int = 3
    long_span_min_chars: int = 30
    long_span_min_count: int = 2
    digit_min: int = 3
    span_count_threshold: int = 4
    tau_s: int = 2

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


DEFAULT_SPOILER_CONFIG = SpoilerConfig()


@dataclass(frozen=True)
class SpoilerReport:
    """The matches of each signal that fired, in SIGNAL_NAMES order; the
    score is the number of signals that fired."""

    evidence: dict[str, tuple[str, ...]]

    def __post_init__(self):
        unknown = self.evidence.keys() - SIGNAL_NAMES
        if unknown:
            raise ValueError(f"unknown spoiler signals: {sorted(unknown)}")

    @property
    def score(self) -> int:
        return len(self.evidence)

    def signals(self) -> dict[str, bool]:
        return {name: name in self.evidence for name in SIGNAL_NAMES}

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "signals": self.signals(),
            "evidence": {k: list(v) for k, v in self.evidence.items()},
        }


def _matched_phrases(lowered: str, phrases: tuple[str, ...]) -> list[str]:
    return [p for p in phrases if find_phrase(lowered, p) != -1]


def spoiler_score(preplan: str, cfg: SpoilerConfig = DEFAULT_SPOILER_CONFIG) -> SpoilerReport:
    """Score a preplan on the six derivation/answer-revealing signals.

    Phrase matches are case-insensitive and bounded by non-alphanumeric
    neighbours; "\\equiv" and bare "=" are counted separately toward
    equation density; span signals run over $...$ contents (an unterminated
    $ makes the rest plain text). Total function: never raises on any input
    text.
    """
    lowered = preplan.lower()
    spans = math_spans(preplan)
    long_spans = [s for s in spans if len(s) >= cfg.long_span_min_chars]
    equalities = ["\\equiv"] * preplan.count("\\equiv") + ["="] * preplan.count("=")
    # each signal fires at its least number of matches
    checks = {
        "derivation_phrasing": (_matched_phrases(lowered, DERIVATION_PHRASES), 1),
        "equation_density": (equalities, cfg.equality_threshold),
        "long_math_spans": (long_spans, cfg.long_span_min_count),
        "multidigit_constant": (standalone_integers(preplan, cfg.digit_min), 1),
        "answer_phrasing": (_matched_phrases(lowered, ANSWER_PHRASES), 1),
        "math_span_count": (spans, cfg.span_count_threshold),
    }
    return SpoilerReport({name: tuple(hits) for name, (hits, least) in checks.items() if len(hits) >= least})


def style_penalty(score: int, tau_s: int) -> int:
    """One-sided penalty: how far the score exceeds the threshold."""
    return max(0, score - tau_s)


class DropReason(str, Enum):
    SPOILER = "SPOILER"
    NO_ANSWER = "NO_ANSWER"
    WRONG_ANSWER = "WRONG_ANSWER"
    TOO_SHORT = "TOO_SHORT"
    TOO_LONG = "TOO_LONG"
    NOT_BOXED_FINAL = "NOT_BOXED_FINAL"
    MALFORMED = "MALFORMED"
    GEN_FAIL = "GEN_FAIL"


@dataclass(frozen=True)
class FilterDecision:
    """`filter_decision`'s verdict: the drop reason (None keeps the
    trajectory), with the spoiler report and answer check it rests on."""

    reason: DropReason | None
    spoiler: SpoilerReport
    answer_correct: bool

    @property
    def keep(self) -> bool:
        return self.reason is None


def filter_decision(
    t: Trajectory,
    gold: str,
    cfg: SpoilerConfig = DEFAULT_SPOILER_CONFIG,
    len_bounds: tuple[int, int] = DEFAULT_LENGTH_BOUNDS,
    *,
    equivalence: Callable[[str, str], bool],
) -> FilterDecision:
    """Keep a trajectory iff it passes seven checks; a drop carries the
    reason of the first that fails, in this order:

    SPOILER (spoiler score above tau_s), NO_ANSWER (no boxed answer),
    WRONG_ANSWER, TOO_SHORT and TOO_LONG (preplan tokens outside
    `len_bounds`), NOT_BOXED_FINAL (execute goes on after its boxed answer)
    and MALFORMED (the rendered trajectory fails the format guard, so every
    kept trajectory re-renders cleanly). Correctness is judged once,
    whatever the outcome, and returned as `answer_correct`.
    """
    if not gold.strip():
        raise ValueError("gold answer must be non-empty")

    correct = t.boxed_answer is not None and equivalence(t.boxed_answer, gold)
    report = spoiler_score(t.preplan, cfg)
    tokens = count_tokens(t.preplan)

    def verdict(reason: DropReason | None) -> FilterDecision:
        return FilterDecision(reason, report, correct)

    if report.score > cfg.tau_s:
        return verdict(DropReason.SPOILER)
    if t.boxed_answer is None:
        return verdict(DropReason.NO_ANSWER)
    if not correct:
        return verdict(DropReason.WRONG_ANSWER)
    lo, hi = len_bounds
    if tokens < lo:
        return verdict(DropReason.TOO_SHORT)
    if tokens > hi:
        return verdict(DropReason.TOO_LONG)
    if not t.execute.rstrip().endswith(f"\\boxed{{{t.boxed_answer}}}"):
        return verdict(DropReason.NOT_BOXED_FINAL)
    if not check_format(render_trajectory(t)).well_formed:
        return verdict(DropReason.MALFORMED)
    return verdict(None)
