"""Four-term composite reward over component verdicts.

    total = r_out + lambda_a * r_adh + lambda_f * r_fmt - lambda_s * r_sty

Outcome dominates (1.0 when correct, judge-graded partial credit capped at
0.5 otherwise), adherence nudges, the format bit and the spoiler-style
penalty act as guards. Raw terms are stored unweighted so weight sweeps
don't require re-judging.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ._text import json_is
from .spoiler import SpoilerReport, style_penalty
from .trajectory import FormatVerdict


@dataclass(frozen=True)
class RewardWeights:
    lambda_a: float = 0.1
    lambda_f: float = 0.3
    lambda_s: float = 0.1
    tau_s: int = 2

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.lambda_a <= 0 or self.lambda_f <= 0 or self.lambda_s <= 0:
            raise ValueError("all reward weights must be positive")
        if self.tau_s < 1:
            raise ValueError("tau_s must be >= 1")


DEFAULT_WEIGHTS = RewardWeights()


@dataclass(frozen=True)
class RewardBreakdown:
    r_out: float
    r_adh_raw: float
    r_fmt: int
    r_sty_raw: int
    total: float
    correct: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _check_grade(grade: int) -> int:
    if not json_is(grade, int) or not 1 <= grade <= 5:
        raise ValueError(f"judge grade must be an integer in 1..5, got {grade!r}")
    return grade


def outcome_reward(correct: bool, prox: int | None = None) -> float:
    """1.0 on a correct answer; otherwise (prox - 1) / 8.

    The incorrect branch maps grades 1..5 onto {0, 0.125, ..., 0.5}, keeping
    partial credit strictly below the correct-answer reward. A correct
    answer needs no grade, but one that is given must be valid.
    """
    if prox is not None:
        _check_grade(prox)
    if correct:
        return 1.0
    if prox is None:
        raise ValueError("incorrect answers need a proximity grade")
    return (prox - 1) / 8


def adherence_reward(grade: int) -> float:
    """Linear map of the 1..5 alignment grade onto [0, 1]."""
    return (_check_grade(grade) - 1) / 4


def composite_reward(
    correct: bool,
    prox: int | None,
    adh_grade: int,
    fmt: FormatVerdict,
    spoiler: SpoilerReport,
    weights: RewardWeights = DEFAULT_WEIGHTS,
) -> RewardBreakdown:
    """Combine the four components into one scalar.

    With default weights the total stays in [-0.4, 1.4]; the guard terms
    never feed back into the outcome or adherence terms.
    """
    r_out = outcome_reward(correct, prox)
    r_adh = adherence_reward(adh_grade)
    r_fmt = 1 if fmt.well_formed else 0
    r_sty = style_penalty(spoiler.score, weights.tau_s)
    # Grouping the weighted guard terms first keeps the extremes exact in
    # binary64 (0.1 + 0.3 == 0.4 and 1.0 + 0.4 == 1.4).
    total = r_out + (
        weights.lambda_a * r_adh + weights.lambda_f * r_fmt - weights.lambda_s * r_sty
    )
    return RewardBreakdown(
        r_out=r_out,
        r_adh_raw=r_adh,
        r_fmt=r_fmt,
        r_sty_raw=r_sty,
        total=total,
        correct=correct,
    )
