"""Group-relative policy optimization as pure arithmetic.

Given group rewards and sequence (or per-token) log-probabilities under the
current, old and reference policies, this module evaluates the
group-normalized advantages, the clipped surrogate and the KL-regularized
objective value. It computes numbers only; no gradients, no models.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence, Union

Logp = Union[float, Sequence[float]]


class GroupTooSmall(ValueError):
    pass


class NonFiniteInput(ValueError):
    pass


@dataclass(frozen=True)
class GrpoConfig:
    epsilon_clip: float = 0.2
    beta_kl: float = 0.04
    std_floor: float = 1e-6

    def __post_init__(self):
        if self.epsilon_clip <= 0:
            raise ValueError("epsilon_clip must be > 0")
        if self.beta_kl < 0:
            raise ValueError("beta_kl must be >= 0")
        if self.std_floor < 0:
            raise ValueError("std_floor must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GrpoConfig":
        return cls(**data)


def _is_tokenwise(value: Logp) -> bool:
    return isinstance(value, (list, tuple))


def _require_finite(values, what: str):
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInput(f"{what} contains non-finite value {v!r}")


def _flatten(value: Logp) -> list[float]:
    return list(value) if _is_tokenwise(value) else [value]


@dataclass
class RolloutGroup:
    """Rewards plus log-probabilities for one sampled group of G rollouts."""

    rewards: list[float]
    logp_new: list[Logp]
    logp_old: list[Logp]
    logp_ref: list[Logp]
    G: int = 0

    def __post_init__(self):
        if self.G == 0:
            self.G = len(self.rewards)
        for name in ("rewards", "logp_new", "logp_old", "logp_ref"):
            if len(getattr(self, name)) != self.G:
                raise ValueError(f"{name} must have length G={self.G}")
        for i in range(self.G):
            triple = (self.logp_new[i], self.logp_old[i], self.logp_ref[i])
            shapes = {_is_tokenwise(v) for v in triple}
            if len(shapes) != 1:
                raise ValueError(f"rollout {i}: mixed scalar/token log-probs")
            if shapes == {True} and len({len(v) for v in triple}) != 1:
                raise ValueError(f"rollout {i}: token lists differ in length")

    @classmethod
    def from_dict(cls, data: dict) -> "RolloutGroup":
        return cls(
            rewards=list(data["rewards"]),
            logp_new=list(data["logp_new"]),
            logp_old=list(data["logp_old"]),
            logp_ref=list(data["logp_ref"]),
            G=data.get("G", 0),
        )


def group_advantages(
    rewards: Sequence[float],
    std_floor: float = 1e-6,
    sample_std: bool = False,
) -> list[float]:
    """Group-normalized advantages: (r - mean) / max(std, std_floor).

    Population std by default (sample_std selects the n-1 convention). A
    zero-variance group yields all-zero advantages instead of NaNs.
    """
    G = len(rewards)
    if G < 2:
        raise GroupTooSmall(f"need at least 2 rollouts, got {G}")
    _require_finite(rewards, "rewards")
    if len(set(rewards)) == 1:
        # exactly zero, not mean-rounding residue divided by the floor
        return [0.0] * G
    mean = sum(rewards) / G
    denom_n = G - 1 if sample_std else G
    var = sum((r - mean) ** 2 for r in rewards) / denom_n
    std = math.sqrt(var)
    scale = max(std, std_floor)
    if scale == 0.0:
        return [0.0] * G
    return [(r - mean) / scale for r in rewards]


def importance_ratio(logp_new: Logp, logp_old: Logp):
    """exp(logp_new - logp_old), per rollout or per token."""
    if _is_tokenwise(logp_new) != _is_tokenwise(logp_old):
        raise ValueError("logp_new and logp_old must share a shape")
    if _is_tokenwise(logp_new):
        if len(logp_new) != len(logp_old):
            raise ValueError("token lists differ in length")
        _require_finite(logp_new, "logp_new")
        _require_finite(logp_old, "logp_old")
        return [math.exp(n - o) for n, o in zip(logp_new, logp_old)]
    _require_finite([logp_new], "logp_new")
    _require_finite([logp_old], "logp_old")
    return math.exp(logp_new - logp_old)


def clipped_surrogate(rho, advantage: float, epsilon: float):
    """min(rho * A, clip(rho, 1 - eps, 1 + eps) * A), elementwise on lists."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if isinstance(rho, (list, tuple)):
        return [clipped_surrogate(r, advantage, epsilon) for r in rho]
    clipped = min(max(rho, 1 - epsilon), 1 + epsilon)
    return min(rho * advantage, clipped * advantage)


def kl_term(logp_new: Logp, logp_ref: Logp, estimator: str = "nonneg") -> float:
    """KL estimate between the current and reference policies.

    "nonneg" uses r - log(r) - 1 with r = exp(logp_ref - logp_new), which is
    zero iff the log-probs agree and never negative; "logratio" is the plain
    logp_new - logp_ref sample. Token lists are summed.
    """
    if estimator not in ("nonneg", "logratio"):
        raise ValueError(f"unknown estimator {estimator!r}")
    news = _flatten(logp_new)
    refs = _flatten(logp_ref)
    if _is_tokenwise(logp_new) != _is_tokenwise(logp_ref) or len(news) != len(refs):
        raise ValueError("logp_new and logp_ref must share a shape")
    _require_finite(news, "logp_new")
    _require_finite(refs, "logp_ref")
    total = 0.0
    for n, ref in zip(news, refs):
        if estimator == "nonneg":
            r = math.exp(ref - n)
            total += r - (ref - n) - 1.0
        else:
            total += n - ref
    return total


def _outside_clip(rho: float, epsilon: float) -> bool:
    return rho < 1 - epsilon or rho > 1 + epsilon


@dataclass(frozen=True)
class GrpoResult:
    objective: float
    advantages: list[float]
    surrogates: list[float]
    kl_values: list[float]
    clip_fraction: float
    mean_kl: float

    def to_dict(self) -> dict:
        return asdict(self)


def grpo_objective(
    group: RolloutGroup,
    cfg: GrpoConfig,
    sample_std: bool = False,
    kl_estimator: str = "nonneg",
) -> GrpoResult:
    """Objective value: mean clipped surrogate minus beta * mean KL.

    Sequence-level ratios by default. When a rollout carries token lists,
    its surrogate is the token mean (with the rollout's scalar advantage)
    and its KL the token sum. Summation is left-to-right over rollout index
    for bit-reproducibility.
    """
    advantages = group_advantages(group.rewards, cfg.std_floor, sample_std)
    surrogates: list[float] = []
    kl_values: list[float] = []
    clip_flags: list[bool] = []

    for i in range(group.G):
        new, old, ref = group.logp_new[i], group.logp_old[i], group.logp_ref[i]
        rho = importance_ratio(new, old)
        if isinstance(rho, list):
            per_token = clipped_surrogate(rho, advantages[i], cfg.epsilon_clip)
            surrogates.append(sum(per_token) / len(per_token))
            clip_flags.extend(_outside_clip(r, cfg.epsilon_clip) for r in rho)
        else:
            surrogates.append(clipped_surrogate(rho, advantages[i], cfg.epsilon_clip))
            clip_flags.append(_outside_clip(rho, cfg.epsilon_clip))
        kl_values.append(kl_term(new, ref, kl_estimator))

    mean_kl = sum(kl_values) / group.G
    objective = sum(surrogates) / group.G - cfg.beta_kl * mean_kl
    clip_fraction = sum(clip_flags) / len(clip_flags) if clip_flags else 0.0
    return GrpoResult(
        objective=objective,
        advantages=advantages,
        surrogates=surrogates,
        kl_values=kl_values,
        clip_fraction=clip_fraction,
        mean_kl=mean_kl,
    )
