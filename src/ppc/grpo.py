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

from ._text import json_is

Logp = Union[float, Sequence[float]]


@dataclass(frozen=True)
class GrpoConfig:
    epsilon_clip: float = 0.2
    beta_kl: float = 0.04
    std_floor: float = 1e-6

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.epsilon_clip <= 0:
            raise ValueError("epsilon_clip must be > 0")
        if self.beta_kl < 0:
            raise ValueError("beta_kl must be >= 0")
        if self.std_floor < 0:
            raise ValueError("std_floor must be >= 0")


def _is_tokenwise(value: Logp) -> bool:
    return isinstance(value, (list, tuple))


def _tokens(value: Logp) -> Sequence[float]:
    """A rollout's token log-probs; a sequence-level value is one token."""
    return value if _is_tokenwise(value) else (value,)


def _require_finite(values, what: str):
    for v in values:
        try:
            if math.isfinite(v):
                continue
        except OverflowError:  # an int too large for a float
            raise ValueError(f"{what} contains an integer too large for a float") from None
        raise ValueError(f"{what} contains non-finite value {v!r}")


@dataclass
class RolloutGroup:
    """Rewards plus log-probabilities for one sampled group of G rollouts."""

    rewards: list[float]
    logp_new: list[Logp]
    logp_old: list[Logp]
    logp_ref: list[Logp]

    @property
    def G(self) -> int:
        return len(self.rewards)

    def __post_init__(self):
        for name in ("rewards", "logp_new", "logp_old", "logp_ref"):
            if len(getattr(self, name)) != self.G:
                raise ValueError(f"{name} must have length G={self.G}")
        for i in range(self.G):
            triple = (self.logp_new[i], self.logp_old[i], self.logp_ref[i])
            shapes = {_is_tokenwise(v) for v in triple}
            if len(shapes) != 1:
                raise ValueError(f"rollout {i}: mixed scalar/token log-probs")
            if shapes == {True}:
                lengths = {len(v) for v in triple}
                if len(lengths) != 1:
                    raise ValueError(f"rollout {i}: token lists differ in length")
                if lengths == {0}:
                    raise ValueError(f"rollout {i}: token lists are empty")

    @classmethod
    def from_dict(cls, data: dict) -> "RolloutGroup":
        """Build from JSON data; a field that is not a list, a reward or
        log-prob that is not a number, or a G that is not an integer equal to
        the number of rollouts, is a ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"a rollout group must be a JSON object, got {type(data).__name__}")
        G = data.get("G")
        if "G" in data and not json_is(G, int):
            raise ValueError(f"G must be an integer, got {G!r:.60}")
        fields = {}
        for name in ("rewards", "logp_new", "logp_old", "logp_ref"):
            values = data[name]
            if not isinstance(values, list):
                raise ValueError(f"{name} must be a list, got {type(values).__name__}")
            for i, v in enumerate(values):
                tokens = name != "rewards" and _is_tokenwise(v)
                if not all(json_is(x, int, float) for x in (v if tokens else [v])):
                    kind = "a number" if name == "rewards" else "a number or a list of numbers"
                    raise ValueError(f"rollout {i}: {name} must be {kind}, got {v!r}")
            fields[name] = list(values)
        group = cls(**fields)
        if "G" in data and G != group.G:
            raise ValueError(f"G is {G}, but the group has {group.G} rollouts")
        return group


def group_advantages(
    rewards: Sequence[float],
    std_floor: float = 1e-6,
) -> list[float]:
    """Group-normalized advantages: (r - mean) / max(std, std_floor).

    Population std. A zero-variance group yields all-zero advantages
    instead of NaNs. Both sums run left to right (the built-in sum() of
    floats is compensated from Python 3.12 on), so every version gives the
    same bits; a sum too large for a float raises ValueError.
    """
    G = len(rewards)
    if G < 2:
        raise ValueError(f"need at least 2 rollouts, got {G}")
    _require_finite(rewards, "rewards")
    if len(set(rewards)) == 1:
        # exactly zero, not mean-rounding residue divided by the floor
        return [0.0] * G
    total = 0  # integer rewards sum exactly, as sum() does
    for r in rewards:
        total += r
    mean = total / G
    var = 0.0
    try:
        for r in rewards:
            var += (r - mean) ** 2
    except OverflowError:  # a float ** raises where + and * give inf
        var = math.inf
    var /= G
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError("rewards spread too wide for a finite mean and variance")
    std = math.sqrt(var)
    scale = max(std, std_floor)
    if scale == 0.0:
        return [0.0] * G
    return [(r - mean) / scale for r in rewards]


def kl_term(logp_new: Logp, logp_ref: Logp) -> float:
    """k3 estimate of KL(current || reference) (DeepSeekMath's GRPO).

    r - log(r) - 1 with r = exp(logp_ref - logp_new): zero iff the log-probs
    agree and never negative. Token lists are summed.
    """
    news, refs = _tokens(logp_new), _tokens(logp_ref)
    if _is_tokenwise(logp_new) != _is_tokenwise(logp_ref) or len(news) != len(refs):
        raise ValueError("logp_new and logp_ref must share a shape")
    _require_finite(news, "logp_new")
    _require_finite(refs, "logp_ref")
    total = 0.0
    for n, ref in zip(news, refs):
        total += math.exp(ref - n) - (ref - n) - 1.0
    return total


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


def grpo_objective(group: RolloutGroup, cfg: GrpoConfig) -> GrpoResult:
    """Objective value: mean clipped surrogate minus beta * mean k3 KL.

    One pass per rollout over its tokens (a sequence-level rollout is one
    token): its surrogate is the token mean of the clipped surrogate
    min(rho * A, clip(rho, 1 - eps, 1 + eps) * A), with rho = exp(logp_new -
    logp_old) and A the rollout's scalar advantage; its KL is the token sum
    of kl_term. Every sum runs left to right, over tokens and then rollouts,
    for bit-reproducibility.
    A non-finite log-prob, or a log-ratio too large for exp(), raises
    ValueError naming the rollout; so do group totals too large for a
    finite objective or mean KL.
    """
    advantages = group_advantages(group.rewards, cfg.std_floor)
    lo, hi = 1 - cfg.epsilon_clip, 1 + cfg.epsilon_clip
    exp, isfinite = math.exp, math.isfinite
    surrogates, kl_values = [], []
    surrogate_total = kl_total = 0.0
    clipped = tokens = 0

    for i, adv in enumerate(advantages):
        new, old, ref = (_tokens(v[i]) for v in (group.logp_new, group.logp_old, group.logp_ref))
        surrogate = kl = logratio = 0.0
        try:
            for n, o, r in zip(new, old, ref):
                d = n - o
                logratio += d  # logp_old = +inf gives rho = 0 and finite other sums
                rho = exp(d)
                if lo <= rho <= hi:
                    surrogate += rho * adv
                else:
                    clipped += 1
                    s, c = rho * adv, (lo if rho < lo else hi) * adv
                    surrogate += c if c < s else s
                x = r - n
                kl += exp(x) - x - 1.0
            finite = isfinite(surrogate) and isfinite(kl) and isfinite(logratio)
        except OverflowError:
            finite = False
        if not finite:  # rescan this rollout only, to name its bad input
            for what, values in (("logp_new", new), ("logp_old", old), ("logp_ref", ref)):
                _require_finite(values, f"rollout {i}: {what}")
            raise ValueError(f"rollout {i}: log-ratio too large for a finite objective")
        tokens += len(new)
        surrogate /= len(new)
        surrogates.append(surrogate)
        kl_values.append(kl)
        surrogate_total += surrogate
        kl_total += kl

    mean_kl = kl_total / group.G
    objective = surrogate_total / group.G - cfg.beta_kl * mean_kl
    if not (isfinite(objective) and isfinite(mean_kl)):
        raise ValueError("group totals too large for a finite objective and mean KL")
    return GrpoResult(
        objective=objective,
        advantages=advantages,
        surrogates=surrogates,
        kl_values=kl_values,
        clip_fraction=clipped / tokens,
        mean_kl=mean_kl,
    )
