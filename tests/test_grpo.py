import copy
import math
import random

import pytest

from ppc.grpo import (
    GrpoConfig,
    GrpoResult,
    RolloutGroup,
    group_advantages,
    grpo_objective,
    kl_term,
)


# The per-value arithmetic that TestFusedPass checks grpo_objective against.
def importance_ratio(logp_new, logp_old):
    """exp(logp_new - logp_old), per rollout or per token."""
    if isinstance(logp_new, list):
        return [math.exp(n - o) for n, o in zip(logp_new, logp_old)]
    return math.exp(logp_new - logp_old)


def clipped_surrogate(rho, advantage, epsilon):
    """min(rho * A, clip(rho, 1 - eps, 1 + eps) * A)."""
    clipped = min(max(rho, 1 - epsilon), 1 + epsilon)
    return min(rho * advantage, clipped * advantage)


class TestAdvantages:
    def test_two_rollouts(self):
        adv = group_advantages([1.4, 0.6])
        assert adv == pytest.approx([1.0, -1.0], abs=1e-9)

    def test_zero_variance_group(self):
        assert group_advantages([0.5] * 8) == [0.0] * 8

    def test_skewed_group(self):
        adv = group_advantages([0.0, 0.0, 0.0, 1.0])
        assert adv == pytest.approx([-0.57735026919, -0.57735026919, -0.57735026919, 1.73205080757], abs=1e-9)

    def test_group_too_small(self):
        with pytest.raises(ValueError, match="^need at least 2 rollouts, got 1$"):
            group_advantages([1.0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="^rewards contains non-finite value nan$"):
            group_advantages([1.0, float("nan")])

    def test_zero_floor_identical_rewards(self):
        assert group_advantages([2.0, 2.0], std_floor=0.0) == [0.0, 0.0]

    def test_zero_floor_underflowing_spread(self):
        # Distinct rewards whose variance underflows to 0.0: no division by zero.
        assert group_advantages([1e-200, 0.0], std_floor=0.0) == [0.0, 0.0]

    def test_positive_scaling_preserves_sign_and_order(self):
        rng = random.Random(17)
        for _ in range(200):
            rewards = [rng.uniform(-1, 2) for _ in range(6)]
            scale = rng.uniform(0.01, 50)
            base = group_advantages(rewards)
            scaled = group_advantages([scale * r for r in rewards])
            for a, b in zip(base, scaled):
                assert (a > 0) == (b > 0) and (a < 0) == (b < 0)
            order = sorted(range(6), key=lambda i: base[i])
            assert order == sorted(range(6), key=lambda i: scaled[i])

    def test_floor_caps_scale(self):
        adv = group_advantages([1.0, 1.0 + 1e-9], std_floor=1e-6)
        assert max(abs(a) for a in adv) < 1e-2

    def test_sums_run_left_to_right(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, but 0.6 under
        # the compensated sum() of Python 3.12 and later.
        assert group_advantages([0.1, 0.2, 0.3]) == [
            -1.2247448713915896, -3.3993498887762963e-16, 1.2247448713915885
        ]

    def test_integer_rewards_sum_exactly(self):
        # A float accumulator would round 2**53 + 1 down: -0.5773502691896255 for the ones.
        assert group_advantages([2**53, 1, 1, 0]) == [
            1.7320508075688774, -0.5773502691896256, -0.5773502691896256, -0.577350269189626
        ]

    @pytest.mark.parametrize("rewards", [[1e308, 1e308, 0.0], [1e200, -1e200]], ids=["mean", "variance"])
    def test_sum_too_large_for_a_float(self, rewards):
        with pytest.raises(ValueError, match="^rewards spread too wide for a finite mean and variance$"):
            group_advantages(rewards)


class TestImportanceRatio:
    def test_equal_logps(self):
        assert importance_ratio(-2.0, -2.0) == 1.0

    def test_exponential(self):
        assert importance_ratio(-1.0, -2.0) == pytest.approx(math.e, abs=1e-12)

    def test_token_level(self):
        ratios = importance_ratio([-1.0, -2.0], [-1.0, -1.0])
        assert ratios == pytest.approx([1.0, math.exp(-1.0)])


class TestClippedSurrogate:
    def test_ratio_one_passes_advantage(self):
        for adv in (-2.0, 0.0, 3.5):
            assert clipped_surrogate(1.0, adv, 0.2) == adv

    def test_positive_advantage_clipped(self):
        assert clipped_surrogate(2.0, 1.0, 0.2) == pytest.approx(1.2)

    def test_negative_advantage_unclipped_branch(self):
        assert clipped_surrogate(2.0, -1.0, 0.2) == pytest.approx(-2.0)


class TestKlTerm:
    def test_zero_iff_equal(self):
        assert kl_term(-1.0, -1.0) == 0.0

    def test_hand_value(self):
        # r = e^{-1}; r - log r - 1 = e^{-1} + 1 - 1
        assert kl_term(-1.0, -2.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(10_000):
            new = rng.uniform(-20, 0)
            ref = rng.uniform(-20, 0)
            assert kl_term(new, ref) >= 0.0

    def test_token_level_sums(self):
        total = kl_term([-1.0, -1.0], [-2.0, -1.0])
        assert total == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_token_list_against_scalar_is_refused(self):
        with pytest.raises(ValueError, match="^logp_new and logp_ref must share a shape$"):
            kl_term([-1.0], -1.0)


def make_group(rewards, new, old, ref):
    return RolloutGroup(rewards=rewards, logp_new=new, logp_old=old, logp_ref=ref)


class TestRolloutGroup:
    def test_infers_group_size(self):
        g = make_group([1.0, 2.0], [-1.0, -2.0], [-1.0, -2.0], [-1.0, -2.0])
        assert g.G == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_group([1.0, 2.0], [-1.0], [-1.0, -2.0], [-1.0, -2.0])

    def test_token_length_mismatch(self):
        with pytest.raises(ValueError):
            make_group([1.0, 2.0], [[-1.0, -2.0], -1.0], [[-1.0], -1.0], [[-1.0, -2.0], -1.0])

    def test_mixed_scalar_and_token_log_probs(self):
        with pytest.raises(ValueError, match="^rollout 0: mixed scalar/token log-probs$"):
            make_group([1.0, 2.0], [[-1.0], -1.0], [-1.0, -1.0], [[-1.0], -1.0])

    def test_from_dict(self):
        g = RolloutGroup.from_dict(
            {"rewards": [1.0, 0.0], "logp_new": [-1, -1], "logp_old": [-1, -1], "logp_ref": [-1, -1]}
        )
        assert g.G == 2


class TestObjective:
    def test_identical_policies_zero_objective(self):
        logps = [-1.5, -2.5, -0.5, -3.0]
        g = make_group([1.4, 0.6, 0.9, 0.1], logps, logps, logps)
        result = grpo_objective(g, GrpoConfig())
        assert result.objective == pytest.approx(0.0, abs=1e-12)
        assert result.clip_fraction == 0.0
        assert result.mean_kl == 0.0

    def test_beta_zero_is_pure_surrogate(self):
        g = make_group([1.0, 0.0], [-1.0, -2.0], [-1.2, -1.8], [-1.1, -2.2])
        with_kl = grpo_objective(g, GrpoConfig(beta_kl=0.04))
        without = grpo_objective(g, GrpoConfig(beta_kl=0.0))
        assert without.objective == pytest.approx(
            sum(without.surrogates) / 2, abs=1e-15
        )
        assert with_kl.objective < without.objective

    def test_token_level_group(self):
        g = make_group(
            [1.0, 0.0],
            [[-1.0, -1.0], [-2.0, -2.0]],
            [[-1.0, -1.0], [-2.0, -2.0]],
            [[-1.0, -1.0], [-2.0, -2.0]],
        )
        result = grpo_objective(g, GrpoConfig())
        assert result.objective == pytest.approx(0.0, abs=1e-12)

    def test_clip_fraction(self):
        g = make_group([1.0, 0.0], [-0.5, -2.0], [-1.5, -2.0], [-0.5, -2.0])
        result = grpo_objective(g, GrpoConfig(epsilon_clip=0.2))
        assert result.clip_fraction == 0.5

    @pytest.mark.parametrize("tokenwise", [False, True], ids=["scalar", "token"])
    # an int too large for a float (as a JSON document can hold) is non-finite too
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"])
    @pytest.mark.parametrize("field", ["rewards", "logp_new", "logp_old", "logp_ref"])
    def test_non_finite_input(self, field, bad, tokenwise):
        logps = [[-1.0, -2.0], [-1.5, -0.5]] if tokenwise else [-1.0, -2.0]
        values = {name: copy.deepcopy(logps) for name in ("logp_new", "logp_old", "logp_ref")}
        values["rewards"] = [1.0, 0.0]
        if isinstance(values[field][1], list):
            values[field][1][-1] = bad
        else:
            values[field][1] = bad
        what = "rewards" if field == "rewards" else f"rollout 1: {field}"
        why = "an integer too large for a float" if bad == 10**400 else f"non-finite value {bad!r}"
        with pytest.raises(ValueError, match=f"^{what} contains {why}$"):
            grpo_objective(RolloutGroup(**values), GrpoConfig())

    def test_log_ratio_too_large(self):
        # Every input is finite, but exp(1000 - 0) overflows.
        g = make_group([0.0, 1.0], [-1.0, 1000.0], [-1.0, 0.0], [-1.0, 1000.0])
        with pytest.raises(ValueError, match="^rollout 1: log-ratio too large for a finite objective$"):
            grpo_objective(g, GrpoConfig())

    @pytest.mark.parametrize("beta", [0.04, 0.0], ids=["kl-weighted", "kl-unweighted"])
    def test_group_total_too_large(self, beta):
        # Each rollout's KL is exp(709) - 710, about 8.2e307; three of them overflow.
        g = make_group([0.0, 1.0, 0.5], [-710.0] * 3, [-710.0] * 3, [-1.0] * 3)
        assert math.isfinite(kl_term(-710.0, -1.0))
        with pytest.raises(ValueError, match="^group totals too large for a finite objective and mean KL$"):
            grpo_objective(g, GrpoConfig(beta_kl=beta))


def as_tokens(logp):
    return logp if isinstance(logp, list) else [logp]


def reference_objective(group, cfg):
    """grpo_objective composed from the public per-value functions, every sum left to right."""
    advantages = group_advantages(group.rewards, cfg.std_floor)
    surrogates, kl_values, rhos_seen = [], [], []
    for new, old, ref, adv in zip(group.logp_new, group.logp_old, group.logp_ref, advantages):
        rhos = importance_ratio(as_tokens(new), as_tokens(old))
        total = 0.0
        for rho in rhos:
            total += clipped_surrogate(rho, adv, cfg.epsilon_clip)
        surrogates.append(total / len(rhos))
        kl_values.append(kl_term(new, ref))
        rhos_seen += rhos
    surrogate_total = kl_total = 0.0
    for surrogate, kl in zip(surrogates, kl_values):
        surrogate_total += surrogate
        kl_total += kl
    mean_kl = kl_total / group.G
    lo, hi = 1 - cfg.epsilon_clip, 1 + cfg.epsilon_clip
    return GrpoResult(
        objective=surrogate_total / group.G - cfg.beta_kl * mean_kl,
        advantages=advantages,
        surrogates=surrogates,
        kl_values=kl_values,
        clip_fraction=sum(not lo <= rho <= hi for rho in rhos_seen) / len(rhos_seen),
        mean_kl=mean_kl,
    )


class TestFusedPass:
    """grpo_objective equals the per-value reference arithmetic, bit for bit."""

    @pytest.mark.parametrize("epsilon", [0.2, 0.01])
    @pytest.mark.parametrize("shape", ["token", "scalar", "mixed"])
    def test_matches_reference(self, shape, epsilon):
        rng = random.Random(f"{shape}/{epsilon}")
        clipped_low = clipped_high = 0
        for _ in range(50):
            G = rng.randint(2, 8)
            new, old, ref = [], [], []
            for g in range(G):
                tokenwise = shape == "token" or (shape == "mixed" and g % 2 == 0)
                n = [rng.uniform(-6, 0) for _ in range(rng.randint(1, 40))]
                o = [v + rng.gauss(0, 0.1) for v in n]
                r = [v + rng.gauss(0, 0.5) for v in n]
                if not tokenwise:
                    n, o, r = n[0], o[0], r[0]
                new.append(n), old.append(o), ref.append(r)
            group = make_group([rng.uniform(-0.4, 1.4) for _ in range(G)], new, old, ref)
            cfg = GrpoConfig(epsilon_clip=epsilon, beta_kl=rng.choice([0.0, 0.04, 0.5]))
            assert grpo_objective(group, cfg) == reference_objective(group, cfg)
            for n, o in zip(new, old):
                rhos = importance_ratio(as_tokens(n), as_tokens(o))
                clipped_low += sum(rho < 1 - epsilon for rho in rhos)
                clipped_high += sum(rho > 1 + epsilon for rho in rhos)
        assert clipped_low and clipped_high


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrpoConfig(epsilon_clip=0.0)
        with pytest.raises(ValueError):
            GrpoConfig(beta_kl=-0.1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be finite"):
                GrpoConfig(epsilon_clip=value)
            with pytest.raises(ValueError, match="must be finite"):
                GrpoConfig(std_floor=value)
        with pytest.raises(ValueError, match="^std_floor must be >= 0$"):
            GrpoConfig(std_floor=-1.0)
