import pytest

from ppc.rewards import (
    RewardWeights,
    adherence_reward,
    composite_reward,
    outcome_reward,
)
from ppc.spoiler import spoiler_score
from ppc.trajectory import FormatVerdict, Violation

OK_FMT = FormatVerdict()
BAD_FMT = FormatVerdict(violations=(Violation.NO_BOXED,))


def report_with_score(score):
    """A real SpoilerReport whose score is `score` (0..6)."""
    atoms = [
        "this yields next",                      # derivation
        "a = b = c = d",                         # density
        "$" + "x" * 31 + "$ $" + "y" * 31 + "$", # long spans
        "constant 1001",                         # multidigit
        "we get more",                           # answer phrasing
        "$a$ $b$ $c$ $d$",                       # span count >= 4
    ]
    text = " ".join(atoms[:score])
    # long spans also push the span count over threshold; rebuild precisely
    report = spoiler_score(text)
    if report.score != score:
        pytest.skip("fixture mismatch")
    return report


class TestOutcome:
    def test_correct_is_one(self):
        assert outcome_reward(True) == 1.0

    def test_near_miss_cap(self):
        assert outcome_reward(False, 5) == 0.5

    def test_midpoint(self):
        assert outcome_reward(False, 3) == 0.25

    def test_full_grade_range(self):
        assert [outcome_reward(False, j) for j in range(1, 6)] == [
            0.0,
            0.125,
            0.25,
            0.375,
            0.5,
        ]

    def test_missing_proximity(self):
        with pytest.raises(ValueError, match="^incorrect answers need a proximity grade$"):
            outcome_reward(False)

    def test_out_of_range(self):
        for correct in (False, True):
            for prox in (6, 0, "3", 2.0, True):
                with pytest.raises(ValueError, match=f"^judge grade must be an integer in 1..5, got {prox!r}$"):
                    outcome_reward(correct, prox)
        assert outcome_reward(True, None) == outcome_reward(True, 5) == 1.0


class TestAdherence:
    def test_endpoints_and_midpoint(self):
        assert adherence_reward(5) == 1.0
        assert adherence_reward(1) == 0.0
        assert adherence_reward(3) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="^judge grade must be an integer in 1..5, got 0$"):
            adherence_reward(0)


class TestWeights:
    def test_defaults(self):
        w = RewardWeights()
        assert (w.lambda_a, w.lambda_f, w.lambda_s, w.tau_s) == (0.1, 0.3, 0.1, 2)

    def test_positivity(self):
        with pytest.raises(ValueError):
            RewardWeights(lambda_f=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight(self, value):
        with pytest.raises(ValueError, match="lambda_s must be finite"):
            RewardWeights(lambda_s=value)

    def test_tau_s_at_least_one(self):
        with pytest.raises(ValueError, match="tau_s must be >= 1"):
            RewardWeights(tau_s=0)


class TestComposite:
    def test_best_case_total(self):
        b = composite_reward(True, None, 5, OK_FMT, spoiler_score(""), RewardWeights())
        assert b.total == 1.4
        assert (b.r_out, b.r_adh_raw, b.r_fmt, b.r_sty_raw) == (1.0, 1.0, 1, 0)

    def test_mixed_case(self):
        spoiler = report_with_score(4)
        b = composite_reward(False, 3, 3, OK_FMT, spoiler, RewardWeights())
        assert b.total == pytest.approx(0.40, abs=1e-12)
        assert (b.r_out, b.r_adh_raw, b.r_fmt, b.r_sty_raw) == (0.25, 0.5, 1, 2)

    def test_worst_case_total(self):
        spoiler = report_with_score(6)
        b = composite_reward(False, 1, 1, BAD_FMT, spoiler, RewardWeights())
        assert b.total == -0.4
        assert (b.r_out, b.r_adh_raw, b.r_fmt, b.r_sty_raw) == (0.0, 0.0, 0, 4)

    def test_guard_independence(self):
        clean, spoiled = spoiler_score(""), report_with_score(6)
        for fmt in (OK_FMT, BAD_FMT):
            for spoiler in (clean, spoiled):
                b = composite_reward(False, 4, 2, fmt, spoiler)
                assert b.r_out == 0.375
                assert b.r_adh_raw == 0.25

    def test_breakdown_identity(self):
        w = RewardWeights()
        spoiler = report_with_score(3)
        b = composite_reward(False, 2, 4, OK_FMT, spoiler, w)
        expected = b.r_out + (
            w.lambda_a * b.r_adh_raw + w.lambda_f * b.r_fmt - w.lambda_s * b.r_sty_raw
        )
        assert b.total == expected

    def test_correct_flag_passthrough(self):
        assert composite_reward(True, None, 1, OK_FMT, spoiler_score("")).correct
        assert not composite_reward(False, 1, 1, OK_FMT, spoiler_score("")).correct
