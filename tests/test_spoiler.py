import random

import pytest

from ppc.evaluation import answers_equivalent
from ppc.spoiler import (
    ANSWER_PHRASES,
    DERIVATION_PHRASES,
    DropReason,
    SIGNAL_NAMES,
    SpoilerConfig,
    SpoilerReport,
    filter_decision,
    spoiler_score,
    style_penalty,
)
from ppc.trajectory import Trajectory

CLEAN_PREPLAN = (
    "This is a counting problem. The inclusion-exclusion principle and careful "
    "case analysis are the natural tools. We should watch for double counting."
)


def fired(report):
    return {name for name, on in report.signals().items() if on}


class TestSignals:
    def test_empty_text(self):
        report = spoiler_score("")
        assert report.score == 0
        assert fired(report) == set()

    def test_two_signal_example(self):
        text = "The integral simplifies to a sum; here a = 1, b = 2, c = 3."
        report = spoiler_score(text)
        assert fired(report) == {"derivation_phrasing", "equation_density"}
        assert report.score == 2
        assert "simplifies to" in report.evidence["derivation_phrasing"]

    def test_phrase_lists_have_expected_sizes(self):
        assert len(DERIVATION_PHRASES) == 11
        assert len(ANSWER_PHRASES) == 4

    def test_phrases_are_lower_case(self):
        # they are matched as they stand against the lower-cased preplan
        for phrase in DERIVATION_PHRASES + ANSWER_PHRASES:
            assert phrase and phrase == phrase.lower(), phrase

    def test_phrase_match_is_case_insensitive(self):
        assert "derivation_phrasing" in fired(spoiler_score("This SIMPLIFIES TO nothing."))

    def test_phrase_needs_word_boundaries(self):
        # "results into" must not trigger the "results in" phrase
        assert "derivation_phrasing" not in fired(spoiler_score("combining modular results into one"))
        assert "derivation_phrasing" in fired(spoiler_score("this results in a contradiction"))

    def test_equiv_macro_counts_toward_density(self):
        text = "note x \\equiv y and y \\equiv z and z \\equiv w"
        assert "equation_density" in fired(spoiler_score(text))

    def test_density_below_threshold(self):
        assert "equation_density" not in fired(spoiler_score("a = b and c = d"))

    def test_long_spans(self):
        span = "x" * 30
        text = f"see ${span}$ and ${span}$"
        assert "long_math_spans" in fired(spoiler_score(text))
        assert "long_math_spans" not in fired(spoiler_score(f"see ${span}$"))

    def test_span_length_excludes_delimiters(self):
        span = "y" * 29
        assert "long_math_spans" not in fired(spoiler_score(f"${span}$ ${span}$"))

    def test_display_math_is_one_span(self):
        assert "math_span_count" not in fired(spoiler_score("$$a$$ $b$ $c$"))  # 3 spans < 4
        assert "math_span_count" in fired(spoiler_score("$$a$$ $b$ $c$ $d$"))

    def test_unterminated_dollar_is_plain_text(self):
        assert fired(spoiler_score("cost is $5 and rising")) == set()

    def test_multidigit_constant(self):
        assert "multidigit_constant" in fired(spoiler_score("the modulus 1001 appears"))
        assert "multidigit_constant" not in fired(spoiler_score("label x1001y is not a constant"))
        assert "multidigit_constant" not in fired(spoiler_score("just 42 here"))

    def test_answer_phrasing(self):
        assert "answer_phrasing" in fired(spoiler_score("so we obtain a closed form"))
        assert "answer_phrasing" not in fired(spoiler_score("an obtainable bound"))

    def test_evidence_nonempty_for_fired_signals(self):
        text = "this yields $" + "w" * 35 + "$ and $" + "v" * 40 + "$ = = = 1234 we get $a$ $b$"
        report = spoiler_score(text)
        for name, on in report.signals().items():
            if on:
                assert report.evidence[name], name

    def test_score_equals_sum_of_signals(self):
        rng = random.Random(3)
        atoms = [
            "this yields ",
            "x = y ",
            "$" + "z" * 31 + "$ ",
            "see 12345 ",
            "we get ",
            "$a$ $b$ ",
            "plain words ",
        ]
        fired_somewhere = set()
        for _ in range(200):
            text = "".join(rng.choices(atoms, k=rng.randint(0, 8)))
            report = spoiler_score(text)
            assert report.score == len(report.evidence) == sum(report.signals().values())
            assert report.evidence.keys() <= set(SIGNAL_NAMES)
            assert list(report.evidence) == [name for name in SIGNAL_NAMES if name in report.evidence]
            for name, hits in report.evidence.items():
                assert hits, name
            fired_somewhere |= fired(report)
        assert fired_somewhere == set(SIGNAL_NAMES)  # every signal's evidence was checked

    def test_unknown_signal_is_rejected(self):
        with pytest.raises(ValueError, match="unknown spoiler signals"):
            SpoilerReport({"nope": ("x",)})


class TestProperties:
    def test_appending_derivation_phrase_never_decreases(self):
        rng = random.Random(11)
        corpus = [
            "",
            CLEAN_PREPLAN,
            "x = y = z = w",
            "$abc$ $def$ $ghi$ $jkl$",
            "the answer sits at 1001",
        ]
        for text in corpus:
            base = spoiler_score(text).score
            for phrase in DERIVATION_PHRASES:
                assert spoiler_score(f"{text} {phrase} ").score >= base

    def test_whitespace_invariance(self):
        for text in [CLEAN_PREPLAN, "this yields 1234", "$aa$ $bb$ $cc$ $dd$"]:
            report = spoiler_score(text)
            padded = spoiler_score("  \n" + text + " \t ")
            assert padded.score == report.score
            assert padded.signals() == report.signals()


class TestStylePenalty:
    def test_at_threshold(self):
        assert style_penalty(2, 2) == 0

    def test_maximum(self):
        assert style_penalty(6, 2) == 4

    def test_midpoint(self):
        assert style_penalty(4, 2) == 2

    def test_below_threshold(self):
        assert style_penalty(0, 2) == 0


class TestConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SpoilerConfig(digit_min=0)
        with pytest.raises(ValueError):
            SpoilerConfig(tau_s=0)
        with pytest.raises(TypeError):
            SpoilerConfig(derivation_phrases=("yields",))  # the phrase lists are fixed

    def test_custom_thresholds_apply(self):
        cfg = SpoilerConfig(span_count_threshold=2)
        assert "math_span_count" in fired(spoiler_score("$a$ $b$", cfg))


def traj(preplan, answer="7"):
    return Trajectory(preplan, "plan", f"work \\boxed{{{answer}}}")


LONG_CLEAN = " ".join(["analysis word"] * 100)  # 200 tokens, score 0


class TestFilterDecision:
    def test_keep(self):
        decision = filter_decision(traj(LONG_CLEAN), "7", equivalence=answers_equivalent)
        assert decision.keep and decision.reason is None

    @pytest.mark.parametrize("gold", ["", "  "], ids=["empty", "whitespace"])
    def test_empty_gold_is_rejected(self, gold):
        # "\\boxed{ }" would otherwise be kept as correct against a blank gold answer
        with pytest.raises(ValueError, match="gold answer must be non-empty"):
            filter_decision(traj(LONG_CLEAN, answer=" "), gold, equivalence=answers_equivalent)

    def test_spoiler_drop_despite_correct_answer(self):
        spoiled = LONG_CLEAN + " this yields x. we get y. the count is 1001. $a$ $b$ $c$ $d$"
        decision = filter_decision(traj(spoiled), "7", equivalence=answers_equivalent)
        assert not decision.keep
        assert decision.reason == DropReason.SPOILER
        assert decision.spoiler.score > 2

    def test_wrong_answer_drop_with_clean_preplan(self):
        decision = filter_decision(traj(LONG_CLEAN, answer="8"), "7", equivalence=answers_equivalent)
        assert decision.reason == DropReason.WRONG_ANSWER
        assert decision.spoiler.score == 0

    def test_missing_answer(self):
        t = Trajectory(LONG_CLEAN, "plan", "no final value")
        decision = filter_decision(t, "7", equivalence=answers_equivalent)
        assert decision.reason == DropReason.NO_ANSWER

    def test_length_bounds(self):
        short = filter_decision(traj("too short"), "7", equivalence=answers_equivalent)
        assert short.reason == DropReason.TOO_SHORT
        long_text = " ".join(["w"] * 1501)
        long = filter_decision(traj(long_text), "7", equivalence=answers_equivalent)
        assert long.reason == DropReason.TOO_LONG

    def test_text_after_boxed_answer(self):
        t = Trajectory(LONG_CLEAN, "plan", "work \\boxed{7} and then more words")
        decision = filter_decision(t, "7", equivalence=answers_equivalent)
        assert decision.reason == DropReason.NOT_BOXED_FINAL
        assert decision.answer_correct

    def test_foreign_tag_in_preplan(self):
        decision = filter_decision(traj(LONG_CLEAN + " <note>"), "7", equivalence=answers_equivalent)
        assert decision.reason == DropReason.MALFORMED
        assert decision.answer_correct

    def test_reason_order_spoiler_first(self):
        spoiled_short = "this yields. we get. 1001 shown. $a$ $b$ $c$ $d$"
        decision = filter_decision(traj(spoiled_short, answer="8"), "7", equivalence=answers_equivalent)
        assert decision.reason == DropReason.SPOILER

    def test_gold_must_be_nonempty(self):
        with pytest.raises(ValueError):
            filter_decision(traj(LONG_CLEAN), "", equivalence=answers_equivalent)
