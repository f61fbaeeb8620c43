import random

import pytest
from conftest import outcome

from ppc.config import PipelineConfig
from ppc.evaluation import aggregate_attribution
from ppc.grpo import GrpoConfig, RolloutGroup, grpo_objective
from ppc.rewards import RewardBreakdown
from ppc.synthesis import DatasetSummary
from ppc.trajectory import (
    MalformedTrajectory,
    Trajectory,
    UnbalancedBraces,
    Violation,
    boxed_or_none,
    check_format,
    extract_boxed,
    parse_trajectory,
    read_trajectory,
    render_trajectory,
)

CANONICAL = "<preplan>A</preplan><plan>B</plan><execute>C \\boxed{7}</execute>"

CONFIG = PipelineConfig.from_dict(
    {
        "roles": {"judge": {"kind": "http", "endpoint": "http://h/v1", "model": "m"}},
        "grpo": {"epsilon_clip": 0.2, "beta_kl": 0.04},
    }
)
GROUP = RolloutGroup(rewards=[1.0, 0.0], logp_new=[-1.0, -2.0], logp_old=[-1.0, -2.0], logp_ref=[-1.0, -2.0])

# The keys that `ppc reward`, `grpo-check`, `attribute`, `synthesize` and
# saved configs expose; downstream readers depend on them.
SERIALIZED_KEYS = [
    pytest.param(
        lambda: RewardBreakdown(1.0, 1.0, 1, 0, 1.4, True).to_dict(),
        {"r_out", "r_adh_raw", "r_fmt", "r_sty_raw", "total", "correct"},
        id="RewardBreakdown",
    ),
    pytest.param(
        lambda: grpo_objective(GROUP, GrpoConfig()).to_dict(),
        {"objective", "advantages", "surrogates", "kl_values", "clip_fraction", "mean_kl"},
        id="GrpoResult",
    ),
    pytest.param(
        lambda: DatasetSummary(1, 1, 1.0, {"0": 1}, {}).to_dict(),
        {"problems", "kept", "retention", "score_histogram", "drop_reasons"},
        id="DatasetSummary",
    ),
    pytest.param(
        lambda: aggregate_attribution([None]).to_dict(),
        {"total", "what_to_solve", "how_to_solve", "facets", "unparseable"},
        id="AttributionCounts",
    ),
    pytest.param(
        lambda: CONFIG.to_dict(),
        {
            "roles", "temperature", "top_p", "max_tokens", "spoiler", "weights", "grpo",
            "filter_min_tokens", "filter_max_tokens", "parallelism",
        },
        id="PipelineConfig",
    ),
    pytest.param(
        lambda: CONFIG.to_dict()["roles"]["judge"],
        {
            "kind", "endpoint", "model", "api_key_env", "script", "default_response",
            "max_attempts", "timeout",
        },
        id="PipelineConfig.roles",
    ),
    pytest.param(
        lambda: CONFIG.to_dict()["spoiler"],
        {
            "derivation_phrases", "answer_phrases", "equality_threshold", "long_span_min_chars",
            "long_span_min_count", "digit_min", "span_count_threshold", "tau_s",
        },
        id="PipelineConfig.spoiler",
    ),
    pytest.param(
        lambda: CONFIG.to_dict()["weights"],
        {"lambda_a", "lambda_f", "lambda_s", "tau_s"},
        id="PipelineConfig.weights",
    ),
    pytest.param(
        lambda: CONFIG.to_dict()["grpo"],
        {"epsilon_clip", "beta_kl", "std_floor"},
        id="PipelineConfig.grpo",
    ),
]


def make(preplan="A", plan="B", execute="C \\boxed{7}"):
    return f"<preplan>{preplan}</preplan><plan>{plan}</plan><execute>{execute}</execute>"


class TestParse:
    def test_canonical(self):
        t = parse_trajectory(CANONICAL)
        assert t.preplan == "A"
        assert t.plan == "B"
        assert t.execute == "C \\boxed{7}"
        assert t.boxed_answer == "7"

    def test_empty_input_missing_all_tags(self):
        with pytest.raises(MalformedTrajectory) as err:
            parse_trajectory("")
        assert err.value.violations == [Violation.MISSING_TAG] * 3

    def test_out_of_order(self):
        text = "<plan>B</plan><preplan>A</preplan><execute>\\boxed{1}</execute>"
        with pytest.raises(MalformedTrajectory) as err:
            parse_trajectory(text)
        assert err.value.violations == [Violation.OUT_OF_ORDER]

    def test_segments_are_trimmed(self):
        t = parse_trajectory(make(preplan="  A \n", execute="\n C \\boxed{7} "))
        assert t.preplan == "A"
        assert t.execute == "C \\boxed{7}"

    def test_error_names_first_violation_in_document_order(self):
        text = "<note>" + CANONICAL
        with pytest.raises(MalformedTrajectory) as err:
            parse_trajectory(text)
        assert str(err.value).startswith("FOREIGN_TAG")

    def test_lenient_reader_reads_missing_block_as_empty(self):
        t = read_trajectory("<preplan> A </preplan><execute>C \\boxed{7}</execute> tail")
        assert t == Trajectory("A", "", "C \\boxed{7}", "7")


class TestCheckFormat:
    def test_canonical_well_formed(self):
        verdict = check_format(CANONICAL)
        assert verdict.well_formed
        assert verdict.violations == ()

    def test_trailing_text(self):
        verdict = check_format(CANONICAL + " Thanks!")
        assert verdict.violations == (Violation.TRAILING_TEXT,)

    def test_trailing_whitespace_ok(self):
        assert check_format(CANONICAL + " \n\t ").well_formed

    def test_leading_whitespace_ok(self):
        assert check_format("  \n" + CANONICAL).well_formed

    def test_no_boxed(self):
        verdict = check_format(make(execute="no answer here"))
        assert verdict.violations == (Violation.NO_BOXED,)

    def test_unbalanced_boxed_counts_as_missing(self):
        verdict = check_format(make(execute="\\boxed{\\text{a}"))
        assert Violation.NO_BOXED in verdict.violations

    def test_foreign_tag(self):
        verdict = check_format(make(plan="B <scratch> hm </scratch>"))
        assert verdict.violations.count(Violation.FOREIGN_TAG) == 2

    def test_unclosed_tag_is_one_missing(self):
        text = "<preplan>A<plan>B</plan><execute>\\boxed{1}</execute>"
        verdict = check_format(text)
        assert verdict.violations == (Violation.MISSING_TAG,)

    def test_duplicated_block_is_one_duplicate(self):
        text = "<preplan>A</preplan><preplan>A</preplan><plan>B</plan><execute>\\boxed{1}</execute>"
        verdict = check_format(text)
        assert verdict.violations.count(Violation.DUPLICATE_TAG) == 1

    def test_case_sensitive_tags(self):
        verdict = check_format(CANONICAL.replace("<preplan>", "<PREPLAN>", 1))
        assert Violation.FOREIGN_TAG in verdict.violations
        assert Violation.MISSING_TAG in verdict.violations

    def test_nested_allowed_tag_is_duplicate(self):
        verdict = check_format(make(preplan="A <plan> inside"))
        assert Violation.DUPLICATE_TAG in verdict.violations

    def test_parse_agrees_with_guard(self):
        cases = [
            CANONICAL,
            "",
            make(execute="nope"),
            CANONICAL + "tail",
            make(preplan="<plan>"),
            "<preplan>A</preplan><execute>\\boxed{1}</execute><plan>B</plan>",
            "junk before " + CANONICAL,
        ]
        for text in cases:
            ok = check_format(text).well_formed
            try:
                assert read_trajectory(text) == parse_trajectory(text), repr(text)
                parsed = True
            except MalformedTrajectory:
                parsed = False
            assert parsed == ok, text

    def test_parse_agrees_with_guard_on_random_tag_soup(self):
        rng = random.Random(23)
        pieces = [
            "<preplan>", "</preplan>", "<plan>", "</plan>", "<execute>",
            "</execute>", "<note>", "text", "\\boxed{1}", "\\boxed{oops",
            " ", "\n",
        ]
        for _ in range(300):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 12)))
            ok = check_format(text).well_formed
            try:
                assert read_trajectory(text) == parse_trajectory(text), repr(text)
                parsed = True
            except MalformedTrajectory:
                parsed = False
            assert parsed == ok, repr(text)


class TestExtractBoxed:
    def test_simple(self):
        assert extract_boxed("x=2 so \\boxed{2}") == "2"

    def test_last_marker_wins_with_nesting(self):
        assert extract_boxed("\\boxed{1} ... \\boxed{\\frac{1}{2}}") == "\\frac{1}{2}"

    def test_unbalanced_raises(self):
        with pytest.raises(UnbalancedBraces):
            extract_boxed("\\boxed{\\text{a}")
        assert boxed_or_none("\\boxed{\\text{a}") is None

    def test_absent_is_none(self):
        assert extract_boxed("no marker") is None

    def test_rewrap_reproduces_substring(self):
        rng = random.Random(7)
        pieces = ["\\frac{1}{2}", "{a{b}c}", "12 + {x}", "\\sqrt{2}", "y"]
        for _ in range(100):
            content = "".join(rng.choices(pieces, k=rng.randint(1, 3)))
            text = "junk \\boxed{0} more \\boxed{" + content + "} "
            got = extract_boxed(text)
            assert "\\boxed{" + got + "}" == "\\boxed{" + content + "}"

    def test_content_not_stripped(self):
        assert extract_boxed("\\boxed{ 7 }") == " 7 "


def reference_extract_boxed(text):
    """extract_boxed as it was written, one character at a time; kept as the oracle."""
    start = text.rfind("\\boxed{")
    if start == -1:
        return None
    depth = 1
    i = start + len("\\boxed{")
    while i < len(text):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start + len("\\boxed{") : i]
        i += 1
    raise UnbalancedBraces(f"boxed group opened at offset {start} never closes")


class TestExtractBoxedMatchesReference:
    def test_seeded_fuzz(self):
        rng = random.Random("extract_boxed")
        pieces = ["{", "}", "{", "}", "\\boxed{", "\\boxed", "boxed{", "7", "x y", "\\frac", "\\", "é"]
        results = set()
        for _ in range(20_000):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 14)))
            expected = outcome(reference_extract_boxed, text)
            assert outcome(extract_boxed, text) == expected, text
            results.add(expected[0] if expected[0] != "ok" else expected[1] is None)
        assert results == {True, False, UnbalancedBraces}  # absent, found and never closed


class TestRender:
    def test_render_passes_guard(self):
        t = parse_trajectory(CANONICAL)
        assert check_format(render_trajectory(t)).well_formed

    def test_round_trip_idempotent(self):
        t = parse_trajectory(CANONICAL)
        again = parse_trajectory(render_trajectory(t))
        assert again == t
        assert render_trajectory(again) == render_trajectory(t)

    def test_round_trip_random_trajectories(self):
        rng = random.Random(41)
        words = ["count", "the", "primes", "then", "apply", "CRT", "mod", "11"]
        for _ in range(200):
            seg = lambda: " ".join(rng.choices(words, k=rng.randint(1, 6)))
            t = Trajectory.from_parts(seg(), seg(), seg() + f" \\boxed{{{rng.randint(0, 99)}}}")
            assert parse_trajectory(render_trajectory(t)) == t

    def test_from_parts_extracts_boxed(self):
        t = Trajectory.from_parts("A", "B", "\\boxed{42}")
        assert t.boxed_answer == "42"


class TestSerialization:
    @pytest.mark.parametrize("make, keys", SERIALIZED_KEYS)
    def test_dict_keys(self, make, keys):
        assert set(make()) == keys
