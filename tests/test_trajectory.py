import importlib.util
import random
import re
import sys
import threading

import pytest
from conftest import outcome

import ppc.trajectory
from ppc.config import PipelineConfig
from ppc.evaluation import aggregate_attribution
from ppc.grpo import GrpoConfig, RolloutGroup, grpo_objective
from ppc.rewards import RewardBreakdown
from ppc.synthesis import DatasetSummary
from ppc.trajectory import (
    FormatVerdict,
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


def reference_scan(text):
    """_scan as it was written, with one regex finditer over the text; kept as the oracle."""
    expected_tokens = ("<preplan>", "</preplan>", "<plan>", "</plan>", "<execute>", "</execute>")
    positions = {tok: [] for tok in expected_tokens}
    findings = []

    for m in re.finditer(r"</?[A-Za-z][A-Za-z0-9_-]*>", text):
        token = m.group(0)
        if token in positions:
            positions[token].append(m.start())
        else:
            findings.append((m.start(), Violation.FOREIGN_TAG, token))

    for name in ("preplan", "plan", "execute"):
        opens = positions[f"<{name}>"]
        closes = positions[f"</{name}>"]
        if not opens or not closes:
            absent = [t for t, seen in ((f"<{name}>", opens), (f"</{name}>", closes)) if not seen]
            findings.append((len(text), Violation.MISSING_TAG, " ".join(absent)))
        repeats = [seen[1] for seen in (opens, closes) if len(seen) > 1]
        if repeats:
            findings.append((min(repeats), Violation.DUPLICATE_TAG, f"<{name}>"))

    firsts = [(tok, positions[tok][0]) for tok in expected_tokens if positions[tok]]
    for (prev_tok, prev_pos), (tok, pos) in zip(firsts, firsts[1:]):
        if pos < prev_pos:
            findings.append((pos, Violation.OUT_OF_ORDER, f"{tok} before {prev_tok}"))
            break

    open_exec = positions["<execute>"]
    close_exec = positions["</execute>"]
    if len(open_exec) == 1 and len(close_exec) == 1 and open_exec[0] < close_exec[0]:
        body = text[open_exec[0] + len("<execute>") : close_exec[0]]
        if boxed_or_none(body) is None:
            findings.append((close_exec[0], Violation.NO_BOXED, "no closed boxed group in execute"))

    if close_exec:
        tail_start = close_exec[-1] + len("</execute>")
        tail = text[tail_start:]
        if tail.strip():
            offset = tail_start + (len(tail) - len(tail.lstrip()))
            findings.append((offset, Violation.TRAILING_TEXT, tail.strip()[:40]))

    findings.sort(key=lambda f: f[0])
    return findings


class TestScanMatchesReference:
    # "<" that opens no tag, "<<plan>", a tag name with a digit and a dash, and
    # "<" right before an allowed tag all sit beside the six allowed tags.
    PIECES = [
        "<preplan>", "</preplan>", "<plan>", "</plan>", "<execute>", "</execute>",
        "<", "<<plan>", "</b-1>", "<note>", "< plan>", "</>", "<1>", "a < b", ">",
        "\\boxed{1}", "\\boxed{oops", "text", " ", "\n",
    ]

    def test_seeded_fuzz(self):
        rng = random.Random("scan")
        codes = set()
        for _ in range(5_000):
            text = "".join(rng.choices(self.PIECES, k=rng.randint(0, 14)))
            expected = reference_scan(text)
            assert list(ppc.trajectory._scan(text)) == expected, repr(text)
            assert outcome(parse_trajectory, text) == outcome(parse_trajectory, "".join(list(text))), repr(text)
            codes.update(code for _, code, _ in expected)
        assert codes == set(Violation)

    @pytest.mark.parametrize("text", ["", "<", "<<plan>", "</b-1>", CANONICAL, "<<" + CANONICAL + "<"])
    def test_examples(self, text):
        assert list(ppc.trajectory._scan(text)) == reference_scan(text)


class TestScanMemo:
    """A guard and a parse of one string object scan it once, in either order."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan_text = ppc.trajectory._scan_text

        def counted(text):
            calls.append(text)
            return scan_text(text)

        monkeypatch.setattr(ppc.trajectory, "_scan_text", counted)
        return calls

    @pytest.mark.parametrize("well_formed", [True, False], ids=["well-formed", "malformed"])
    @pytest.mark.parametrize("guard_first", [True, False], ids=["guard-first", "parse-first"])
    def test_guard_and_parse_scan_once(self, scans, well_formed, guard_first):
        text = make(execute="C \\boxed{7}" if well_formed else "no answer")
        calls = [check_format, lambda t: outcome(parse_trajectory, t)]
        results = [call(text) for call in (calls if guard_first else calls[::-1])]
        assert len(scans) == 1
        verdict, parsed = results if guard_first else results[::-1]
        assert verdict.well_formed is well_formed
        assert parsed[0] == ("ok" if well_formed else MalformedTrajectory)

    def test_equal_but_distinct_string_gets_an_equal_verdict(self, scans):
        text = make(execute="no answer")
        copy = "".join(list(text))
        assert copy == text and copy is not text
        assert check_format(text) == check_format(copy) == FormatVerdict(False, (Violation.NO_BOXED,))
        assert len(scans) == 2

    def test_malformed_message_is_unchanged_on_a_memo_hit(self, scans):
        text = "<note>" + make(execute="no answer")
        check_format(text)
        with pytest.raises(MalformedTrajectory) as err:
            parse_trajectory(text)
        assert len(scans) == 1
        assert str(err.value) == "FOREIGN_TAG at offset 0: <note>"
        assert err.value.violations == [Violation.FOREIGN_TAG, Violation.NO_BOXED]

    def test_empty_text_on_a_fresh_module_is_missing_three_tags(self, monkeypatch):
        # "" is a singleton: a slot that started as ("", ()) would call it well formed.
        spec = importlib.util.spec_from_file_location("fresh_trajectory", ppc.trajectory.__file__)
        fresh = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fresh)
        spec.loader.exec_module(fresh)
        assert [v.value for v in fresh.check_format("").violations] == ["MISSING_TAG"] * 3
        assert check_format("").violations == (Violation.MISSING_TAG,) * 3

    def test_two_threads_never_get_each_others_verdict(self):
        good, bad = CANONICAL, "<note>" + CANONICAL
        errors = []

        def run(first, second):
            for i in range(2000):
                for text in (first, second):
                    verdict = check_format(text)
                    parsed = outcome(parse_trajectory, text)[0] == "ok"
                    if (verdict.well_formed, parsed) != ((text is good),) * 2:
                        errors.append((i, text, verdict, parsed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a torn memo slot would show
        try:
            threads = [threading.Thread(target=run, args=pair) for pair in ((good, bad), (bad, good))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


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
