import contextlib
import itertools
import json
import logging
import random
import re
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from conftest import (
    joining_workers,
    load_perfbench_inputs,
    make_problem,
    outcome,
    wait_until,
    waiting_for_workers,
)

import ppc.cli
import ppc.clients
import ppc.evaluation
from ppc import prompts
from ppc._text import JSON_ENCODER, count_tokens
from ppc.cli import _evaluate_perturbed
from ppc.clients import ClientError, ScriptedClient, UnparseableVerdict, judge_equivalence
from ppc.evaluation import (
    DEFAULT_EVAL_SAMPLING,
    EvalRecord,
    EvalReport,
    PerturbationMode,
    answers_equivalent,
    evaluate,
    forced_prefix_for,
    maj_at_k,
    normalize_answer,
    pass_at_k,
    perturb_preplan,
    read_transcripts,
    write_eval_outputs,
)
from ppc.synthesis import ProblemRecord
from ppc.evaluation import _Scorer
from ppc.trajectory import Violation, check_format, extract_boxed


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (" 42 ", "42"),
            ("$42$", "42"),
            ("\\dfrac{1}{2}", "1/2"),
            ("\\tfrac{1}{2}", "1/2"),
            ("{42}", "42"),
            ("\\left( 0, 1 \\right)", "( 0, 1 )"),
            ("007", "7"),
            ("+5", "5"),
            ("-0", "0"),
            ("0.50", "1/2"),
            ("2/4", "1/2"),
            ("\\frac{2}{4}", "1/2"),
            ("-\\frac{1}{2}", "-1/2"),
            ("a  b\n c", "a b c"),
            ("{1}{2}", "{1}{2}"),  # braces not redundant; kept
            ("\\rightarrow", "\\rightarrow"),  # \right only strips as a delimiter
            ("{{1}}", "1"),  # stripping repeats until nothing changes
            ("{{ $1$ }}", "1"),
            ("{ $360.50$ }", "721/2"),
        ],
    )
    def test_pipeline(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_division_by_zero_left_as_text(self):
        assert normalize_answer("1/0") == "1/0"


# normalize_answer as it was written with fractions.Fraction, kept as the oracle
# for the integer-arithmetic version.
_REF_LEFT_RIGHT = re.compile(r"\\(left|right)(?![a-zA-Z])")
_REF_INT = re.compile(r"^[+-]?[0-9]+$")
_REF_DECIMAL = re.compile(r"^[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)$")
_REF_SLASH = re.compile(r"^([+-]?[0-9]+)\s*/\s*([+-]?[0-9]+)$")
_REF_FRAC = re.compile(r"^([+-])?\\frac\{([+-]?[0-9]+)\}\{([+-]?[0-9]+)\}$")


def _ref_as_rational(text):
    try:
        if _REF_INT.match(text):
            return Fraction(int(text))
        if _REF_DECIMAL.match(text):
            return Fraction(text)
        m = _REF_SLASH.match(text)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
        m = _REF_FRAC.match(text)
        if m:
            value = Fraction(int(m.group(2)), int(m.group(3)))
            return -value if m.group(1) == "-" else value
    except (ValueError, ZeroDivisionError):
        return None
    return None


def reference_normalize(text):
    s = text.strip()
    s = re.sub(r"\s+", " ", s)
    s = s.strip("$").strip()
    s = _REF_LEFT_RIGHT.sub("", s)
    s = s.replace("\\dfrac", "\\frac").replace("\\tfrac", "\\frac")
    s = ppc.evaluation._strip_outer_braces(s).strip()
    while True:  # the whitespace, dollar and brace stripping, until it changes nothing
        bare = ppc.evaluation._strip_outer_braces(re.sub(r"\s+", " ", s.strip()).strip("$").strip()).strip()
        if bare == s:
            break
        s = bare
    value = _ref_as_rational(s)
    if value is not None:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return s


# Unicode whitespace of several kinds, including the separators str.split() takes.
_SPACES = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028")
_PIECES = (
    "0", "1", "7", "42", "-", "+", "007", "1.", ".5", "-0.0", "2.50", "/", "3/0", "-4/-6",
    "\\frac", "\\dfrac", "\\tfrac", "{", "}", "{2}", "{-6}", "$", "\\left(", "\\right)",
    "\\left", "\\right", "\\leftarrow", "\\rightarrow", "²", "٣", "1_000", "x", ".", ",",
) + _SPACES


def _numeral(rng):
    digits = rng.choice(["0", "00", "7", "12", "007", "360", "1000", str(rng.randrange(10**30))])
    odd = rng.random()
    if odd < 0.05:
        digits = rng.choice(["٣", "²", "1_000", "1e3"])
    return rng.choice(["", "", "+", "-"]) + digits


def fuzz_answer(rng):
    """A seeded answer spelling: random pieces, or a rational shape the rules canonicalize."""
    if rng.random() < 0.4:
        return "".join(rng.choices(_PIECES, k=rng.randint(1, 7)))
    a, b = _numeral(rng), _numeral(rng)
    digits = rng.choice(["", "0", "5", "50", "125", "000", str(rng.randrange(10**12))])
    sp = rng.choice(("", "", " ") + _SPACES)
    text = rng.choice([
        a,
        f"{a}/{b}",
        f"{a}{sp}/{sp}{b}",
        f"\\frac{{{a}}}{{{b}}}",
        f"-\\dfrac{{{a}}}{{{b}}}",
        f"+\\tfrac{{{a}}}{{{b}}}",
        f"\\frac{{{a}}}{{{sp}{b}}}",
        f"{a}.{digits}",
        f"{rng.choice(['', '+', '-'])}.{digits}",
        f"\\left({a}\\right)",
    ])
    for _ in range(rng.randint(0, 3)):
        text = rng.choice(["{%s}", "$%s$", "$ %s $", sp + "%s" + sp, "{ %s }", "%s}", "{%s"]) % text
    return text


def perfbench_answer_spellings():
    """Every gold and boxed answer spelling in perfbench's eval and rescore inputs, seeds 1-3."""
    inputs = load_perfbench_inputs()
    spellings = set()
    for seed in (1, 2, 3):
        for problem in inputs.eval_inputs(seed):
            spellings |= {problem.record.gold_answer, *problem.classes}
            spellings.update(extract_boxed(s) for s in problem.samples)
        problems, _ = inputs.rescore_inputs(seed, 120, 600)
        for problem in problems:
            spellings.add(problem.record.gold_answer)
            spellings.update(extract_boxed(s) for s in problem.samples)
    spellings.discard(None)
    return sorted(spellings)


class TestNormalizeMatchesReference:
    """normalize_answer gives what the Fraction-based pipeline gave, string for string."""

    def test_seeded_fuzz(self):
        rng = random.Random("normalize")
        answers = [fuzz_answer(rng) for _ in range(20_000)]
        for text in answers:
            assert outcome(normalize_answer, text) == outcome(reference_normalize, text), text
        forms = [reference_normalize(text) for text in answers]
        # the fuzz reaches every rational shape: reduced fractions, negatives and left-alone zero denominators
        assert any("/" in f and f.replace("/", "").replace("-", "").isdigit() for f in forms)
        assert any(f.startswith("-") and f[1:].isdigit() for f in forms)
        assert any(f.endswith("/0") or f.endswith("{0}") for f in forms)

    def test_normal_form_is_its_own_normal_form(self):
        rng = random.Random("normalize")
        for text in (fuzz_answer(rng) for _ in range(20_000)):
            form = normalize_answer(text)
            assert normalize_answer(form) == form, text

    @pytest.mark.parametrize(
        "text",
        [
            "1" * 5000,  # beyond sys.get_int_max_str_digits(): left as it is
            "-" + "7" * 5000,
            "1" * 5000 + "/2",
            "\\frac{1}{" + "3" * 5000 + "}",
            "0." + "5" * 5000,
            "9" * 4000 + "." + "1" * 4000,  # parses, but the reduced numerator cannot be printed
            "9" * 4300,
        ],
    )
    def test_long_digit_runs(self, text):
        assert outcome(normalize_answer, text) == outcome(reference_normalize, text)

    def test_five_thousand_digit_integer_left_as_it_is(self):
        assert normalize_answer("1" * 5000) == "1" * 5000

    def test_perfbench_spellings(self):
        spellings = perfbench_answer_spellings()
        assert len(spellings) > 1000
        for text in spellings:
            assert normalize_answer(text) == reference_normalize(text), text


class TestEquivalence:
    def test_identical(self):
        assert answers_equivalent("2", "2")

    def test_rational_reduction(self):
        assert answers_equivalent("\\frac{2}{4}", "1/2")
        assert answers_equivalent("0.50", "1/2")

    def test_symbolic_reordering_needs_judge(self):
        assert not answers_equivalent("x+1", "1+x")
        yes_judge = ScriptedClient([("", "YES")])
        assert answers_equivalent("x+1", "1+x", fallback=yes_judge)

    def test_judge_no(self):
        assert not answers_equivalent("x", "y", fallback=ScriptedClient([("", "NO")]))

    def test_failed_judge_call_raises(self):
        judge = ScriptedClient([])  # no rule: every call raises a ClientError
        with pytest.raises(ClientError, match="no scripted response") as excinfo:
            answers_equivalent("x+1", "1+x", fallback=judge)
        assert not excinfo.value.retryable
        assert len(judge.calls) == 1

    def test_unreadable_judge_verdict_is_no_silent_no(self):
        with pytest.raises(UnparseableVerdict):
            answers_equivalent("x+1", "1+x", fallback=ScriptedClient([("", "maybe")]))

    def test_absent_prediction(self):
        assert not answers_equivalent(None, "2")

    def test_reflexive_symmetric_on_rules(self):
        values = ["1/2", "0.5", "x+1", "{a}", "\\frac{3}{6}"]
        for a in values:
            assert answers_equivalent(a, a)
            for b in values:
                assert answers_equivalent(a, b) == answers_equivalent(b, a)


class TestMajPass:
    def test_strict_majority(self):
        assert maj_at_k(["5", "5", "3"], "5") is True

    def test_tie_breaks_to_earliest(self):
        assert maj_at_k(["2", "3"], "3") is False
        assert maj_at_k(["3", "2"], "3") is True

    def test_all_absent(self):
        assert maj_at_k([None, None], "1") is False

    def test_absent_answers_form_no_class(self):
        assert maj_at_k([None, None, "4", None], "4") is True

    def test_equivalence_classes_merge_variants(self):
        assert maj_at_k(["0.5", "1/2", "3"], "\\frac{1}{2}") is True

    def test_pass_any(self):
        assert pass_at_k(["1", "7", "3"], "7") is True
        assert pass_at_k(["1", "2"], "7") is False
        assert pass_at_k([None] * 16, "7") is False

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            maj_at_k([], "1")
        with pytest.raises(ValueError):
            pass_at_k([], "1")

    def test_pass_monotone_in_growing_sample_prefix(self):
        rng = random.Random(8)
        for _ in range(100):
            answers = [rng.choice(["1", "2", None]) for _ in range(8)]
            results = [pass_at_k(answers[:k], "1") for k in range(1, 9)]
            assert results == sorted(results)  # never flips back to False

    def test_maj1_equals_pass1(self):
        rng = random.Random(2)
        answers = ["1", "2", "3", None]
        for _ in range(200):
            a = [rng.choice(answers)]
            gold = rng.choice(["1", "2", "3"])
            assert maj_at_k(a, gold) == pass_at_k(a, gold)


class TestPerturbations:
    def test_shuffled_preserves_sentence_multiset(self):
        text = "First point. Second point! Third point? Fourth."
        [prefix] = perturb_preplan([text], PerturbationMode.SHUFFLED, 5)
        assert prefix.startswith("<preplan>") and prefix.endswith("</preplan>\n<plan>")
        inner = prefix[len("<preplan>") : -len("</preplan>\n<plan>")]
        assert sorted(inner.replace("! ", "!|").replace("? ", "?|").replace(". ", ".|").split("|")) == sorted(
            ["First point.", "Second point!", "Third point?", "Fourth."]
        )

    def test_shuffled_deterministic(self):
        t = ["A one. B two. C three. D four. E five."]
        assert perturb_preplan(t, PerturbationMode.SHUFFLED, 5) == perturb_preplan(t, PerturbationMode.SHUFFLED, 5)

    def test_shuffled_never_returns_own_order(self):
        # With one fresh generator per preplan, seed 5 returned every 2- and 3-sentence preplan as it was.
        preplans = ["First point. Second point.", "Alpha. Beta. Gamma.", "One. Two.", "Red. Green. Blue."]
        for seed in range(20):
            for own, prefix in zip(preplans, perturb_preplan(preplans, PerturbationMode.SHUFFLED, seed)):
                assert prefix != forced_prefix_for(own), (seed, own)

    def test_shuffled_keeps_a_text_with_no_other_order(self):
        texts = ["Only one sentence.", "Same. Same.", ""]
        assert perturb_preplan(texts, PerturbationMode.SHUFFLED, 5) == [forced_prefix_for(t) for t in texts]

    def test_shuffled_order_depends_on_row_position(self):
        # Equal preplans at three positions get three orders; the order is pinned across processes.
        assert perturb_preplan(["A one. B two. C three. D four."] * 3, PerturbationMode.SHUFFLED, 1) == [
            forced_prefix_for("A one. C three. B two. D four."),
            forced_prefix_for("C three. A one. B two. D four."),
            forced_prefix_for("C three. D four. B two. A one."),
        ]

    def test_mismatched_is_a_derangement(self):
        pool = [f"preplan number {i}." for i in range(6)]
        for own, prefix in zip(pool, perturb_preplan(pool, PerturbationMode.MISMATCHED, 3)):
            assert own not in prefix

    def test_mismatched_needs_pool(self):
        for preplans in ([], ["x"]):
            with pytest.raises(ValueError, match="^mismatched perturbation needs >= 2 preplans$"):
                perturb_preplan(preplans, PerturbationMode.MISMATCHED, 1)

    def test_generic_constant(self):
        prefixes = set(perturb_preplan([f"text {i}" for i in range(5)], PerturbationMode.GENERIC, 0))
        assert len(prefixes) == 1
        assert prefixes.pop() == forced_prefix_for(prompts.GENERIC_PREPLAN)


def completion(answer, preplan="short analysis."):
    return (
        f"<preplan>{preplan}</preplan>\n"
        f"<plan>1. Do it.</plan>\n"
        f"<execute>steps... Final Answer: \\boxed{{{answer}}}</execute>"
    )


def replay_fixture():
    """4 problems x 16 samples; 3 maj-correct, all pass-correct."""
    problems = [make_problem(f"p{i}", answer="7") for i in range(4)]
    replay = {
        "p0": [completion("7")] * 16,
        "p1": [completion("7")] * 12 + [completion("1")] * 4,
        "p2": [completion("7")] * 8 + [completion("2")] * 8,
        "p3": [completion("3")] * 12 + [completion("7")] * 4,
    }
    return problems, replay


class TestEvaluate:
    def test_replayed_fixture_metrics(self):
        problems, replay = replay_fixture()
        report = evaluate(problems, 16, replay=replay)
        assert report.maj_at_k == 75.00
        assert report.pass_at_k == 100.00
        assert report.problems == 4 and report.failed == 0

    def test_maj_tie_counts_by_first_occurrence(self):
        problems, replay = replay_fixture()
        record = next(
            r for r in evaluate(problems, 16, replay=replay).records if r.problem.id == "p2"
        )
        assert record.maj_correct  # 8-8 tie between 7s and 2s; 7 seen first

    def test_k1_maj_equals_pass(self):
        problems, replay = replay_fixture()
        report = evaluate(problems, 1, replay=replay)
        for rec in report.records:
            assert rec.maj_correct == rec.pass_correct

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_one_judge_call_per_answer_pair(self, interleaved):
        # 8 distinct wrong spellings, each twice, after 3 gold answers: the gold
        # class outranks each wrong form but not all 16 wrong answers, so the
        # counts cannot decide and the wrong forms are linked pairwise:
        # 8 verdicts + C(8, 2) linkage pairs
        wrong = [f"x_{i}" for i in range(8)]
        spellings = ["7"] * 3 + (wrong * 2 if interleaved else [w for w in wrong for _ in range(2)])
        judge = ScriptedClient(lambda req: "NO")
        report = evaluate(
            [make_problem("p0", answer="7")],
            19,
            replay={"p0": [completion(s) for s in spellings]},
            equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
        )
        assert report.records[0].verdicts == [True] * 3 + [False] * 16
        assert report.records[0].maj_correct
        assert len(judge.calls) == 36
        assert len({judge_pair(req) for req in judge.calls}) == 36

    def test_judge_asked_once_per_pair_of_normalized_forms(self):
        # 1/2 spelled three rule-equal ways (6 answers) beside five distinct
        # wrong values, after 7 gold answers that outrank each wrong form but
        # not the 16 wrong answers together: 6 wrong forms, so 6 verdicts +
        # C(6, 2) linkage pairs
        spellings = ["7"] * 7 + ["x_0", "0.5", "x_1", "1/2", "x_2", "\\frac{1}{2}", "x_3", "0.5"]
        spellings += ["x_4", "1/2", "x_0", "\\frac{1}{2}", "x_1", "x_2", "x_3", "x_4"]
        judge = ScriptedClient(lambda req: "NO")
        report = evaluate(
            [make_problem("p0", answer="7")],
            23,
            replay={"p0": [completion(s) for s in spellings]},
            equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
        )
        record = report.records[0]
        assert record.verdicts == [True] * 7 + [False] * 16
        assert record.maj_correct and record.pass_correct
        assert len(judge.calls) == 21
        pairs = [judge_pair(req) for req in judge.calls]
        assert ("0.5", "7") in pairs  # the form's first raw spelling
        assert not {"1/2", "\\frac{1}{2}"} & {s for pair in pairs for s in pair}

    def test_scripted_client_deterministic_report(self):
        problems = [make_problem("p0", answer="7")]
        client = ScriptedClient([("question", completion("7"))])
        a = JSON_ENCODER.encode(evaluate(problems, 3, client).to_dict())
        b = JSON_ENCODER.encode(evaluate(problems, 3, client).to_dict())
        assert a == b

    def test_failed_problem_excluded_and_counted(self):
        problems = [make_problem("p0", answer="7"), make_problem("px", answer="7")]
        client = ScriptedClient([(problems[0].question, completion("7"))])
        report = evaluate(problems, 2, client)
        assert report.problems == 1
        assert report.failed == 1
        assert report.pass_at_k == 100.00

    def test_perturbed_eval_forces_prefix(self, tmp_path):
        problems = [make_problem(f"p{i}", answer="7") for i in range(2)]
        base = {p.question: completion("7", preplan=f"own analysis {p.id}.") for p in problems}
        client = ScriptedClient(lambda req: (
            "rest</plan><execute>\\boxed{7}</execute>" if req.forced_prefix else base[req.user_prompt]
        ))
        report = _evaluate_perturbed(problems, 2, client, PerturbationMode.MISMATCHED, 1, tmp_path / "base.jsonl")
        forced = [r for r in client.calls if r.forced_prefix]
        assert len(forced) == 4  # 2 problems x k=2
        for call in forced:
            # every forced prefix carries some other problem's preplan
            own = f"own analysis {call.user_prompt.split()[-1]}."
            assert own not in call.forced_prefix
            assert call.forced_prefix.startswith("<preplan>")
        # each sample is its request's prefix followed by what the policy generated, byte for byte
        prefix = {call.user_prompt: call.forced_prefix for call in forced}
        assert len(report.records) == 2
        for record in report.records:
            continuation = "rest</plan><execute>\\boxed{7}</execute>"
            assert record.samples == [prefix[record.problem.question] + continuation] * 2

    def test_perturbation_needs_live_generation(self, tmp_path, capsys):
        # `ppc eval` refuses it before reading any file: none of these exists.
        argv = ["eval", "--config", "no.cfg.json", "--bench", "no.jsonl", "--k", "1", "--seed", "1"]
        argv += ["--out", str(tmp_path / "out"), "--replay", str(tmp_path / "no-run"), "--perturb", "mismatched"]
        assert ppc.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "data error: a perturbation needs live generation, not replay transcripts" in err
        assert "no.cfg.json" not in err and "no.jsonl" not in err
        assert not any(tmp_path.iterdir())

    def test_base_preplan_read_without_boxed_answer(self, tmp_path):
        # A base sample cut off before its \boxed (NO_BOXED) still carries a complete preplan.
        problems = [make_problem(f"p{i}", answer="7") for i in range(2)]
        base = {
            p.question: completion("7", preplan=f"own analysis {p.id}.").replace("\\boxed{7}", "")
            for p in problems
        }
        client = ScriptedClient(lambda req: (
            "rest</plan><execute>\\boxed{7}</execute>" if req.forced_prefix else base[req.user_prompt]
        ))
        assert all(check_format(b).violations == (Violation.NO_BOXED,) for b in base.values())
        _evaluate_perturbed(problems, 1, client, PerturbationMode.SHUFFLED, 1, tmp_path / "base.jsonl")
        forced = sorted(r.forced_prefix for r in client.calls if r.forced_prefix)
        assert forced == [forced_prefix_for(f"own analysis {p.id}.") for p in problems]

    def test_needs_a_client_or_replay(self):
        with pytest.raises(ValueError, match="need a client or replay transcripts"):
            evaluate([make_problem("p0")], 1)

    def test_samples_required_in_replay(self):
        problems = [make_problem("p0")]
        with pytest.raises(ValueError):
            evaluate(problems, 4, replay={"p0": [completion("7")]})

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failed_linkage_call_fails_only_its_problem_in_replay(self, parallelism, caplog):
        problems, replay = linkage_fixture()
        with caplog.at_level(logging.WARNING, logger="ppc.evaluation"):
            report = evaluate(
                problems, 5, replay=replay, equivalence=down_on_linkage, parallelism=parallelism
            )
        assert report.failed == 1 and [r.problem.id for r in report.records] == ["p0", "p2"]
        assert [r.maj_correct for r in report.records] == [True, False]
        assert sum("p1 failed entirely" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize(
        "build",
        [lambda judge: partial(judge_equivalence, judge), lambda judge: partial(answers_equivalent, fallback=judge)],
        ids=["partial", "fallback"],
    )
    def test_failing_judge_fails_only_its_problem(self, build, parallelism, caplog):
        # Both ways of making a judge fallback fail the problem whose call fails after retries.
        problems = [make_problem(f"p{i}") for i in range(3)]
        answers = {p.question: completion(a) for p, a in zip(problems, ["7", "seven", "sept"])}
        policy = ScriptedClient(lambda req: answers[req.user_prompt])
        judge = ScriptedClient([("Answer A: seven", "YES")], name="judge")  # no rule for sept
        with caplog.at_level(logging.WARNING, logger="ppc.evaluation"):
            report = evaluate(problems, 2, policy, equivalence=build(judge), parallelism=parallelism)
        assert report.failed == 1 and [r.problem.id for r in report.records] == ["p0", "p1"]
        assert [r.maj_correct for r in report.records] == [True, True]
        message = "problem p2 failed entirely: no scripted response for request to 'judge'"
        assert [r.getMessage() for r in caplog.records] == [message]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_unreadable_judge_verdict_fails_only_its_problem(self, parallelism, caplog):
        problems = [make_problem(f"p{i}") for i in range(3)]
        answers = {p.question: completion(a) for p, a in zip(problems, ["7", "seven", "sept"])}
        policy = ScriptedClient(lambda req: answers[req.user_prompt])
        judge = ScriptedClient([("Answer A: seven", "YES"), ("Answer A: sept", "maybe")])
        with caplog.at_level(logging.WARNING, logger="ppc.evaluation"):
            report = evaluate(
                problems, 2, policy, equivalence=partial(judge_equivalence, judge), parallelism=parallelism
            )
        assert report.failed == 1 and [r.problem.id for r in report.records] == ["p0", "p1"]
        assert [r.maj_correct for r in report.records] == [True, True]
        message = "problem p2 failed entirely: no YES or NO in judge response: 'maybe'"
        assert [r.getMessage() for r in caplog.records].count(message) == 1

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("mode", [PerturbationMode.SHUFFLED, PerturbationMode.MISMATCHED])
    def test_failed_base_sample_fails_only_its_problem(self, mode, parallelism, caplog, tmp_path):
        problems = [make_problem(f"p{i}", answer="7") for i in range(3)]

        def answer(req):
            if req.forced_prefix:
                return "rest</plan><execute>\\boxed{7}</execute>"
            if req.user_prompt == problems[1].question:
                raise ClientError("down")
            return completion("7", preplan=f"own analysis {req.user_prompt.split()[-1]}.")

        client = ScriptedClient(answer)
        with caplog.at_level(logging.WARNING, logger="ppc.evaluation"):
            report = _evaluate_perturbed(problems, 2, client, mode, 1, tmp_path / "base.jsonl", parallelism=parallelism)
        assert report.failed == 1 and [r.problem.id for r in report.records] == ["p0", "p2"]
        base = [json.loads(line) for line in (tmp_path / "base.jsonl").read_text().splitlines()]
        assert base == [{"id": pid, "preplan": f"own analysis {pid}."} for pid in ("p0", "p2")]
        assert report.problems == 2 and report.pass_at_k == 100.00
        prompts_sent = [req.user_prompt for req in client.calls]
        assert prompts_sent.count(problems[1].question) == 1  # the base call only
        assert [prompts_sent.count(problems[i].question) for i in (0, 2)] == [3, 3]
        forced = [req.forced_prefix for req in client.calls if req.forced_prefix]
        assert not any("own analysis p1." in prefix for prefix in forced)
        if mode == PerturbationMode.MISMATCHED:  # the two left swap preplans
            for req in client.calls:
                if req.forced_prefix:
                    other = "p2" if req.user_prompt.endswith("p0") else "p0"
                    assert req.forced_prefix == forced_prefix_for(f"own analysis {other}.")
        assert sum("p1 failed entirely" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_shuffled_prefix_is_seeded_by_position_in_the_base_file(self, parallelism, tmp_path):
        # Equal preplans, so each problem's order comes from its seed alone; at seed 5 the four differ.
        problems = [make_problem(f"p{i}", answer="7") for i in range(4)]
        preplan = "A one. B two. C three. D four."

        def forced(down):
            def answer(req):
                if req.forced_prefix:
                    return "rest</plan><execute>\\boxed{7}</execute>"
                if req.user_prompt == down:
                    raise ClientError("down")
                return completion("7", preplan=preplan)

            client = ScriptedClient(answer)
            report = _evaluate_perturbed(
                problems, 2, client, PerturbationMode.SHUFFLED, 5, tmp_path / "base.jsonl", parallelism=parallelism
            )
            assert report.failed == (down is not None)
            return {req.user_prompt: req.forced_prefix for req in client.calls if req.forced_prefix}

        every = forced(None)
        own = perturb_preplan([preplan] * len(problems), PerturbationMode.SHUFFLED, 5)
        assert every == {p.question: prefix for p, prefix in zip(problems, own)}
        assert len(set(own)) == len(problems)
        # p0's failed base sample leaves it out of the base file, so p1-p3 are shuffled as its rows 0-2
        shifted = perturb_preplan([preplan] * 3, PerturbationMode.SHUFFLED, 5)
        assert forced(problems[0].question) == {p.question: prefix for p, prefix in zip(problems[1:], shifted)}

    def test_generic_draws_no_base_sample(self, tmp_path):
        problems = [make_problem(f"p{i}", answer="7") for i in range(3)]

        def answer(req):
            if not req.forced_prefix:
                raise ClientError("an unforced call")
            return "rest</plan><execute>\\boxed{7}</execute>"

        client = ScriptedClient(answer)
        report = _evaluate_perturbed(problems, 2, client, PerturbationMode.GENERIC, 1, tmp_path / "base.jsonl")
        assert report.failed == 0 and report.problems == 3 and report.pass_at_k == 100.00
        assert len(client.calls) == 6
        assert {req.forced_prefix for req in client.calls} == {forced_prefix_for(prompts.GENERIC_PREPLAN)}
        assert not any(tmp_path.iterdir())  # no base pass, no base file

    def test_failed_base_samples_leave_a_mismatched_pool_too_small(self, tmp_path):
        problems = [make_problem(f"p{i}", answer="7") for i in range(3)]

        def answer(req):
            if req.user_prompt != problems[0].question:
                raise ClientError("down")
            return completion("7")

        client = ScriptedClient(answer)
        with pytest.raises(ValueError, match="^mismatched perturbation needs >= 2 preplans$"):
            _evaluate_perturbed(problems, 2, client, PerturbationMode.MISMATCHED, 1, tmp_path / "base.jsonl")
        assert len(client.calls) == 3  # the base calls; no forced one
        # the one preplan paid for is kept
        assert (tmp_path / "base.jsonl").read_text() == '{"id": "p0", "preplan": "short analysis."}\n'

    def test_one_problem_mismatched_fails_before_its_base_sample(self, tmp_path, monkeypatch, capsys):
        client = ScriptedClient(lambda req: completion("7"))
        monkeypatch.setattr(ppc.cli, "build_client", lambda *args: client)
        bench = tmp_path / "one.jsonl"
        bench.write_text(json.dumps({"id": "p0", "question": "Question p0", "answer": "7"}) + "\n")
        argv = ["eval", "--bench", str(bench), "--k", "2", "--seed", "1", "--out", str(tmp_path / "out")]
        assert ppc.cli.main(argv + ["--perturb", "mismatched"]) == 2
        assert f"data error: --bench {bench}: mismatched perturbation needs >= 2 preplans" in capsys.readouterr().err
        assert client.calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["live", "replay", "perturb"])
    def test_repeated_problem_id_rejected_before_any_call(self, source, tmp_path):
        # Replay and perturbation look problems up by id, so a repeated id
        # would score one problem's samples, or preplan, as the other's.
        problems = [make_problem("q1", "first question", answer="7"), make_problem("q1", "second", answer="3")]
        client = ScriptedClient(lambda req: completion("7"))
        judged = []
        equivalence = lambda pred, gold: judged.append(pred) or False
        run = {
            "live": lambda: evaluate(problems, 2, client, equivalence=equivalence),
            "replay": lambda: evaluate(
                problems, 2, replay={"q1": [completion("7"), completion("3")]}, equivalence=equivalence
            ),
            "perturb": lambda: _evaluate_perturbed(
                problems, 2, client, PerturbationMode.MISMATCHED, 1, tmp_path / "base.jsonl", equivalence=equivalence
            ),
        }[source]
        with pytest.raises(ValueError, match="^duplicate problem id 'q1'$"):
            run()
        assert client.calls == [] and judged == [] and not any(tmp_path.iterdir())


class TestTranscripts:
    def test_repeated_id_names_its_line(self, tmp_path):
        path = tmp_path / "mini.transcripts.jsonl"
        rows = [{"id": "a", "samples": [completion("7")]}, {"id": "b", "samples": []}]
        rows.append({"id": "a", "samples": [completion("3")]})
        path.write_text("\n".join(json.dumps(r) for r in rows[:2]) + "\n\n" + json.dumps(rows[2]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: repeated id 'a'")):
            read_transcripts(path)


# Texts the writer must not mistake for the samples key: the records row's
# stand-in and key text (raw and escaped), quotes, backslashes, control
# characters, NUL and non-ASCII.
ADVERSARIAL = [
    '"samples": null',
    '"samples": ',
    '{"samples": null, "token_counts": [1]}',
    '\\"samples\\": null',
    'quote " backslash \\ newline \n tab \t nul \x00 del \x7f',
    "café ≤ π × 数学 🙂 \U0010ffff",
    "",
]


def adversarial_report():
    records = []
    for i, text in enumerate(ADVERSARIAL):
        samples = [text, completion("7", preplan=text), text + '"samples": ' + text]
        records.append(
            EvalRecord(
                problem=ProblemRecord(id=f"{text}{i}" if i % 2 else i + 1, question=f"q {text}", gold_answer=text or "7"),
                samples=samples[: i % 4],
                answers=[text or None, None, "7"][: i % 4],
                verdicts=[True, False, i % 3 == 0][: i % 4],
                maj_correct=i % 2 == 0,
                token_counts=[count_tokens(s) for s in samples[: i % 4]],
            )
        )
    return EvalReport("mini", 3, 0, records, [(r.problem.id, r.samples) for r in records])


def dumps_lines(rows):
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


class TestWriteEvalOutputs:
    def test_lines_equal_json_dumps(self, tmp_path):
        report = adversarial_report()
        write_eval_outputs(tmp_path, report)
        transcripts = [{"id": rec.problem.id, "samples": rec.samples} for rec in report.records]
        assert (tmp_path / "mini.transcripts.jsonl").read_bytes() == dumps_lines(transcripts)
        records = [rec.to_dict() for rec in report.records]
        assert (tmp_path / "mini.records.jsonl").read_bytes() == dumps_lines(records)
        assert (tmp_path / "mini.report.json").read_text(encoding="utf-8") == JSON_ENCODER.encode(report.to_dict()) + "\n"
        assert read_transcripts(tmp_path / "mini.transcripts.jsonl") == {
            str(rec.problem.id): rec.samples for rec in report.records
        }

    def test_failed_problems_keep_their_landed_samples(self, tmp_path):
        """p1 fails at its second sample and px at its first: the transcripts
        hold p1's landed sample, with null in each slot not drawn, and no row
        for px; the records and report hold only the scored problems."""
        p1_calls = itertools.count()

        def answer(req):
            if req.user_prompt.endswith("px") or req.user_prompt.endswith("p1") and next(p1_calls) == 1:
                raise ClientError("down")
            return completion("7")

        problems = [make_problem("p0"), make_problem("p1"), make_problem("px"), make_problem("p2")]
        report = evaluate(problems, 3, ScriptedClient(answer), benchmark="mini")
        assert report.failed == 2 and [r.problem.id for r in report.records] == ["p0", "p2"]
        write_eval_outputs(tmp_path, report)
        drawn = completion("7")
        rows = [("p0", [drawn] * 3), ("p1", [drawn, None, None]), ("p2", [drawn] * 3)]
        transcripts = tmp_path / "mini.transcripts.jsonl"
        assert transcripts.read_bytes() == dumps_lines({"id": pid, "samples": samples} for pid, samples in rows)
        assert (tmp_path / "mini.records.jsonl").read_bytes() == dumps_lines(r.to_dict() for r in report.records)
        assert read_transcripts(transcripts) == dict(rows)

    def test_error_leaves_neither_jsonl_file(self, tmp_path):
        report = adversarial_report()
        report.records[-1].token_counts = [float("nan")]
        (tmp_path / "mini.records.jsonl").write_bytes(b"old\n")
        with pytest.raises(ValueError):
            write_eval_outputs(tmp_path, report)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.records.jsonl"]
        assert (tmp_path / "mini.records.jsonl").read_bytes() == b"old\n"

    def test_creates_a_fresh_nested_out_dir(self, tmp_path):
        write_eval_outputs(tmp_path / "a" / "b", adversarial_report())
        names = ["mini.records.jsonl", "mini.report.json", "mini.transcripts.jsonl"]
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == names

    def test_error_removes_the_out_dir_it_created(self, tmp_path):
        report = adversarial_report()
        report.records[-1].token_counts = [float("nan")]
        with pytest.raises(ValueError):
            write_eval_outputs(tmp_path / "a" / "b", report)
        assert list(tmp_path.iterdir()) == []


@contextlib.contextmanager
def failure_logged():
    """An event that is set once ppc.evaluation logs a problem's failure."""
    event = threading.Event()

    class OnFailure(logging.Handler):
        def emit(self, record):
            if "failed entirely" in record.getMessage():
                event.set()

    handler = OnFailure()
    logging.getLogger("ppc.evaluation").addHandler(handler)
    try:
        yield event
    finally:
        logging.getLogger("ppc.evaluation").removeHandler(handler)


class TestScheduler:
    """evaluate's pool spreads (problem, sample) units; once a problem's last
    unit has started, every worker that lands one of its samples scores and
    judges it; rules-only replay runs unthreaded."""

    def test_samples_of_one_problem_run_side_by_side(self):
        barrier = threading.Barrier(4, timeout=5)

        def meet(req):
            barrier.wait()  # times out unless all four samples are in flight at once
            return completion("7")

        report = evaluate([make_problem("p0")], 4, ScriptedClient(meet), parallelism=4)
        assert report.problems == 1 and report.records[0].verdicts == [True] * 4

    def test_failed_problem_stops_its_samples(self, caplog):
        barrier = threading.Barrier(4, timeout=5)

        def answer(req):
            if req.user_prompt.endswith("px"):
                barrier.wait()  # all four workers fail px's first four samples together
                raise ClientError("always down")
            return completion("7")

        client = ScriptedClient(answer)
        problems = [make_problem("px"), make_problem("p0")]
        with caplog.at_level(logging.WARNING, logger="ppc.evaluation"):
            report = evaluate(problems, 16, client, parallelism=4)
        assert report.failed == 1 and [r.problem.id for r in report.records] == ["p0"]
        prompts_sent = [req.user_prompt for req in client.calls]
        assert prompts_sent.count(problems[0].question) == 4  # the in-flight ones; 12 never sent
        assert prompts_sent.count(problems[1].question) == 16
        assert sum("failed entirely" in r.getMessage() for r in caplog.records) == 1

    def test_last_sample_to_land_scores_the_problem(self):
        """The worker whose sample completes a problem's landed prefix builds
        the record, and the record holds sample j at index j whichever call
        lands last."""
        entered = []
        lock = threading.Lock()
        third_entered = threading.Event()

        def answer(req):
            with lock:
                entered.append(req)
                n = len(entered)
            if n == 1:
                # The other worker enters a third call only after landing its
                # p0 sample, so this first p0 call always lands p0's last sample.
                assert third_entered.wait(timeout=5)
            elif n == 3:
                third_entered.set()
            return completion(str(n))

        problems = [make_problem("p0", answer="1"), make_problem("p1", answer="3")]
        report = evaluate(problems, 2, ScriptedClient(answer), parallelism=2)
        assert len(entered) == 4
        for record, expected in zip(report.records, (["1", "2"], ["3", "4"])):
            assert sorted(record.answers) == expected
            assert record.answers == [extract_boxed(s) for s in record.samples]
            assert record.token_counts == [count_tokens(s) for s in record.samples]
            assert record.verdicts == [a == record.problem.gold_answer for a in record.answers]

    def test_gold_verdicts_wait_for_the_last_sample_then_run_side_by_side(self):
        """Four samples land as four wrong forms. Calls 1-2 (samples 0-1) and
        calls 3-4 (samples 2-3) are each held until both are in flight, so
        both workers land a sample after the last unit has started, and both
        judge: the first two gold verdicts must be in flight at once."""
        first_two, last_two, side_by_side = (threading.Barrier(2, timeout=5) for _ in range(3))
        entered, entered_when_judged = [], []
        lock = threading.Lock()

        def answer(req):
            with lock:
                entered.append(req)
                n = len(entered)
            (first_two if n <= 2 else last_two).wait()
            return completion(f"x_{n}")

        def verdict(req):
            with lock:
                entered_when_judged.append(len(entered))
                n = len(entered_when_judged)
            if n <= 2:
                side_by_side.wait()  # times out unless two gold verdicts are in flight at once
            return "NO"

        judge = ScriptedClient(verdict)
        report = evaluate(
            [make_problem("p0", answer="7")],
            4,
            ScriptedClient(answer),
            equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
            parallelism=2,
        )
        assert entered_when_judged == [4] * 4  # no gold verdict before the last sample's call
        record = report.records[0]
        assert sorted(record.answers) == [f"x_{n}" for n in range(1, 5)]
        assert record.verdicts == [False] * 4 and not record.maj_correct

    def test_a_landing_that_drains_after_the_record_is_built_makes_no_call(self):
        """Calls 1-3 land x_1, x_2 and gold's form before the last unit
        starts. Call 4 is held until call 5 has entered, so both of the last
        two units have started; it lands x_3 and its worker holds the first
        gold verdict. Call 5 returns gold's form again (no verdict to make)
        while that verdict is in flight, and its worker is held after the
        call, at the entry of its drain, until the judging worker has made
        the three gold verdicts and left its drain. The held landing then
        completes the problem, whose three distinct wrong forms need
        linkage, and builds the record once: the problem makes as many judge
        calls as at parallelism 1. A landing stored apart from its drain
        would be fed by the judging worker, which would build the record,
        and then build it a second time (9 calls)."""

        held, left, last_entered = threading.Event(), threading.Event(), threading.Event()
        calls = []

        def run(parallelism, client):
            calls.clear()

            def equivalence(pred, gold):
                calls.append((pred, gold))
                if parallelism > 1 and len(calls) == 1:
                    assert held.wait(timeout=5)
                return False

            problems = [make_problem("p0", answer="7")]
            return evaluate(problems, 5, client, equivalence=equivalence, parallelism=parallelism)

        answers = ["x_1", "x_2", "7", "x_3", "7"]
        serial = run(1, ScriptedClient(lambda req, n=iter(answers): completion(next(n))))
        serial_calls = list(calls)
        assert len(serial_calls) == 6  # 3 gold verdicts, 3 linkage pairs

        entered, last_worker = [], []
        lock = threading.Lock()

        def answer(req):
            with lock:
                entered.append(req)
                n = len(entered)
            if n == 4:
                assert last_entered.wait(timeout=5)
            elif n == 5:
                last_worker.append(threading.get_ident())
                last_entered.set()
            return completion(answers[n - 1])

        def leave_after_the_gold_verdicts(frame, event, arg):
            if event == "return" and len(calls) >= 3:
                left.set()
            return leave_after_the_gold_verdicts

        def hold_at_drain(frame, event, arg):
            if event != "call" or frame.f_code.co_name != "drain":
                return None
            if threading.get_ident() not in last_worker:
                return leave_after_the_gold_verdicts
            last_worker.clear()
            held.set()
            assert left.wait(timeout=5)
            return None

        previous = threading.gettrace()
        threading.settrace(hold_at_drain)
        try:
            report = run(2, ScriptedClient(answer))
        finally:
            threading.settrace(previous)
        assert held.is_set() and left.is_set()
        assert len(calls) == len(serial_calls)
        record, expected = report.records[0], serial.records[0]
        assert sorted(record.answers) == sorted(expected.answers) and record.maj_correct == expected.maj_correct

    def test_failed_problem_makes_no_judge_call_after_the_failure(self):
        """Samples 0-1 land as two distinct wrong forms (calls 1-2, held until
        both are in flight). Calls 3-4, samples 2-3, are likewise held
        together, so the last unit has started: call 3 lands x_3 and its
        worker starts the first gold verdict, and call 4, the last sample to
        return, fails while that verdict is in flight. The other gold
        verdicts, claimed after the failure, are refused: each locked step
        of the claim check reads failed[i] before it claims a verdict. A
        problem that fails never has all k samples landed, so its record,
        and any linkage call, is never built; the gold verdicts are what the
        claim check must stop."""
        first_two, last_two = threading.Barrier(2, timeout=5), threading.Barrier(2, timeout=5)
        first_judge_call = threading.Event()
        failed_when_judged = []
        entered = []
        lock = threading.Lock()

        def answer(req):
            with lock:
                entered.append(req)
                n = len(entered)
            (first_two if n <= 2 else last_two).wait()
            if n < 4:
                return completion(f"x_{n}")
            assert first_judge_call.wait(timeout=5)
            raise ClientError("down")  # the last sample fails while the landed prefix is judged

        with failure_logged() as failed:

            def verdict(req):
                failed_when_judged.append(failed.is_set())
                if len(failed_when_judged) == 1:
                    first_judge_call.set()
                    assert failed.wait(timeout=5)
                return "NO"

            judge = ScriptedClient(verdict)
            report = evaluate(
                [make_problem("p0", answer="7")],
                4,
                ScriptedClient(answer),
                equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
                parallelism=2,
            )
        assert report.failed == 1 and report.records == []
        assert len(entered) == 4
        assert failed_when_judged == [False]  # the 2nd and 3rd gold verdicts are never made

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_problem_failing_before_its_last_sample_lands_pays_no_judge_call(self, parallelism):
        """Of four samples, the third call fails. At parallelism 1 that is
        sample k-2, and the last unit never starts; at parallelism 2 the
        fourth call, if it starts before the failure, is held until the
        failure is logged. The two samples that landed earlier are never
        judged."""
        entered = []
        lock = threading.Lock()
        judge = ScriptedClient(lambda req: "NO")

        with failure_logged() as failed:

            def answer(req):
                with lock:
                    entered.append(req)
                    n = len(entered)
                if n == 3:
                    raise ClientError("down")
                if n == 4:
                    assert failed.wait(timeout=5)
                return completion(f"x_{n}")

            report = evaluate(
                [make_problem("p0", answer="7")],
                4,
                ScriptedClient(answer),
                equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
                parallelism=parallelism,
            )
        assert report.failed == 1 and report.records == []
        assert len(entered) == 3 or parallelism == 2 and len(entered) == 4
        assert judge.calls == []

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_failed_linkage_call_fails_only_its_problem(self, parallelism, caplog):
        problems, replay = linkage_fixture()
        queues = {p.question: iter(replay[p.id]) for p in problems}
        lock = threading.Lock()

        def answer(req):
            with lock:
                return next(queues[req.user_prompt])

        with caplog.at_level(logging.WARNING, logger="ppc.evaluation"):
            report = evaluate(
                problems, 5, ScriptedClient(answer), equivalence=down_on_linkage, parallelism=parallelism
            )
        assert report.failed == 1 and [r.problem.id for r in report.records] == ["p0", "p2"]
        assert [r.maj_correct for r in report.records] == [True, False]
        assert sum("p1 failed entirely" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("stopper", ["interrupt", "worker-error"])
    def test_stop_reaches_the_feeding_worker_between_judge_calls(self, stopper):
        if stopper == "interrupt" and not hasattr(signal, "pthread_kill"):
            pytest.skip("needs pthread_kill")

        class Interrupt(BaseException):
            pass

        main = threading.main_thread().ident
        last_gold_verdict = threading.Event()
        judged, p1_calls = [], []
        serial = itertools.count()

        def answer(req):
            if req.user_prompt.endswith("p0"):
                # 2 gold answers and 3 distinct wrong forms: in any sample order
                # the counts cannot decide, so the wrong forms must be linked.
                n = next(serial)
                return completion("7" if n < 2 else f"x_{n}")
            p1_calls.append(req)
            if len(p1_calls) > 1:
                return completion("7")
            assert last_gold_verdict.wait(timeout=5)  # p1's first sample, while p0 is being judged
            if stopper == "worker-error":
                raise RuntimeError("not a client error")
            wait_until(lambda: waiting_for_workers(main))
            signal.pthread_kill(main, signal.SIGUSR1)  # Ctrl-C while the caller waits
            return completion("7")

        def verdict(req):
            judged.append(req)
            if len(judged) == 3:
                last_gold_verdict.set()
                wait_until(lambda: joining_workers(main))  # in flight while the caller stops
            return "NO"

        def interrupt(signum, frame):
            raise Interrupt

        judge = ScriptedClient(verdict)
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupt if stopper == "interrupt" else RuntimeError):
                evaluate(
                    [make_problem("p0", answer="7"), make_problem("p1", answer="7")],
                    5,
                    ScriptedClient(answer),
                    equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
                    parallelism=2,
                )
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert [judge_pair(req)[1] for req in judged] == ["7"] * 3  # p0's gold verdicts
        assert len(judged) == 3  # p0's deferred linkage calls, after the stop, are never made

    @pytest.mark.parametrize("stopper", ["interrupt", "worker-error"])
    def test_stop_reaches_a_replayed_problem_between_judge_calls(self, stopper):
        """Replay with a fallback runs on the same workers: p0 (16 distinct wrong
        forms) is being judged when p1's first judge call stops the run, and
        p0's first gold verdict is the last one it makes."""
        if stopper == "interrupt" and not hasattr(signal, "pthread_kill"):
            pytest.skip("needs pthread_kill")

        class Interrupt(BaseException):
            pass

        main = threading.main_thread().ident
        p0_judging = threading.Event()
        p0_calls, p1_calls = [], []

        def equivalence(pred, gold):
            if gold == "7":  # p0
                p0_calls.append(pred)
                p0_judging.set()
                wait_until(lambda: joining_workers(main))  # in flight while the caller stops
                return False
            p1_calls.append(pred)
            if len(p1_calls) == 1:
                assert p0_judging.wait(timeout=5)
                if stopper == "worker-error":
                    raise RuntimeError("not a client error")
                wait_until(lambda: waiting_for_workers(main))
                signal.pthread_kill(main, signal.SIGUSR1)  # Ctrl-C while the caller waits
            return False

        def interrupt(signum, frame):
            raise Interrupt

        problems = [make_problem("p0", answer="7"), make_problem("p1", answer="8")]
        replay = {
            "p0": [completion(f"x_{j}") for j in range(16)],
            "p1": [completion(f"y_{j}") for j in range(16)],
        }
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupt if stopper == "interrupt" else RuntimeError):
                evaluate(problems, 16, replay=replay, equivalence=equivalence, parallelism=2)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert p0_calls == ["x_0"]  # of its 16 gold verdicts, only the one in flight

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupted_caller_stops_the_workers(self):
        class Interrupt(BaseException):
            pass

        calls, calls_at_interrupt = [], []
        lock = threading.Lock()
        main = threading.main_thread().ident

        def interrupt(signum, frame):
            calls_at_interrupt.append(len(calls))
            raise Interrupt

        def answer(req):
            with lock:
                calls.append(req)
                first = len(calls) == 1
            if first:
                deadline = time.monotonic() + 5
                while not waiting_for_workers(main) and time.monotonic() < deadline:
                    time.sleep(0.001)
                signal.pthread_kill(main, signal.SIGUSR1)  # Ctrl-C while the caller waits
            time.sleep(0.01)
            return completion("7")

        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupt):
                evaluate([make_problem(f"p{i}") for i in range(4)], 16, ScriptedClient(answer), parallelism=2)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert len(calls_at_interrupt) == 1
        assert len(calls) - calls_at_interrupt[0] <= 2  # of 64 units, only calls already running finish

    def test_unexpected_error_stops_the_workers(self):
        calls = []

        def answer(req):
            calls.append(req)
            # The pool's second thread runs the second-submitted worker; the
            # caller must not wait on the first worker to see its error.
            if threading.current_thread().name.endswith("_1"):
                raise RuntimeError("not a client error")
            time.sleep(0.01)
            return completion("7")

        with pytest.raises(RuntimeError):
            evaluate([make_problem(f"p{i}") for i in range(4)], 16, ScriptedClient(answer), parallelism=2)
        assert len(calls) <= 4  # of 64 units

    def test_parallelism_does_not_change_outputs(self, tmp_path):
        problems = [make_problem(f"p{i}", answer=str(i % 3)) for i in range(12)]
        problems.append(make_problem("px"))  # no script: every call fails
        script = {
            p.question: completion(str(i % 4), preplan=f"First for {p.id}. Then {i}. Last {i % 5}.")
            for i, p in enumerate(problems[:-1])
        }
        judge = ScriptedClient(lambda req: "NO")

        def run(parallelism, mode=None):
            kwargs = {
                "equivalence": lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
                "parallelism": parallelism,
            }
            if mode is None:
                report = evaluate(problems, 8, ScriptedClient(script), **kwargs)
            else:
                base_file = tmp_path / f"{mode.value}-{parallelism}.jsonl"
                report = _evaluate_perturbed(problems, 8, ScriptedClient(script), mode, 3, base_file, **kwargs)
            return JSON_ENCODER.encode(report.to_dict()), [r.to_dict() for r in report.records]

        def replay(parallelism):
            transcripts = {r["id"]: r["samples"] for r in serial[1]}
            report = evaluate(
                problems[:-1],
                8,
                replay=transcripts,
                equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
                parallelism=parallelism,
            )
            return [r.to_dict() for r in report.records]

        serial = run(1)
        perturbed = {mode: run(1, mode) for mode in PerturbationMode}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
        try:
            parallel = run(8)
            replayed = [replay(1), replay(8)]
            perturbed_parallel = {mode: run(3, mode) for mode in PerturbationMode}
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial
        assert len(serial[1]) == 12
        assert replayed == [serial[1]] * 2
        assert perturbed_parallel == perturbed
        assert all(len(records) == 12 for _, records in perturbed.values())
        for mode in (PerturbationMode.SHUFFLED, PerturbationMode.MISMATCHED):
            base = [(tmp_path / f"{mode.value}-{n}.jsonl").read_bytes() for n in (1, 3)]
            assert base[0] == base[1] and base[0].count(b"\n") == 12

    def test_first_error_stops_the_perturbed_base_calls(self, tmp_path):
        # p1's base call raises while p0's is held: no base call starts after it.
        problems = [make_problem(f"p{i}", answer="7") for i in range(20)]
        main = threading.main_thread().ident
        deadline = time.monotonic() + 5
        base_calls, joined = [], []

        def answer(req):
            if req.forced_prefix:
                return "rest</plan><execute>\\boxed{7}</execute>"
            pid = req.user_prompt.split()[-1]
            base_calls.append(pid)
            if pid == "p1":
                raise RuntimeError("not a client error")
            joined.append(wait_until(lambda: joining_workers(main), deadline - time.monotonic()))
            return completion("7", preplan=f"own analysis {pid}.")

        client = ScriptedClient(answer)
        with pytest.raises(RuntimeError):
            _evaluate_perturbed(
                problems, 2, client, PerturbationMode.SHUFFLED, 1, tmp_path / "base.jsonl", parallelism=4
            )
        assert "p1" in base_calls and set(base_calls) <= {"p0", "p1", "p2", "p3"}
        assert joined and all(joined)  # each held call returned only after the caller had the error
        assert not any(req.forced_prefix for req in client.calls)
        assert not any(tmp_path.iterdir())  # the base pass never returned

    def test_records_match_their_samples_under_contention(self):
        # Every call draws the next spelling, so samples of one problem differ
        # and a prefix fed out of order, twice or by two workers at once
        # would misalign a record's answers with its samples.
        serial = itertools.count()
        spellings = [s for group in SPELLINGS.values() for s in group] + [None]

        def answer(req):
            spelling = spellings[next(serial) % len(spellings)]
            return "no final box" if spelling is None else completion(spelling)

        judge = class_map_judge()
        equivalence = lambda pred, gold: answers_equivalent(pred, gold, fallback=judge)
        problems = [make_problem(f"p{i}", answer=SPELLINGS["half"][i % 6]) for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = evaluate(problems, 16, ScriptedClient(answer), equivalence=equivalence, parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        assert [r.problem.id for r in report.records] == [p.id for p in problems]
        for record in report.records:
            gold = record.problem.gold_answer
            answers = [extract_boxed(s) for s in record.samples]
            assert record.answers == [None if a is None else normalize_answer(a) for a in answers]
            assert record.verdicts == [a is not None and equivalence(a, gold) for a in answers]
            assert record.maj_correct == maj_at_k(answers, gold, equivalence)
            assert record.pass_correct == pass_at_k(answers, gold, equivalence)

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_client_draws_only_the_empty_slots_of_replay_rows(self, parallelism):
        problems = [make_problem(f"p{i}") for i in range(4)]
        answers = {p.question: completion(a) for p, a in zip(problems, ["7", "3", "seven", "7"])}
        judge = ScriptedClient([("Answer A: seven", "YES")], default="NO")
        equivalence = partial(judge_equivalence, judge)

        def run(replay, client):
            report = evaluate(problems, 4, client, replay=replay, equivalence=equivalence, parallelism=parallelism)
            return [r.to_dict() for r in report.records]

        live = run(None, ScriptedClient(lambda req: answers[req.user_prompt]))
        samples = {row["id"]: row["samples"] for row in live}
        replay = {
            "p0": samples["p0"] + ["past k"],  # full: no call
            "p1": samples["p1"][:1],  # short of k: three calls
            "p2": [samples["p2"][0], None, samples["p2"][2]],  # a None slot and one missing: two calls
        }  # p3 has no row: four calls
        policy = ScriptedClient(lambda req: answers[req.user_prompt])
        assert run(replay, policy) == live
        missing = {problems[1]: 3, problems[2]: 2, problems[3]: 4}
        want = [replace(DEFAULT_EVAL_SAMPLING, user_prompt=p.question) for p, n in missing.items() for _ in range(n)]
        assert sorted(policy.calls, key=lambda req: req.user_prompt) == sorted(want, key=lambda req: req.user_prompt)
        for problem, drawn in (("p1", 1), ("p2", 2), ("p3", 0)):
            with pytest.raises(ValueError, match=f"^replay has {drawn} samples for '{problem}', need 4$"):
                run(replay, None)
            replay[problem] = samples[problem]

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_prefixes_force_only_the_drawn_slots_of_replay_rows(self, parallelism):
        problems = [make_problem(f"p{i}") for i in range(4)]
        prefixes = {p.id: forced_prefix_for(f"plan of {p.id}.") for p in problems[:3]}  # p3 has none
        continuation = "go.</plan>\n<execute>\\boxed{7}</execute>"
        policy = ScriptedClient(lambda req: continuation if req.forced_prefix else completion("3"))
        replay = {
            "p0": ["kept 0", "kept 1", "kept 2"],  # full: no call
            "p1": ["kept 0", None],  # a None slot and one missing: two forced calls
            "p3": ["kept 0"],  # two unforced calls
        }  # p2 has no row: three forced calls
        report = evaluate(problems, 3, policy, prefixes=prefixes, replay=replay, parallelism=parallelism)
        assert dict(report.transcripts) == {
            "p0": replay["p0"],
            "p1": ["kept 0"] + [prefixes["p1"] + continuation] * 2,
            "p2": [prefixes["p2"] + continuation] * 3,
            "p3": ["kept 0"] + [completion("3")] * 2,
        }
        sent = Counter((req.user_prompt, req.forced_prefix) for req in policy.calls)
        q = [p.question for p in problems]
        assert sent == {(q[1], prefixes["p1"]): 2, (q[2], prefixes["p2"]): 3, (q[3], None): 2}

    def test_rules_only_replay_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rules-only replay started a thread")

        monkeypatch.setattr(ppc.clients, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        problems, replay = replay_fixture()
        report = evaluate(problems, 16, replay=replay, parallelism=8)
        assert report.maj_at_k == 75.00 and report.problems == 4


def judge_pair(req):
    """(Answer A, Answer B) of an equivalence prompt."""
    lines = dict(line.split(": ", 1) for line in req.user_prompt.splitlines() if line.startswith("Answer "))
    return lines["Answer A"], lines["Answer B"]


def down_on_linkage(pred, gold):
    """A custom fallback that says NO to every gold verdict and fails on any
    pair of two wrong answers."""
    if gold != "7":
        raise ClientError("judge down")
    return False


def linkage_fixture():
    """3 problems x 5 samples, gold 7. In any sample order, p1's counts cannot
    decide its vote (2 gold answers, 3 distinct wrong ones), so it links its
    wrong forms; p0 and p2's counts decide theirs."""
    answers = {
        "p0": ["7"] * 5,
        "p1": ["7", "x_1", "7", "x_2", "x_3"],
        "p2": ["x_1", "7", "x_1", "7", "x_1"],
    }
    problems = [make_problem(pid, answer="7") for pid in answers]
    return problems, {pid: [completion(a) for a in group] for pid, group in answers.items()}


# Rule-equal spellings of a few values, plus spellings only a judge can
# settle; CLASS_OF maps each normalized form to its value.
SPELLINGS = {
    "half": ["0.5", "1/2", "\\frac{1}{2}", "{1/2}", "\\dfrac{2}{4}", "\\sqrt{1/4}"],
    "three_quarters": ["0.75", "3/4", "\\frac{3}{4}", "{3/4}", "\\frac{\\sqrt{9}}{4}"],
    "two": ["2", "2.0", "\\frac{4}{2}", "{2}", "\\sqrt{4}"],
    "x_plus_one": ["x+1", "1+x", "{x+1}"],
    "seven": ["7", "7.00", "$7$"],
}
CLASS_OF = {normalize_answer(s): value for value, group in SPELLINGS.items() for s in group}


def class_map_judge():
    return ScriptedClient(
        lambda req: "YES" if len({CLASS_OF[normalize_answer(s)] for s in judge_pair(req)}) == 1 else "NO"
    )


def agreement_problems(count: int = 240):
    """Seeded replay problems, k from 1 to 64: random answers, or two tied classes."""
    rng = random.Random(7)
    values = list(SPELLINGS)
    out = []
    for i in range(count):
        if i % 3 == 0:
            a, b = rng.sample(values, 2)
            answers = [rng.choice(SPELLINGS[(a, b)[j % 2]]) for j in range(2 * rng.randint(1, 32))]
            rng.shuffle(answers)
        else:
            pool = rng.sample(values, rng.randint(1, len(values)))
            answers = [
                None if rng.random() < 0.15 else rng.choice(SPELLINGS[rng.choice(pool)])
                for _ in range(rng.randint(1, 64))
            ]
        gold = rng.choice(SPELLINGS[rng.choice(values)])
        samples = [completion(a) if a is not None else "no final box" for a in answers]
        out.append((make_problem(f"p{i}", answer=gold), answers, samples))
    return out


@pytest.mark.parametrize("with_judge", [False, True], ids=["rules-only", "class-map-judge"])
def test_evaluate_agrees_with_reference_metrics(with_judge):
    """The table scorer's verdicts, maj and pass equal answers_equivalent,
    maj_at_k and pass_at_k over the raw answers."""
    problems = agreement_problems()
    for problem, answers, samples in problems:
        reference = answers_equivalent
        equivalence = None
        if with_judge:
            judge = class_map_judge()
            equivalence = reference = lambda pred, gold: answers_equivalent(pred, gold, fallback=judge)
        gold = problem.gold_answer
        k = len(samples)
        record = evaluate([problem], k, replay={problem.id: samples}, equivalence=equivalence).records[0]
        assert record.answers == [None if a is None else normalize_answer(a) for a in answers]
        assert record.verdicts == [a is not None and reference(a, gold) for a in answers], problem.id
        assert record.maj_correct == maj_at_k(answers, gold, reference), problem.id
        assert record.pass_correct == pass_at_k(answers, gold, reference), problem.id


def chunkings(n, rng):
    """Chunk sizes that sum to n: all at once, one by one, and three random splits."""
    yield [n]
    yield [1] * n
    for _ in range(3):
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        yield sizes


def fed_in_chunks(gold, equivalence, answers, sizes):
    """The scorer's forms, verdicts and vote after the answers are fed in
    these chunk sizes, each chunk's new forms judged before the next, and
    pass@k as `EvalRecord` reads it from the verdicts."""
    scorer = _Scorer(gold, equivalence)
    start = 0
    for size in sizes:
        for row in scorer.extend(answers[start : start + size]):
            scorer.judge(row)
        start += size
    forms, verdicts, maj = scorer.result()
    return forms, verdicts, maj, any(verdicts)


def scored_with_calls(gold, verdict, answers):
    """The scorer's result over the answers in one batch, and the (pred, gold)
    pairs it asked the fallback."""
    calls = []

    def counting(pred, other):
        calls.append((pred, other))
        return verdict(pred, other)

    return fed_in_chunks(gold, counting, answers, [len(answers)]), calls


def class_map(pred, gold):
    return CLASS_OF[normalize_answer(pred)] == CLASS_OF[normalize_answer(gold)]


def non_transitive(pred, gold):
    """Depends only on the normalized forms, but is not transitive."""
    return sum(map(ord, normalize_answer(pred) + normalize_answer(gold))) % 3 == 0


class TestScorer:
    """_Scorer gives the same table, verdicts, votes and judge calls however
    a problem's answers are chunked."""

    @pytest.mark.parametrize("with_judge", [False, True], ids=["rules-only", "class-map-judge"])
    def test_every_chunking_agrees_with_reference_metrics(self, with_judge):
        rng = random.Random(3)
        for problem, answers, _ in agreement_problems(120):
            gold = problem.gold_answer
            equivalence, reference = None, answers_equivalent
            if with_judge:
                judge = class_map_judge()
                equivalence = reference = lambda pred, gold: answers_equivalent(pred, gold, fallback=judge)
            expected = (
                [None if a is None else normalize_answer(a) for a in answers],
                [a is not None and reference(a, gold) for a in answers],
                maj_at_k(answers, gold, reference),
                pass_at_k(answers, gold, reference),
            )
            for sizes in chunkings(len(answers), rng):
                asked = []

                def counting(pred, other):
                    asked.append(frozenset(map(normalize_answer, (pred, other))))
                    return equivalence(pred, other)

                got = fed_in_chunks(gold, equivalence and counting, answers, sizes)
                assert got == expected, (problem.id, sizes)
                assert len(asked) == len(set(asked)), (problem.id, sizes)  # no pair of forms twice

    @pytest.mark.parametrize("with_judge", [False, True], ids=["rules-only", "class-map-judge"])
    @pytest.mark.parametrize(
        "answers,maj",
        [
            (["2", "7", "2", "7", "x+1", "x+1"], False),  # the first wrong form wins the 3-way tie
            (["7", "2", "7", "2", "x+1", "x+1"], True),
            (["x+1", "7", "2", "7", "2", "x+1", None], False),
            (["2", "7", "7", "2", "2", "x+1", "7", "x+1", "x+1"], False),
        ],
    )
    def test_a_tie_goes_to_the_earliest_class(self, answers, maj, with_judge):
        """Two wrong forms tie the correct class, so which wrong form ranks
        highest decides the vote: the earliest, not the last to reach the count."""
        rng = random.Random(5)
        equivalence = class_map if with_judge else None
        reference = answers_equivalent
        if with_judge:
            judge = class_map_judge()
            reference = lambda pred, gold: answers_equivalent(pred, gold, fallback=judge)  # noqa: E731
        assert maj_at_k(answers, "7", reference) == maj
        for sizes in chunkings(len(answers), rng):
            assert fed_in_chunks("7", equivalence, answers, sizes)[2] == maj, sizes

    def test_every_chunking_makes_the_batch_judge_calls(self):
        calls = []

        def verdict(pred, gold):
            # Depends only on the normalized forms, but is not transitive.
            calls.append((pred, gold))
            return sum(map(ord, normalize_answer(pred) + normalize_answer(gold))) % 3 == 0

        def reference(pred, gold):
            return normalize_answer(pred) == normalize_answer(gold) or verdict(pred, gold)

        rng = random.Random(4)
        for problem, answers, _ in agreement_problems(120):
            gold = problem.gold_answer
            assert fed_in_chunks(gold, verdict, answers, [len(answers)])[2:] == (
                maj_at_k(answers, gold, reference),
                pass_at_k(answers, gold, reference),
            )
            calls = []
            batch = fed_in_chunks(gold, verdict, answers, [len(answers)])
            batch_calls = calls
            for sizes in chunkings(len(answers), rng):
                calls = []
                assert fed_in_chunks(gold, verdict, answers, sizes) == batch, (problem.id, sizes)
                assert calls == batch_calls, (problem.id, sizes)

    @pytest.mark.parametrize(
        "gold,answers",
        [
            # 4 correct answers (one judged) outrank the 2 wrong ones together
            ("0.5", ["1/2", "\\sqrt{1/4}", "\\sqrt{1/4}", "{1/2}", "3/4", "x+1", None]),
            # one wrong form (3 answers) outranks the only correct answer
            ("7", ["x+1", "x+1", "1+x", "{x+1}", "7.00", "\\sqrt{4}", None]),
        ],
        ids=["gold-outranks-all-wrong", "one-wrong-form-outranks-gold"],
    )
    def test_counts_that_decide_make_one_call_per_distinct_form(self, gold, answers):
        distinct = {normalize_answer(a) for a in answers if a is not None} - {normalize_answer(gold)}
        for order in set(itertools.permutations(answers)):
            _, calls = scored_with_calls(gold, class_map, list(order))
            assert len(calls) == len(distinct), order
            assert {b for _, b in calls} == {gold}, order  # gold verdicts only

    @pytest.mark.parametrize("judge", ["class-map", "non-transitive"])
    def test_calls_are_gold_verdicts_and_wrong_pairs_within_the_bound(self, judge):
        verdict = class_map if judge == "class-map" else non_transitive
        linked_problems = 0
        for problem, answers, _ in agreement_problems(120):
            gold = problem.gold_answer
            (forms, verdicts, _, _), calls = scored_with_calls(gold, verdict, answers)
            present = {f for f in forms if f is not None}
            wrong = {f for f, right in zip(forms, verdicts) if f is not None and not right}
            gold_calls = [pair for pair in calls if pair[1] == gold]
            linkage = [pair for pair in calls if pair[1] != gold]
            assert len(gold_calls) == len(present - {normalize_answer(gold)}), problem.id
            for pair in linkage:  # no call pairs a wrong form with the correct class
                assert {normalize_answer(s) for s in pair} <= wrong, (problem.id, pair)
            assert len(calls) <= len(present) + len(wrong) * (len(wrong) - 1) // 2, problem.id
            linked_problems += bool(linkage)
        assert linked_problems  # the bound is exercised on linked problems, not only decided ones


class TestReportAggregates:
    """Every report aggregate, and a record's pass, is read from the records."""

    def test_aggregates_recomputed_from_random_records(self):
        rng = random.Random(11)
        for trial in range(200):
            records = []
            for i in range(rng.randint(0, 6)):
                k = rng.randint(1, 5)
                records.append(
                    EvalRecord(
                        problem=make_problem(f"p{i}"),
                        samples=["s"] * k,
                        answers=["7"] * k,
                        verdicts=[rng.random() < 0.3 for _ in range(k)],
                        maj_correct=rng.random() < 0.5,
                        token_counts=[rng.randint(0, 5000) for _ in range(k)],
                    )
                )
            report = EvalReport("b", 5, rng.randint(0, 3), records, [])
            for rec in records:
                assert rec.pass_correct == any(rec.verdicts) == rec.to_dict()["pass_correct"], trial
            n = len(records)
            counts = [c for rec in records for c in rec.token_counts]
            mean = sum(counts) / len(counts) if counts else None
            expected = {
                "benchmark": "b",
                "k": 5,
                "problems": n,
                "failed": report.failed,
                "maj_at_k": round(100.0 * sum(r.maj_correct for r in records) / n, 2) if n else None,
                "pass_at_k": round(100.0 * sum(any(r.verdicts) for r in records) / n, 2) if n else None,
                "mean_tokens": mean,
                "mean_tokens_thousands": None if mean is None else round(mean / 1000.0, 2),
            }
            assert report.to_dict() == expected, trial
            assert {key: getattr(report, key) for key in expected} == expected, trial

    def test_aggregates_follow_the_records(self):
        rec = EvalRecord(make_problem("p0"), ["a b"], ["7"], [False], False, [2])
        report = EvalReport("b", 1, 0, [rec], [])
        assert (report.maj_at_k, report.pass_at_k, rec.pass_correct) == (0.0, 0.0, False)
        rec.verdicts[0] = rec.maj_correct = True
        report.records.append(EvalRecord(make_problem("p1"), ["c d e f"], ["7"], [False], False, [4]))
        assert (report.problems, report.maj_at_k, report.pass_at_k, report.mean_tokens) == (2, 50.0, 50.0, 3.0)
        assert rec.pass_correct


class TestReportTokens:
    """Report token means come from the records' whitespace token counts."""

    def report(self, samples):
        problems = [make_problem("p0")]
        return evaluate(problems, len(samples), replay={"p0": samples})

    def test_basic(self):
        assert self.report(["a b c"]).mean_tokens == 3

    def test_empty(self):
        report = evaluate([], 1, replay={})
        assert report.mean_tokens is None and report.mean_tokens_thousands is None

    def test_mean_across_samples(self):
        assert self.report(["a b", "c d e f"]).mean_tokens == 3.0

    def test_thousands_rounding(self):
        report = self.report([" ".join(["w"] * 2410)])
        assert report.mean_tokens_thousands == 2.41
