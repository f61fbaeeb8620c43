import logging
import random
import signal
import sys
import threading
import time

import pytest
from conftest import make_problem

import ppc.clients
import ppc.evaluation
from ppc import prompts
from ppc._text import count_tokens
from ppc.clients import AttributionVerdict, Facet, ProtocolError, ScriptedClient
from ppc.evaluation import (
    PerturbationMode,
    PerturbationSpec,
    PoolTooSmall,
    aggregate_attribution,
    answers_equivalent,
    evaluate,
    forced_prefix_for,
    maj_at_k,
    normalize_answer,
    pass_at_k,
    perturb_preplan,
)
from ppc.trajectory import Violation, boxed_or_none, check_format


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
        ],
    )
    def test_pipeline(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_division_by_zero_left_as_text(self):
        assert normalize_answer("1/0") == "1/0"


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
        spec = PerturbationSpec(mode=PerturbationMode.SHUFFLED, seed=5)
        [prefix] = perturb_preplan([text], spec)
        assert prefix.startswith("<preplan>") and prefix.endswith("</preplan>\n<plan>")
        inner = prefix[len("<preplan>") : -len("</preplan>\n<plan>")]
        assert sorted(inner.replace("! ", "!|").replace("? ", "?|").replace(". ", ".|").split("|")) == sorted(
            ["First point.", "Second point!", "Third point?", "Fourth."]
        )

    def test_shuffled_deterministic(self):
        spec = PerturbationSpec(mode=PerturbationMode.SHUFFLED, seed=5)
        t = ["A one. B two. C three. D four. E five."]
        assert perturb_preplan(t, spec) == perturb_preplan(t, spec)

    def test_mismatched_is_a_derangement(self):
        pool = [f"preplan number {i}." for i in range(6)]
        spec = PerturbationSpec(mode=PerturbationMode.MISMATCHED, seed=3)
        for own, prefix in zip(pool, perturb_preplan(pool, spec)):
            assert own not in prefix

    def test_mismatched_needs_pool(self):
        spec = PerturbationSpec(mode=PerturbationMode.MISMATCHED, seed=1)
        for preplans in ([], ["x"]):
            with pytest.raises(PoolTooSmall):
                perturb_preplan(preplans, spec)

    def test_generic_constant(self):
        spec = PerturbationSpec(mode=PerturbationMode.GENERIC, seed=0)
        prefixes = set(perturb_preplan([f"text {i}" for i in range(5)], spec))
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
        # 8 distinct wrong spellings, each twice: 8 verdicts + C(8, 2) linkage pairs
        wrong = [f"x_{i}" for i in range(8)]
        spellings = wrong * 2 if interleaved else [w for w in wrong for _ in range(2)]
        judge = ScriptedClient(lambda req: "NO")
        report = evaluate(
            [make_problem("p0", answer="7")],
            16,
            replay={"p0": [completion(s) for s in spellings]},
            equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
        )
        assert report.records[0].verdicts == [False] * 16
        assert len(judge.calls) == 36

    def test_judge_memo_keyed_by_normalized_pair(self):
        # 1/2 spelled three rule-equal ways beside five distinct wrong values:
        # 6 forms, so 6 verdicts + C(6, 2) linkage pairs
        spellings = ["x_0", "0.5", "x_1", "1/2", "x_2", "\\frac{1}{2}", "x_3", "0.5"]
        spellings += ["x_4", "1/2", "x_0", "\\frac{1}{2}", "x_1", "x_2", "x_3", "x_4"]
        judge = ScriptedClient(lambda req: "NO")
        report = evaluate(
            [make_problem("p0", answer="7")],
            16,
            replay={"p0": [completion(s) for s in spellings]},
            equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
        )
        record = report.records[0]
        assert record.verdicts == [False] * 16
        assert not record.maj_correct and not record.pass_correct
        assert len(judge.calls) == 21
        pairs = [judge_pair(req) for req in judge.calls]
        assert ("0.5", "7") in pairs  # the form's first raw spelling
        assert not {"1/2", "\\frac{1}{2}"} & {s for pair in pairs for s in pair}

    def test_scripted_client_deterministic_report(self):
        problems = [make_problem("p0", answer="7")]
        client = ScriptedClient([("question", completion("7"))])
        a = evaluate(problems, 3, client).to_json()
        b = evaluate(problems, 3, client).to_json()
        assert a == b

    def test_failed_problem_excluded_and_counted(self):
        problems = [make_problem("p0", answer="7"), make_problem("px", answer="7")]
        client = ScriptedClient([(problems[0].question, completion("7"))])
        report = evaluate(problems, 2, client)
        assert report.problems == 1
        assert report.failed == 1
        assert report.pass_at_k == 100.00

    def test_perturbed_eval_forces_prefix(self):
        problems = [make_problem(f"p{i}", answer="7") for i in range(2)]
        base = {p.question: completion("7", preplan=f"own analysis {p.id}.") for p in problems}
        client = ScriptedClient(lambda req: (
            "rest</plan><execute>\\boxed{7}</execute>" if req.forced_prefix else base[req.user_prompt]
        ))
        spec = PerturbationSpec(mode=PerturbationMode.MISMATCHED, seed=1)
        report = evaluate(problems, 2, client, mode=spec)
        forced = [r for r in client.calls if r.forced_prefix]
        assert len(forced) == 4  # 2 problems x k=2
        for call in forced:
            # every forced prefix carries some other problem's preplan
            own = f"own analysis {call.user_prompt.split()[-1]}."
            assert own not in call.forced_prefix
            assert call.forced_prefix.startswith("<preplan>")

    def test_perturbation_needs_live_generation(self):
        problems = [make_problem(f"p{i}", answer="7") for i in range(2)]
        replay = {p.id: [completion("7")] for p in problems}
        spec = PerturbationSpec(mode=PerturbationMode.MISMATCHED, seed=1)
        with pytest.raises(ValueError, match="replay"):
            evaluate(problems, 1, mode=spec, replay=replay)

    def test_base_preplan_read_without_boxed_answer(self):
        # A base sample cut off before its \boxed (NO_BOXED) still carries a complete preplan.
        problems = [make_problem(f"p{i}", answer="7") for i in range(2)]
        base = {
            p.question: completion("7", preplan=f"own analysis {p.id}.").replace("\\boxed{7}", "")
            for p in problems
        }
        client = ScriptedClient(lambda req: (
            "rest</plan><execute>\\boxed{7}</execute>" if req.forced_prefix else base[req.user_prompt]
        ))
        spec = PerturbationSpec(mode=PerturbationMode.SHUFFLED, seed=1)
        assert all(check_format(b).violations == (Violation.NO_BOXED,) for b in base.values())
        evaluate(problems, 1, client, mode=spec)
        forced = sorted(r.forced_prefix for r in client.calls if r.forced_prefix)
        assert forced == [forced_prefix_for(f"own analysis {p.id}.") for p in problems]

    def test_samples_required_in_replay(self):
        problems = [make_problem("p0")]
        with pytest.raises(ValueError):
            evaluate(problems, 4, replay={"p0": [completion("7")]})


class TestScheduler:
    """evaluate's pool spreads (problem, sample) units; rules-only replay runs unthreaded."""

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
                raise ProtocolError("always down")
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
            assert record.answers == [boxed_or_none(s) for s in record.samples]
            assert record.token_counts == [count_tokens(s) for s in record.samples]
            assert record.verdicts == [a == record.problem.gold_answer for a in record.answers]

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

    def test_parallelism_does_not_change_outputs(self):
        problems = [make_problem(f"p{i}", answer=str(i % 3)) for i in range(12)]
        problems.append(make_problem("px"))  # no script: every call fails
        script = {p.question: completion(str(i % 4)) for i, p in enumerate(problems[:-1])}
        judge = ScriptedClient(lambda req: "NO")

        def run(parallelism):
            report = evaluate(
                problems,
                8,
                ScriptedClient(script),
                equivalence=lambda pred, gold: answers_equivalent(pred, gold, fallback=judge),
                parallelism=parallelism,
            )
            return report.to_json(), [r.to_dict() for r in report.records]

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
        try:
            parallel = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial
        assert len(serial[1]) == 12

    def test_rules_only_replay_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rules-only replay started a thread")

        monkeypatch.setattr(ppc.clients, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(ppc.evaluation, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        problems, replay = replay_fixture()
        report = evaluate(problems, 16, replay=replay, parallelism=8)
        assert report.maj_at_k == 75.00 and report.problems == 4


def waiting_for_workers(thread_id):
    """Whether the thread is blocked on a lock with every pool worker started."""
    frame = sys._current_frames().get(thread_id)
    if frame is None or frame.f_code.co_name != "wait":
        return False
    while frame is not None and frame.f_code.co_name != "submit":
        frame = frame.f_back
    return frame is None


def judge_pair(req):
    """(Answer A, Answer B) of an equivalence prompt."""
    lines = dict(line.split(": ", 1) for line in req.user_prompt.splitlines() if line.startswith("Answer "))
    return lines["Answer A"], lines["Answer B"]


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


class TestAttributionAggregate:
    def make(self, what, facet=None):
        return AttributionVerdict(raw_response="", is_what_to_solve=what, facet=facet)

    def test_empty(self):
        counts = aggregate_attribution([])
        assert counts.total == 0
        assert all(v == 0 for v in counts.facets.values())

    def test_counting(self):
        verdicts = [
            self.make(True, Facet.CONSTRAINTS),
            self.make(True, Facet.CONSTRAINTS),
            self.make(True, Facet.PITFALLS),
            self.make(False),
            self.make(False),
        ]
        counts = aggregate_attribution(verdicts)
        assert counts.what_to_solve == 3
        assert counts.how_to_solve == 2
        assert counts.facets == {
            "problem_type": 0,
            "tools": 0,
            "constraints": 2,
            "pitfalls": 1,
        }
        assert sum(counts.facets.values()) == counts.what_to_solve

    def test_unparseable_tallied_separately(self):
        counts = aggregate_attribution([self.make(False), None])
        assert counts.unparseable == 1
        assert counts.total == 1
