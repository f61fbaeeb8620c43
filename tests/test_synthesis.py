import gc
import json
import re
import sys
import threading
import time
import weakref
from dataclasses import replace

import pytest
from conftest import (
    clean_preplan,
    default_stage_texts,
    joining_workers,
    make_problem,
    make_suite,
    wait_until,
)

import ppc.synthesis
from ppc import prompts
from ppc.clients import ClientError, ScriptedClient
from ppc.evaluation import answers_equivalent
from ppc.spoiler import DropReason
from ppc.synthesis import (
    STAGES,
    DatasetSummary,
    GeneratorSuite,
    ProblemRecord,
    StageFailure,
    apply_filter,
    build_dataset,
    load_problems,
    synthesize,
)
from ppc.trajectory import check_format

BOUNDS = (150, 1500)


def in_chain(thread_id):
    """Whether the thread is inside one of build_dataset's chains (its `run`)."""
    frame = sys._current_frames().get(thread_id)
    while frame is not None:
        code = frame.f_code
        if code.co_name == "run" and code.co_filename == ppc.synthesis.__file__:
            return True
        frame = frame.f_back
    return False


def synth_one(problem, stage_texts=None, trace=None):
    suite = make_suite(stage_texts or default_stage_texts([problem]), trace=trace)
    return synthesize(problem, suite)


class TestSynthesize:
    def test_stage_texts_taken_verbatim(self):
        p = make_problem("p1")
        texts = default_stage_texts([p])[p.question]
        rec = synth_one(p, {p.question: texts})
        assert rec.preplan == texts["preplan"]
        assert rec.plan == texts["plan"]
        assert rec.raw_solution == texts["raw"]
        assert rec.execute == texts["execute"]

    def test_stage_prompts_see_only_their_inputs(self):
        p = make_problem("p1")
        trace = []
        rec = synth_one(p, trace=trace)
        prompts_by_role = {role: r.user_prompt for role, r in trace}
        assert p.question in prompts_by_role["preplan_gen"]
        assert rec.plan not in prompts_by_role["preplan_gen"]
        assert rec.preplan in prompts_by_role["plan_gen"]
        # the executor stages must never see the preplan
        assert rec.preplan not in prompts_by_role["executor"]
        assert rec.preplan not in prompts_by_role["cleanup"]
        assert rec.plan in prompts_by_role["executor"]
        assert rec.raw_solution in prompts_by_role["cleanup"]

    def test_stage_order_strictly_sequential(self):
        trace = []
        synth_one(make_problem("p1"), trace=trace)
        assert [role for role, _ in trace] == [
            "preplan_gen",
            "plan_gen",
            "executor",
            "cleanup",
        ]

    def test_stage_failure_names_stage(self):
        p = make_problem("p1")

        class Boom:
            def generate(self, req):
                raise ClientError("no route", retryable=True)

        texts = default_stage_texts([p])[p.question]
        suite = GeneratorSuite(
            preplan_gen=ScriptedClient([(p.question, texts["preplan"])]),
            plan_gen=Boom(),
            executor=ScriptedClient([]),
            cleanup=ScriptedClient([]),
        )
        with pytest.raises(StageFailure) as err:
            synthesize(p, suite)
        assert err.value.stage == "plan"
        assert isinstance(err.value.__cause__, ClientError) and err.value.__cause__.retryable
        assert err.value.texts == {"preplan": texts["preplan"]}

    def test_resumes_after_the_texts_it_is_given(self):
        p = make_problem("p1")
        texts = default_stage_texts([p])[p.question]
        trace = []
        held = {"preplan": "PREPLAN-HELD", "plan": "PLAN-HELD"}
        rec = synthesize(p, make_suite({p.question: texts}, trace=trace), texts=held)
        assert [role for role, _ in trace] == ["executor", "cleanup"]
        assert "PLAN-HELD" in trace[0][1].user_prompt
        assert (rec.preplan, rec.plan, rec.execute) == ("PREPLAN-HELD", "PLAN-HELD", texts["execute"])
        assert held == {"preplan": "PREPLAN-HELD", "plan": "PLAN-HELD"}


def filtered(problem, **overrides):
    texts = default_stage_texts([problem])[problem.question]
    texts.update(overrides)
    rec = synth_one(problem, {problem.question: texts})
    return apply_filter(rec, bounds=BOUNDS, equivalence=answers_equivalent)


class TestApplyFilter:
    def test_clean_record_kept(self):
        decision = filtered(make_problem("p1"))
        assert decision.keep and decision.reason is None
        assert decision.answer_correct is True
        assert decision.spoiler.score <= 2

    def test_short_preplan_dropped(self):
        decision = filtered(make_problem("p1"), preplan="brief analysis only.")
        assert decision.reason == DropReason.TOO_SHORT

    def test_spoiled_preplan_dropped_despite_correct_answer(self):
        spoiled = clean_preplan() + " this yields 1001. we get $a$ $b$ $c$ $d$."
        decision = filtered(make_problem("p1"), preplan=spoiled)
        assert decision.reason == DropReason.SPOILER
        assert decision.answer_correct is True

    def test_wrong_answer_dropped(self):
        decision = filtered(make_problem("p1", answer="9"))
        # stage fixtures answer with the gold, so fake a wrong final answer
        decision2 = filtered(
            make_problem("p2"),
            execute="1. Set up: x.\nFinal Answer: \\boxed{999}",
        )
        assert decision.keep
        assert decision2.reason == DropReason.WRONG_ANSWER

    def test_missing_boxed_answer(self):
        decision = filtered(make_problem("p1"), execute="1. Solve: done. answer seven")
        assert decision.reason == DropReason.NO_ANSWER

    def test_execute_must_end_with_boxed(self):
        decision = filtered(
            make_problem("p1"),
            execute="Final Answer: \\boxed{7} (see above)",
        )
        assert decision.reason == DropReason.NOT_BOXED_FINAL

    def test_stray_tag_in_segment_renders_malformed(self):
        decision = filtered(
            make_problem("p1"),
            plan="1. Plan with a stray <execute> token.\n2. More.",
        )
        assert decision.reason == DropReason.MALFORMED

    def test_answer_judged_once(self):
        calls = []

        def counting(pred, gold):
            calls.append((pred, gold))
            return answers_equivalent(pred, gold)

        rec = synth_one(make_problem("p1"))
        assert apply_filter(rec, bounds=BOUNDS, equivalence=counting).keep
        assert calls == [("7", "7")]

    def test_refiltering_kept_record_keeps_it(self):
        rec = synth_one(make_problem("p1"))
        first = apply_filter(rec, bounds=BOUNDS, equivalence=answers_equivalent)
        assert first.keep
        assert apply_filter(rec, bounds=BOUNDS, equivalence=answers_equivalent) == first


class TestBuildDataset:
    def make_corpus(self, n=10, bad=3):
        problems = [make_problem(f"p{i}") for i in range(n)]
        texts = default_stage_texts(problems)
        for p in problems[:bad]:
            texts[p.question]["preplan"] = "too short to keep."
        return problems, texts

    def run(self, tmp_path, problems, texts, parallelism=1, seed=0):
        suite = make_suite(texts)
        out = tmp_path / f"run-{parallelism}-{seed}"
        summary = build_dataset(
            problems,
            suite,
            out,
            equivalence=answers_equivalent,
            bounds=BOUNDS,
            seed=seed,
            parallelism=parallelism,
        )
        return summary, out

    def test_retention_and_files(self, tmp_path):
        problems, texts = self.make_corpus()
        summary, out = self.run(tmp_path, problems, texts)
        assert summary.problems == 10
        assert summary.kept == 7
        assert summary.retention == 0.7
        assert len((out / "sft.jsonl").read_text().splitlines()) == 7
        assert len((out / "rejects.jsonl").read_text().splitlines()) == 3
        assert summary.drop_reasons == {"TOO_SHORT": 3}

    def test_sft_rows_are_valid_training_targets(self, tmp_path):
        problems, texts = self.make_corpus(n=3, bad=0)
        _, out = self.run(tmp_path, problems, texts)
        for line in (out / "sft.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert set(row) == {"id", "system", "prompt", "target"}
            assert "\\boxed{" in row["system"]
            assert check_format(row["target"]).well_formed

    def test_empty_corpus(self, tmp_path):
        summary, out = self.run(tmp_path, [], {})
        assert summary.problems == 0
        assert summary.retention is None and json.loads((out / "summary.json").read_text())["retention"] is None
        assert (out / "sft.jsonl").read_text() == ""

    def test_retention_is_the_kept_share(self):
        assert DatasetSummary(4, 1, {}, {}).to_dict()["retention"] == 0.25
        assert DatasetSummary(0, 0, {}, {}).retention is None

    def test_duplicate_ids_rejected(self, tmp_path):
        problems = [make_problem("p1"), make_problem("p1")]
        with pytest.raises(ValueError, match="^duplicate problem id 'p1'$"):
            self.run(tmp_path, problems, default_stage_texts(problems))

    def test_same_seed_same_bytes(self, tmp_path):
        problems, texts = self.make_corpus()
        _, out1 = self.run(tmp_path, problems, texts, seed=1)
        _, out2 = self.run(tmp_path, problems, texts, parallelism=4, seed=1)
        for name in ("sft.jsonl", "rejects.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        # 40 chains on 8 workers, every third one a reject, under frequent thread switches.
        problems, texts = self.make_corpus(n=40, bad=0)
        for p in problems[::3]:
            texts[p.question]["preplan"] = "too short to keep."
        _, serial = self.run(tmp_path, problems, texts, seed=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
        try:
            summary, parallel = self.run(tmp_path, problems, texts, parallelism=8, seed=2)
        finally:
            sys.setswitchinterval(interval)
        assert (summary.kept, summary.drop_reasons) == (26, {"TOO_SHORT": 14})
        for name in ("sft.jsonl", "rejects.jsonl", "summary.json"):
            assert (parallel / name).read_bytes() == (serial / name).read_bytes()

    def test_retries_resample_full_chain(self, tmp_path):
        problem = make_problem("p1")
        texts = default_stage_texts([problem])[problem.question]
        attempts = {"n": 0}

        def flaky_preplan(req):
            attempts["n"] += 1
            if attempts["n"] == 1:
                return "far too short."  # fails the length filter
            return texts["preplan"]

        suite = GeneratorSuite(
            preplan_gen=ScriptedClient(flaky_preplan),
            plan_gen=ScriptedClient([(problem.question, texts["plan"])]),
            executor=ScriptedClient([(problem.question, texts["raw"])]),
            cleanup=ScriptedClient([(problem.question, texts["execute"])]),
        )
        summary = build_dataset(
            [problem],
            suite,
            tmp_path / "retry",
            equivalence=answers_equivalent,
            bounds=BOUNDS,
            seed=0,
            retries=1,
        )
        assert summary.kept == 1
        assert attempts["n"] == 2

    @pytest.mark.parametrize(
        "role, first, calls",
        [
            ("executor", ClientError("down", retryable=True), [1, 1, 2, 1]),  # StageFailure: resume at raw_solution
            ("cleanup", "1. Solve: done. answer seven", [2, 2, 2, 2]),  # NO_ANSWER drop: resample from the preplan
        ],
        ids=["stage-failure", "filter-drop"],
    )
    def test_a_retry_starts_where_its_try_went_wrong(self, tmp_path, role, first, calls):
        problem = make_problem("p1")
        texts = default_stage_texts([problem])
        good = texts[problem.question]

        def flaky(req):
            if len(client.calls) > 1:
                return good["raw" if role == "executor" else "execute"]
            if isinstance(first, Exception):
                raise first
            return first

        client = ScriptedClient(flaky)
        suite = replace(make_suite(texts), **{role: client})
        out = tmp_path / "out"
        summary = build_dataset([problem], suite, out, equivalence=answers_equivalent, bounds=BOUNDS, retries=1)
        assert [len(getattr(suite, r).calls) for _, r, _, _ in STAGES] == calls
        assert client.calls[0] == client.calls[1]  # the retry sends the same request again
        assert summary.kept == 1 and (out / "rejects.jsonl").read_text() == ""
        [row] = [json.loads(line) for line in (out / "sft.jsonl").read_text().splitlines()]
        assert row == {
            "id": "p1",
            "system": prompts.EVAL_SYSTEM_PROMPT,
            "prompt": problem.question,
            "target": f"<preplan>{good['preplan']}</preplan>\n<plan>{good['plan']}</plan>\n"
            f"<execute>{good['execute']}</execute>",
        }

    def test_gen_fail_recorded(self, tmp_path):
        problems = [make_problem("p1")]

        class Boom:
            def generate(self, req):
                raise ClientError("down", retryable=True)

        suite = GeneratorSuite(Boom(), Boom(), Boom(), Boom())
        summary = build_dataset(
            problems,
            suite,
            tmp_path / "genfail",
            equivalence=answers_equivalent,
            bounds=BOUNDS,
            seed=0,
        )
        assert summary.kept == 0
        assert summary.drop_reasons == {"GEN_FAIL": 1}

    def test_first_error_stops_the_chains(self, tmp_path):
        # Chain 1 raises while chain 0 is held: no chain starts after it.
        problems = [make_problem(f"p{i}") for i in range(20)]
        texts = default_stage_texts(problems)
        by_prompt = {prompts.fill(prompts.PREPLAN_PROMPT, question=p.question): p for p in problems}
        main = threading.main_thread().ident
        deadline = time.monotonic() + 5
        started, joined = [], []

        def preplan(req):
            problem = by_prompt[req.user_prompt]
            started.append(problem.id)
            if problem.id == "p1":
                raise RuntimeError("not a client error")
            joined.append(wait_until(lambda: joining_workers(main), deadline - time.monotonic()))
            return texts[problem.question]["preplan"]

        suite = replace(make_suite(texts), preplan_gen=ScriptedClient(preplan))
        with pytest.raises(RuntimeError):
            build_dataset(problems, suite, tmp_path, equivalence=answers_equivalent, parallelism=4)
        assert "p1" in started and set(started) <= {"p0", "p1", "p2", "p3"}
        assert joined and all(joined)  # each held chain went on only after the caller had the error
        assert not (tmp_path / "sft.jsonl").exists()

    def test_rows_that_finish_early_wait_for_the_earlier_chain(self, tmp_path):
        # p0 is held until p1-p5 have finished: the rows still come out in input order.
        problems, texts = self.make_corpus(n=6, bad=0)
        for pid in (2, 4):
            texts[problems[pid].question]["preplan"] = "too short to keep."
        by_prompt = {prompts.fill(prompts.PREPLAN_PROMPT, question=p.question): p for p in problems}
        me = threading.get_ident
        started, held = [], []

        def others_done():
            others = [t for t in threading.enumerate() if t.ident != me()]
            return len(started) == len(problems) and not any(in_chain(t.ident) for t in others)

        def preplan(req):
            problem = by_prompt[req.user_prompt]
            started.append(problem.id)
            if problem.id == "p0":
                held.append(wait_until(others_done))
            return texts[problem.question]["preplan"]

        suite = replace(make_suite(texts), preplan_gen=ScriptedClient(preplan))
        out = tmp_path / "held"
        build_dataset(problems, suite, out, equivalence=answers_equivalent, bounds=BOUNDS, parallelism=4)
        _, serial = self.run(tmp_path, problems, texts)
        assert held == [True]
        assert len((out / "rejects.jsonl").read_text().splitlines()) == 2
        for name in ("sft.jsonl", "rejects.jsonl", "summary.json"):
            assert (out / name).read_bytes() == (serial / name).read_bytes()

    def test_a_written_record_is_not_held(self, tmp_path, monkeypatch):
        # At parallelism 1, problem i's record is gone when problem i+1's chain starts.
        problems, texts = self.make_corpus(n=4, bad=1)
        index = {prompts.fill(prompts.PREPLAN_PROMPT, question=p.question): i for i, p in enumerate(problems)}
        refs, alive = [], []
        synthesize_one = ppc.synthesis.synthesize

        def tracked(*args, **kwargs):
            rec = synthesize_one(*args, **kwargs)
            refs.append(weakref.ref(rec))
            return rec

        def preplan(req):
            i = index[req.user_prompt]
            if i:
                gc.collect()
                alive.append(refs[i - 1]() is not None)
            return texts[problems[i].question]["preplan"]

        monkeypatch.setattr(ppc.synthesis, "synthesize", tracked)
        suite = replace(make_suite(texts), preplan_gen=ScriptedClient(preplan))
        summary = build_dataset(problems, suite, tmp_path / "out", equivalence=answers_equivalent, bounds=BOUNDS)
        assert summary.kept == 3 and len(refs) == 4
        assert alive == [False, False, False]

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_outputs_pinned(self, tmp_path, parallelism):
        # One chain per outcome: kept, SPOILER with a correct answer, TOO_SHORT, WRONG_ANSWER, GEN_FAIL.
        problems = [make_problem(pid, question=f"question about {pid}") for pid in ("keep", "spoiler", "short", "wrong", "fail")]
        texts = default_stage_texts(problems)
        texts["question about spoiler"]["preplan"] = clean_preplan() + " this yields 1001. we get $a$ $b$ $c$ $d$."
        texts["question about short"]["preplan"] = "too short to keep."
        texts["question about wrong"]["execute"] = "1. Set up: x.\nFinal Answer: \\boxed{999}"

        def executor(req):
            if "question about fail" in req.user_prompt:
                raise ClientError("down", retryable=True)
            return next(t["raw"] for q, t in texts.items() if q in req.user_prompt)

        suite = replace(make_suite(texts), executor=ScriptedClient(executor))
        out = tmp_path / "out"
        build_dataset(
            problems, suite, out, equivalence=answers_equivalent, bounds=BOUNDS, parallelism=parallelism, retries=1
        )
        assert (out / "rejects.jsonl").read_text() == (
            '{"answer_correct": true, "id": "spoiler", "reason": "SPOILER", "spoiler_score": 4}\n'
            '{"answer_correct": true, "id": "short", "reason": "TOO_SHORT", "spoiler_score": 0}\n'
            '{"answer_correct": false, "id": "wrong", "reason": "WRONG_ANSWER", "spoiler_score": 0}\n'
            '{"answer_correct": null, "id": "fail", "reason": "GEN_FAIL", "spoiler_score": null}\n'
        )
        assert json.loads((out / "summary.json").read_text()) == {
            "problems": 5,
            "kept": 1,
            "retention": 0.2,
            "score_histogram": {"0": 3, "1": 0, "2": 0, "3": 0, "4": 1, "5": 0, "6": 0},
            "drop_reasons": {"GEN_FAIL": 1, "SPOILER": 1, "TOO_SHORT": 1, "WRONG_ANSWER": 1},
        }
        keep = texts["question about keep"]
        [row] = [json.loads(line) for line in (out / "sft.jsonl").read_text().splitlines()]
        assert row == {
            "id": "keep",
            "system": prompts.EVAL_SYSTEM_PROMPT,
            "prompt": "question about keep",
            "target": f"<preplan>{keep['preplan']}</preplan>\n<plan>{keep['plan']}</plan>\n"
            f"<execute>{keep['execute']}</execute>",
        }

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh-dir", "existing-dir"])
    def test_failed_run_leaves_no_file(self, tmp_path, fresh, error, parallelism):
        # p5's cleanup raises (at parallelism 1, after p0-p4's rows are written): nothing is left.
        problems, texts = self.make_corpus(n=8, bad=2)
        failing = problems[5].question

        def cleanup(req):
            if failing in req.user_prompt:
                raise error("not a client error")
            return next(t["execute"] for q, t in texts.items() if q in req.user_prompt)

        suite = replace(make_suite(texts), cleanup=ScriptedClient(cleanup))
        if fresh:
            out = tmp_path / "new" / "out"
        else:
            out = tmp_path / "out"
            out.mkdir()
        with pytest.raises(error):
            build_dataset(
                problems, suite, out, equivalence=answers_equivalent, bounds=BOUNDS, parallelism=parallelism
            )
        assert [p.name for p in tmp_path.iterdir()] == ([] if fresh else ["out"])
        assert fresh or list(out.iterdir()) == []


class TestLoadProblems:
    def test_reads_jsonl(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text(
            '{"id": "a", "question": "q?", "answer": "1", "difficulty": "hard"}\n'
            '{"id": "b", "question": "r?", "answer": "2"}\n'
        )
        problems = load_problems(path)
        assert [p.id for p in problems] == ["a", "b"]
        assert problems[1].gold_answer == "2"

    def test_empty_id_is_refused(self):
        with pytest.raises(ValueError, match="^problem id must be non-empty$"):
            ProblemRecord("", "q", "7")

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError):
            load_problems(path)

    @pytest.mark.parametrize("answer", ["", " \t"], ids=["empty", "whitespace"])
    def test_empty_gold_answer_names_file_and_line(self, tmp_path, answer):
        path = tmp_path / "bad.jsonl"
        rows = [{"id": "a", "question": "q?", "answer": "1"}, {"id": "b", "question": "r?", "answer": answer}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: gold answer must be non-empty$"):
            load_problems(path)
        with pytest.raises(ValueError, match="gold answer must be non-empty"):
            ProblemRecord("b", "r?", answer)

    @pytest.mark.parametrize("question", ["", " \n\t"], ids=["empty", "whitespace"])
    def test_blank_question_names_file_and_line(self, tmp_path, question):
        path = tmp_path / "bad.jsonl"
        rows = [{"id": "a", "question": "q?", "answer": "1"}, {"id": "b", "question": question, "answer": "2"}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: question must be non-empty$"):
            load_problems(path)

    def test_repeated_id_names_file_and_line(self, tmp_path):
        # An integer id is its string, so 1 and "1" are one problem.
        path = tmp_path / "dup.jsonl"
        rows = [{"id": 1, "question": "q?", "answer": "1"}, {"id": "b", "question": "r?", "answer": "2"}]
        rows.append({"id": "1", "question": "s?", "answer": "3"})
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: repeated id '1'$"):
            load_problems(path)
