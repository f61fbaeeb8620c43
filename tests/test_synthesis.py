import json
import threading
import time
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

from ppc import prompts
from ppc.clients import ScriptedClient, Timeout
from ppc.evaluation import answers_equivalent
from ppc.spoiler import DropReason
from ppc.synthesis import (
    DuplicateId,
    GeneratorSuite,
    ProblemRecord,
    StageFailure,
    SynthesisRecord,
    apply_filter,
    build_dataset,
    load_problems,
    split_corpus,
    synthesize,
)
from ppc.trajectory import check_format

BOUNDS = (150, 1500)


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
                raise Timeout("no route")

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
        assert isinstance(err.value.__cause__, Timeout)


def filtered(problem, **overrides):
    texts = default_stage_texts([problem])[problem.question]
    texts.update(overrides)
    rec = synth_one(problem, {problem.question: texts})
    return apply_filter(rec, bounds=BOUNDS, equivalence=answers_equivalent)


class TestApplyFilter:
    def test_clean_record_kept(self):
        rec = filtered(make_problem("p1"))
        assert rec.kept and rec.drop_reason is None
        assert rec.answer_correct is True
        assert rec.spoiler.score <= 2

    def test_short_preplan_dropped(self):
        rec = filtered(make_problem("p1"), preplan="brief analysis only.")
        assert rec.drop_reason == DropReason.TOO_SHORT

    def test_spoiled_preplan_dropped_despite_correct_answer(self):
        spoiled = clean_preplan() + " this yields 1001. we get $a$ $b$ $c$ $d$."
        rec = filtered(make_problem("p1"), preplan=spoiled)
        assert rec.drop_reason == DropReason.SPOILER
        assert rec.answer_correct is True

    def test_wrong_answer_dropped(self):
        rec = filtered(make_problem("p1", answer="9"))
        # stage fixtures answer with the gold, so fake a wrong final answer
        rec2 = filtered(
            make_problem("p2"),
            execute="1. Set up: x.\nFinal Answer: \\boxed{999}",
        )
        assert rec.kept
        assert rec2.drop_reason == DropReason.WRONG_ANSWER

    def test_missing_boxed_answer(self):
        rec = filtered(make_problem("p1"), execute="1. Solve: done. answer seven")
        assert rec.drop_reason == DropReason.NO_ANSWER

    def test_execute_must_end_with_boxed(self):
        rec = filtered(
            make_problem("p1"),
            execute="Final Answer: \\boxed{7} (see above)",
        )
        assert rec.drop_reason == DropReason.NOT_BOXED_FINAL

    def test_stray_tag_in_segment_renders_malformed(self):
        rec = filtered(
            make_problem("p1"),
            plan="1. Plan with a stray <execute> token.\n2. More.",
        )
        assert rec.drop_reason == DropReason.MALFORMED

    def test_answer_judged_once(self):
        calls = []

        def counting(pred, gold):
            calls.append((pred, gold))
            return answers_equivalent(pred, gold)

        rec = synth_one(make_problem("p1"))
        assert apply_filter(rec, bounds=BOUNDS, equivalence=counting).kept
        assert calls == [("7", "7")]

    def test_gen_fail_record_passes_through(self):
        rec = SynthesisRecord(
            problem=make_problem("p1"), kept=False, drop_reason=DropReason.GEN_FAIL
        )
        out = apply_filter(rec, bounds=BOUNDS, equivalence=answers_equivalent)
        assert out.drop_reason == DropReason.GEN_FAIL

    def test_refiltering_kept_record_keeps_it(self):
        rec = filtered(make_problem("p1"))
        again = apply_filter(rec, bounds=BOUNDS, equivalence=answers_equivalent)
        assert again.kept


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
        assert summary.retention is None
        assert (out / "sft.jsonl").read_text() == ""

    def test_duplicate_ids_rejected(self, tmp_path):
        problems = [make_problem("p1"), make_problem("p1")]
        with pytest.raises(DuplicateId):
            self.run(tmp_path, problems, default_stage_texts(problems))

    def test_same_seed_same_bytes(self, tmp_path):
        problems, texts = self.make_corpus()
        _, out1 = self.run(tmp_path, problems, texts, seed=1)
        _, out2 = self.run(tmp_path, problems, texts, parallelism=4, seed=1)
        for name in ("sft.jsonl", "rejects.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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

    def test_gen_fail_recorded(self, tmp_path):
        problems = [make_problem("p1")]

        class Boom:
            def generate(self, req):
                raise Timeout("down")

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
        by_prompt = {prompts.preplan_prompt(p.question): p for p in problems}
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


class TestSplitCorpus:
    def test_disjoint_by_id(self):
        problems = [
            ProblemRecord(id=f"p{i}", question=f"q{i}", gold_answer="1", difficulty=d)
            for i, d in enumerate(["easy", "hard"] * 20)
        ]
        sft, rl = split_corpus(problems, 0.5, seed=3)
        assert {p.id for p in sft}.isdisjoint({p.id for p in rl})
        assert len(sft) + len(rl) == len(problems)
        assert len(sft) == 20  # stratified halves

    def test_deterministic(self):
        problems = [make_problem(f"p{i}") for i in range(30)]
        first = split_corpus(problems, 0.3, seed=9)
        second = split_corpus(problems, 0.3, seed=9)
        assert [p.id for p in first[0]] == [p.id for p in second[0]]


class TestLoadProblems:
    def test_reads_jsonl(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text(
            '{"id": "a", "question": "q?", "answer": "1", "difficulty": "hard"}\n'
            '{"id": "b", "question": "r?", "answer": "2"}\n'
        )
        problems = load_problems(path)
        assert [p.id for p in problems] == ["a", "b"]
        assert problems[0].difficulty == "hard"
        assert problems[1].gold_answer == "2"

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError):
            load_problems(path)
