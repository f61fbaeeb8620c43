"""Three-stage trajectory synthesis and the filtered SFT corpus builder.

Each problem runs a strictly sequential chain: the preplan generator sees
only the question, the plan generator sees question + preplan, and the
executor / cleanup stages see question + plan (+ raw solution) but never
the preplan. Generated records then pass the spoiler/answer/length filter
before being emitted as SFT-ready JSONL.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from . import prompts
from ._text import JSON_ENCODER, JSON_INDENTED, atomic_outputs, json_is, read_by_id, row_id, typed_field
from .clients import ClientError, GenerationRequest, LlmClient, run_parallel
from .spoiler import (
    DEFAULT_LENGTH_BOUNDS,
    DEFAULT_SPOILER_CONFIG,
    SIGNAL_NAMES,
    DropReason,
    FilterDecision,
    SpoilerConfig,
    filter_decision,
)
from .trajectory import Trajectory, render_trajectory

log = logging.getLogger(__name__)


def check_unique_ids(problems: Sequence[ProblemRecord]) -> None:
    """Raise ValueError for the first problem id seen twice."""
    seen: set[str] = set()
    for p in problems:
        if p.id in seen:
            raise ValueError(f"duplicate problem id {p.id!r}")
        seen.add(p.id)


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception, texts: dict[str, str]):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.texts = texts  # the stages that landed before it


@dataclass(frozen=True)
class ProblemRecord:
    id: str
    question: str
    gold_answer: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.gold_answer.strip():
            raise ValueError("gold answer must be non-empty")


@dataclass(frozen=True)
class SynthesisRecord:
    """One chain's four stage texts; its verdict is `apply_filter`'s."""

    problem: ProblemRecord
    preplan: str
    plan: str
    raw_solution: str
    execute: str


@dataclass(frozen=True)
class GeneratorSuite:
    """The four generation roles behind the synthesis chain."""

    preplan_gen: LlmClient
    plan_gen: LlmClient
    executor: LlmClient
    cleanup: LlmClient


DEFAULT_SAMPLING = GenerationRequest(user_prompt="")

# The chain, in order: (stage, role, template, the earlier stages its prompt
# shows). The executor and cleanup prompts never show the preplan.
STAGES = (
    ("preplan", "preplan_gen", prompts.PREPLAN_PROMPT, ()),
    ("plan", "plan_gen", prompts.PLAN_PROMPT, ("preplan",)),
    ("raw_solution", "executor", prompts.RAW_SOLUTION_PROMPT, ("plan",)),
    ("execute", "cleanup", prompts.CLEANUP_PROMPT, ("plan", "raw_solution")),
)


def synthesize(
    problem: ProblemRecord,
    generators: GeneratorSuite,
    params: GenerationRequest = DEFAULT_SAMPLING,
    *,
    texts: dict[str, str] | None = None,
) -> SynthesisRecord:
    """Run the `STAGES` chain for one problem, one stage after another.

    Each prompt shows the question and only the stages its row names.
    `texts` holds stages already generated, say by a try that failed later:
    the chain resumes after them and sends none of their requests again.
    Raises StageFailure naming the stage that failed, carrying the texts
    that landed before it, with the ClientError as its `__cause__`;
    `apply_filter` gives the record its verdict.
    """
    texts = dict(texts or {})
    for stage, role, template, shown in STAGES:
        if stage in texts:
            continue
        prompt = prompts.fill(template, question=problem.question, **{s: texts[s] for s in shown})
        try:
            reply = getattr(generators, role).generate(replace(params, user_prompt=prompt, forced_prefix=None))
        except ClientError as exc:
            raise StageFailure(stage, exc, texts) from exc
        texts[stage] = reply.strip()
    return SynthesisRecord(problem, **texts)


def apply_filter(
    rec: SynthesisRecord,
    cfg: SpoilerConfig = DEFAULT_SPOILER_CONFIG,
    bounds: tuple[int, int] = DEFAULT_LENGTH_BOUNDS,
    *,
    equivalence: Callable[[str, str], bool],
) -> FilterDecision:
    """`filter_decision`'s verdict on a generated record's texts, judged
    against its problem's gold answer; the record is not changed."""
    traj = Trajectory(rec.preplan, rec.plan, rec.execute)
    return filter_decision(traj, rec.problem.gold_answer, cfg, bounds, equivalence=equivalence)


@dataclass
class DatasetSummary:
    problems: int
    kept: int
    score_histogram: dict[str, int]
    drop_reasons: dict[str, int]

    @property
    def retention(self) -> float | None:
        """The kept share of the corpus; None for an empty one."""
        return self.kept / self.problems if self.problems else None

    def to_dict(self) -> dict:
        return {**asdict(self), "retention": self.retention}


def _row(problem: ProblemRecord, rec: SynthesisRecord | None, decision: FilterDecision | None) -> dict:
    """A kept chain's SFT row, else its reject row. A chain with no decision
    (its last try hit a StageFailure) is a GEN_FAIL row with null scores."""
    if decision is None:
        return {"id": problem.id, "reason": DropReason.GEN_FAIL.value, "spoiler_score": None, "answer_correct": None}
    if decision.keep:
        target = render_trajectory(Trajectory(rec.preplan, rec.plan, rec.execute))
        return {"id": problem.id, "system": prompts.EVAL_SYSTEM_PROMPT, "prompt": problem.question, "target": target}
    return {
        "id": problem.id,
        "reason": decision.reason.value,
        "spoiler_score": decision.spoiler.score,
        "answer_correct": decision.answer_correct,
    }


def build_dataset(
    problems: Sequence[ProblemRecord],
    generators: GeneratorSuite,
    out_dir: Path,
    *,
    equivalence: Callable[[str, str], bool],
    params: GenerationRequest = DEFAULT_SAMPLING,
    spoiler_cfg: SpoilerConfig = DEFAULT_SPOILER_CONFIG,
    bounds: tuple[int, int] = DEFAULT_LENGTH_BOUNDS,
    seed: int = 0,
    parallelism: int = 1,
    retries: int = 0,
) -> DatasetSummary:
    """Synthesize and filter a corpus, writing sft/rejects/summary files.

    Chains run on `run_parallel`. Each row is written as soon as every
    earlier problem's row is out, so the files are in input order and runs
    with the same inputs and scripted clients are byte-identical at any
    parallelism. Memory holds only the summary tallies and the rows that
    wait on an earlier chain; a chain that stalls makes every later row
    wait, up to the whole corpus. `seed` is not read yet: no request
    carries it. `retries` (>= 0) is the number of further tries per chain:
    after a filter drop the next try resamples the whole chain from its
    preplan, and after a StageFailure it resumes at the stage that failed,
    keeping the texts before it. A chain is its last try's record and
    `apply_filter` verdict; one whose last try hit a StageFailure has no
    verdict and makes a GEN_FAIL row, with `spoiler_score` and
    `answer_correct` null. After any other exception, or Ctrl-C, only the
    chains in flight finish, no output file is left, and `out_dir` is
    removed again if this call created it. A process killed outright can
    leave a `*.tmp` file beside the outputs, but never a partial one of
    them: each replaces its target only after the last row.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    check_unique_ids(problems)

    def run_chain(problem: ProblemRecord) -> tuple[SynthesisRecord | None, FilterDecision | None]:
        texts: dict[str, str] = {}  # where the next try starts
        for _ in range(retries + 1):
            try:
                rec = synthesize(problem, generators, params, texts=texts)
            except StageFailure as exc:
                log.warning("problem %s: %s", problem.id, exc)
                rec = decision = None
                texts = exc.texts
                continue
            decision = apply_filter(rec, spoiler_cfg, bounds, equivalence=equivalence)
            if decision.keep:
                break
            texts = {}
        return rec, decision

    summary = DatasetSummary(
        problems=len(problems),
        kept=0,
        score_histogram={str(s): 0 for s in range(len(SIGNAL_NAMES) + 1)},
        drop_reasons={},
    )
    parked: dict[int, tuple[bool, str]] = {}  # finished rows that wait on an earlier one
    cursor = 0  # index of the next row to write
    lock = threading.Lock()

    def run(item: tuple[int, ProblemRecord]) -> None:
        nonlocal cursor
        i, problem = item
        rec, decision = run_chain(problem)
        row = _row(problem, rec, decision)
        kept = decision is not None and decision.keep
        line = JSON_ENCODER.encode(row) + "\n"
        with lock:
            summary.kept += kept
            if decision is not None:
                summary.score_histogram[str(decision.spoiler.score)] += 1
            if not kept:
                summary.drop_reasons[row["reason"]] = summary.drop_reasons.get(row["reason"], 0) + 1
            parked[i] = (kept, line)
            while cursor in parked:
                to_sft, text = parked.pop(cursor)
                (sft if to_sft else rejects).write(text)
                cursor += 1

    with atomic_outputs(out_dir, "summary.json", "sft.jsonl", "rejects.jsonl") as (summary_file, sft, rejects):
        run_parallel(run, enumerate(problems), parallelism)
        summary.drop_reasons = dict(sorted(summary.drop_reasons.items()))
        summary_file.write(JSON_INDENTED.encode(summary.to_dict()) + "\n")
    return summary


def load_problems(path: Path) -> list[ProblemRecord]:
    """Read a {id, question, answer} JSONL corpus; other keys are ignored, and a repeated id is an error."""
    return list(read_by_id(path, _problem_from_row).values())


def _problem_from_row(row: dict) -> ProblemRecord:
    answer = row["answer"]
    if not json_is(answer, str, int, float):
        raise ValueError(f"field 'answer' must be a string or a number, got {answer!r:.60}")
    return ProblemRecord(
        id=str(row_id(row)),
        question=typed_field(row, "question"),
        gold_answer=str(answer),
    )
