"""Three-stage trajectory synthesis and the filtered SFT corpus builder.

Each problem runs a strictly sequential chain: the preplan generator sees
only the question, the plan generator sees question + preplan, and the
executor / cleanup stages see question + plan (+ raw solution) but never
the preplan. Generated records then pass the spoiler/answer/length filter
before being emitted as SFT-ready JSONL.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from . import prompts
from ._text import atomic_open, read_jsonl, write_jsonl
from .clients import ClientError, GenerationRequest, LlmClient, run_parallel
from .spoiler import (
    DEFAULT_LENGTH_BOUNDS,
    DEFAULT_SPOILER_CONFIG,
    DropReason,
    SpoilerConfig,
    SpoilerReport,
    filter_decision,
)
from .trajectory import Trajectory, check_format, render_trajectory

log = logging.getLogger(__name__)


class DuplicateId(ValueError):
    pass


def check_unique_ids(problems: Sequence[ProblemRecord]) -> None:
    """Raise DuplicateId for the first problem id seen twice."""
    seen: set[str] = set()
    for p in problems:
        if p.id in seen:
            raise DuplicateId(f"duplicate problem id {p.id!r}")
        seen.add(p.id)


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class ProblemRecord:
    id: str
    question: str
    gold_answer: str
    difficulty: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if not self.question:
            raise ValueError("question must be non-empty")


@dataclass
class SynthesisRecord:
    problem: ProblemRecord
    preplan: str = ""
    plan: str = ""
    raw_solution: str = ""
    execute: str = ""
    spoiler: SpoilerReport | None = None
    answer_correct: bool | None = None
    kept: bool = False
    drop_reason: DropReason | None = None


@dataclass(frozen=True)
class GeneratorSuite:
    """The four generation roles behind the synthesis chain."""

    preplan_gen: LlmClient
    plan_gen: LlmClient
    executor: LlmClient
    cleanup: LlmClient


DEFAULT_SAMPLING = GenerationRequest(user_prompt="")


def synthesize(
    problem: ProblemRecord,
    generators: GeneratorSuite,
    params: GenerationRequest = DEFAULT_SAMPLING,
) -> SynthesisRecord:
    """Run the preplan -> plan -> raw solution -> execute chain for one problem.

    Stages are strictly sequential and each prompt carries only the inputs
    of its stage; in particular neither executor prompt ever contains the
    preplan. Raises StageFailure naming the stage that failed, with the
    ClientError as its `__cause__`; the returned record is not yet filtered.
    """
    record = SynthesisRecord(problem=problem)
    q = problem.question

    def run_stage(name: str, client: LlmClient, prompt: str) -> str:
        try:
            return client.generate(replace(params, user_prompt=prompt, forced_prefix=None))
        except ClientError as exc:
            raise StageFailure(name, exc) from exc

    record.preplan = run_stage(
        "preplan", generators.preplan_gen, prompts.preplan_prompt(q)
    ).strip()
    record.plan = run_stage(
        "plan", generators.plan_gen, prompts.plan_prompt(q, record.preplan)
    ).strip()
    record.raw_solution = run_stage(
        "raw_solution", generators.executor, prompts.raw_solution_prompt(q, record.plan)
    ).strip()
    record.execute = run_stage(
        "execute", generators.cleanup, prompts.cleanup_prompt(q, record.plan, record.raw_solution)
    ).strip()
    return record


def apply_filter(
    rec: SynthesisRecord,
    cfg: SpoilerConfig = DEFAULT_SPOILER_CONFIG,
    bounds: tuple[int, int] = DEFAULT_LENGTH_BOUNDS,
    *,
    equivalence: Callable[[str, str], bool],
) -> SynthesisRecord:
    """Decide kept/dropped for a generated record.

    Keeps iff the spoiler score is within threshold, the boxed answer
    matches gold, the preplan length is in bounds, the execute text ends
    with its boxed answer, and the rendered trajectory passes the format
    guard (so every kept record re-renders cleanly).
    """
    if rec.drop_reason == DropReason.GEN_FAIL:
        return rec

    traj = Trajectory.from_parts(rec.preplan, rec.plan, rec.execute)
    decision = filter_decision(
        traj, rec.problem.gold_answer, cfg, bounds, equivalence=equivalence
    )
    rec.spoiler = decision.spoiler
    rec.answer_correct = decision.answer_correct

    if not decision.keep:
        rec.kept = False
        rec.drop_reason = decision.reason
        return rec
    # A kept decision has a boxed answer; it must close the execute text.
    if not rec.execute.rstrip().endswith(f"\\boxed{{{traj.boxed_answer}}}"):
        rec.kept = False
        rec.drop_reason = DropReason.NOT_BOXED_FINAL
        return rec
    if not check_format(render_trajectory(traj)).well_formed:
        rec.kept = False
        rec.drop_reason = DropReason.MALFORMED
        return rec
    rec.kept = True
    rec.drop_reason = None
    return rec


@dataclass
class DatasetSummary:
    problems: int
    kept: int
    retention: float | None
    score_histogram: dict[str, int]
    drop_reasons: dict[str, int]

    def to_dict(self) -> dict:
        return asdict(self)


def _sft_row(rec: SynthesisRecord) -> dict:
    traj = Trajectory.from_parts(rec.preplan, rec.plan, rec.execute)
    return {
        "id": rec.problem.id,
        "system": prompts.EVAL_SYSTEM_PROMPT,
        "prompt": rec.problem.question,
        "target": render_trajectory(traj),
    }


def _reject_row(rec: SynthesisRecord) -> dict:
    return {
        "id": rec.problem.id,
        "reason": rec.drop_reason.value if rec.drop_reason else None,
        "spoiler_score": rec.spoiler.score if rec.spoiler else None,
        "answer_correct": rec.answer_correct,
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

    Rows are written in input order by a single writer, so runs with the
    same inputs and scripted clients are byte-identical at any parallelism.
    `seed` is not read yet: no request carries it. `retries` (>= 0)
    resamples the whole chain on filter failure. Chains run on
    `run_parallel`; after an exception other than a StageFailure, or
    Ctrl-C, only the chains in flight finish, and no file is written.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    check_unique_ids(problems)

    def run_chain(problem: ProblemRecord) -> SynthesisRecord:
        rec = None
        for _ in range(retries + 1):
            try:
                rec = synthesize(problem, generators, params)
            except StageFailure as exc:
                log.warning("problem %s: %s", problem.id, exc)
                rec = SynthesisRecord(
                    problem=problem, kept=False, drop_reason=DropReason.GEN_FAIL
                )
                continue
            rec = apply_filter(rec, spoiler_cfg, bounds, equivalence=equivalence)
            if rec.kept:
                break
        return rec

    records = run_parallel(run_chain, problems, parallelism)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kept = [r for r in records if r.kept]
    dropped = [r for r in records if not r.kept]

    write_jsonl(out_dir / "sft.jsonl", map(_sft_row, kept))
    write_jsonl(out_dir / "rejects.jsonl", map(_reject_row, dropped))

    histogram = {str(s): 0 for s in range(7)}
    for rec in records:
        if rec.spoiler is not None:
            histogram[str(rec.spoiler.score)] += 1
    reasons: dict[str, int] = {}
    for rec in dropped:
        key = rec.drop_reason.value if rec.drop_reason else "UNKNOWN"
        reasons[key] = reasons.get(key, 0) + 1

    summary = DatasetSummary(
        problems=len(records),
        kept=len(kept),
        retention=(len(kept) / len(records)) if records else None,
        score_histogram=histogram,
        drop_reasons=dict(sorted(reasons.items())),
    )
    with atomic_open(out_dir / "summary.json") as f:
        f.write(json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n")
    return summary


def split_corpus(
    problems: Sequence[ProblemRecord],
    sft_fraction: float,
    seed: int,
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Disjoint SFT/RL split, stratified by difficulty label.

    Within each difficulty stratum a seeded shuffle takes `sft_fraction`
    for the SFT side; everything else goes to RL. Output order follows the
    input corpus.
    """
    import random

    if not 0 <= sft_fraction <= 1:
        raise ValueError("sft_fraction must be in [0, 1]")
    rng = random.Random(seed)
    by_level: dict[str, list[int]] = {}
    for idx, p in enumerate(problems):
        by_level.setdefault(p.difficulty or "", []).append(idx)

    sft_idx: set[int] = set()
    for level in sorted(by_level):
        indices = by_level[level][:]
        rng.shuffle(indices)
        take = round(sft_fraction * len(indices))
        sft_idx.update(indices[:take])

    sft = [p for i, p in enumerate(problems) if i in sft_idx]
    rl = [p for i, p in enumerate(problems) if i not in sft_idx]
    return sft, rl


def load_problems(path: Path) -> list[ProblemRecord]:
    """Read a {id, question, answer[, difficulty]} JSONL corpus."""
    return list(read_jsonl(path, _problem_from_row))


def _problem_from_row(row: dict) -> ProblemRecord:
    return ProblemRecord(
        id=str(row["id"]),
        question=row["question"],
        gold_answer=str(row["answer"]),
        difficulty=row.get("difficulty"),
    )
