"""Answer equivalence, maj@k / pass@k metrics, perturbations and reports.

The rule pipeline normalizes answer strings (whitespace, dollar signs,
\\left/\\right, frac variants, redundant braces) and canonicalizes anything
that parses as an exact rational, so "0.50", "1/2" and "\\frac{2}{4}" all
compare equal without floats. An optional LLM judge acts as a fallback for
pairs the rules cannot settle. On top of that sit the k-sample metrics,
the preplan perturbations for faithfulness probing, and error-attribution
aggregation.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import prompts
from ._text import count_tokens, read_jsonl, split_sentences, typed_field, write_jsonl
from .clients import (
    AttributionVerdict,
    ClientError,
    Facet,
    GenerationRequest,
    LlmClient,
    judge_equivalence,
    run_parallel,
)
from .synthesis import ProblemRecord
from .trajectory import boxed_or_none, read_trajectory

log = logging.getLogger(__name__)


class PoolTooSmall(ValueError):
    pass


# --- answer normalization ----------------------------------------------------

_LEFT_RIGHT = re.compile(r"\\(left|right)(?![a-zA-Z])")
_INT = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL = re.compile(r"^[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)$")
_SLASH = re.compile(r"^([+-]?[0-9]+)\s*/\s*([+-]?[0-9]+)$")
_FRAC = re.compile(r"^([+-])?\\frac\{([+-]?[0-9]+)\}\{([+-]?[0-9]+)\}$")


def _strip_outer_braces(text: str) -> str:
    """Drop one layer of braces that wrap the whole string."""
    if len(text) >= 2 and text[0] == "{" and text[-1] == "}":
        depth = 0
        for i, ch in enumerate(text):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text
        return text[1:-1]
    return text


def _as_rational(text: str) -> Fraction | None:
    try:
        if _INT.match(text):
            return Fraction(int(text))
        if _DECIMAL.match(text):
            return Fraction(text)
        m = _SLASH.match(text)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
        m = _FRAC.match(text)
        if m:
            value = Fraction(int(m.group(2)), int(m.group(3)))
            return -value if m.group(1) == "-" else value
    except (ValueError, ZeroDivisionError):
        return None
    return None


def normalize_answer(text: str) -> str:
    """Canonical comparison form of a final answer.

    Pipeline: trim, collapse whitespace, strip surrounding dollar signs,
    drop \\left/\\right, map \\dfrac/\\tfrac to \\frac, strip one layer of
    redundant outer braces, then canonicalize exact rationals (integers and
    reduced fractions share one spelling).
    """
    s = text.strip()
    s = re.sub(r"\s+", " ", s)
    s = s.strip("$").strip()
    s = _LEFT_RIGHT.sub("", s)
    s = s.replace("\\dfrac", "\\frac").replace("\\tfrac", "\\frac")
    s = _strip_outer_braces(s).strip()
    value = _as_rational(s)
    if value is not None:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return s


def answers_equivalent(
    pred: str | None, gold: str, fallback: LlmClient | None = None
) -> bool:
    """True when normalized forms agree; judge fallback when configured.

    Judge failures are logged and count as non-equivalent.
    """
    if pred is None:
        return False
    if normalize_answer(pred) == normalize_answer(gold):
        return True
    if fallback is not None:
        try:
            return judge_equivalence(fallback, pred, gold)
        except ClientError as exc:
            log.warning("equivalence judge failed (%s); treating as NO", exc)
            return False
    return False


Equivalence = Callable[[str, str], bool]


# --- k-sample metrics ---------------------------------------------------------


def maj_at_k(
    answers: Sequence[str | None],
    gold: str,
    equivalence: Equivalence = answers_equivalent,
) -> bool:
    """Majority vote over k answers.

    Answers join the first existing equivalence class they match (first-match
    linkage, deterministic in input order); absent answers form no class.
    The largest class wins, ties broken by earliest first occurrence, and the
    vote is correct when the winning class matches gold.
    """
    if not answers:
        raise ValueError("need at least one answer")
    classes: list[dict] = []
    for index, answer in enumerate(answers):
        if answer is None:
            continue
        for cls in classes:
            if equivalence(answer, cls["rep"]):
                cls["count"] += 1
                break
        else:
            classes.append({"rep": answer, "count": 1, "first": index})
    if not classes:
        return False
    winner = max(classes, key=lambda c: (c["count"], -c["first"]))
    return equivalence(winner["rep"], gold)


def pass_at_k(
    answers: Sequence[str | None],
    gold: str,
    equivalence: Equivalence = answers_equivalent,
) -> bool:
    """True iff any of the k answers matches gold."""
    if not answers:
        raise ValueError("need at least one answer")
    return any(a is not None and equivalence(a, gold) for a in answers)


# --- faithfulness perturbations ------------------------------------------------


class PerturbationMode(str, Enum):
    SHUFFLED = "shuffled"
    MISMATCHED = "mismatched"
    GENERIC = "generic"


@dataclass(frozen=True)
class PerturbationSpec:
    mode: PerturbationMode
    seed: int


def _derangement(n: int, rng: random.Random) -> list[int]:
    """Seeded fixed-point-free permutation of range(n); needs n >= 2."""
    indices = list(range(n))
    while True:
        rng.shuffle(indices)
        if all(i != j for i, j in enumerate(indices)):
            return indices


def forced_prefix_for(preplan: str) -> str:
    """Assistant prefill that pins the preplan and opens the plan block."""
    return f"<preplan>{preplan}</preplan>\n<plan>"


def perturb_preplan(preplans: Sequence[str], spec: PerturbationSpec) -> list[str]:
    """One forced prefix per preplan, in input order, perturbed per the mode.

    shuffled: each preplan's sentences in a seeded random order;
    mismatched: the preplan at another position, assigned by one seeded
    derangement over the list (no position keeps its own); generic: the
    fixed content-free text.
    """
    if spec.mode == PerturbationMode.SHUFFLED:
        prefixes = []
        for preplan in preplans:
            sentences = split_sentences(preplan)
            random.Random(spec.seed).shuffle(sentences)
            prefixes.append(forced_prefix_for(" ".join(sentences)))
        return prefixes
    if spec.mode == PerturbationMode.MISMATCHED:
        if len(preplans) < 2:
            raise PoolTooSmall("mismatched perturbation needs >= 2 preplans")
        mapping = _derangement(len(preplans), random.Random(spec.seed))
        return [forced_prefix_for(preplans[j]) for j in mapping]
    return [forced_prefix_for(prompts.GENERIC_PREPLAN)] * len(preplans)


# --- evaluation loop ------------------------------------------------------------


@dataclass
class _Form:
    """One distinct normalized answer of a problem."""

    form: str
    raw: str  # the first raw spelling
    first: int  # index of that spelling among the k answers
    count: int = 0


def _score_answers(
    answers: Sequence[str | None], gold: str, equivalence: Equivalence | None
) -> tuple[list[str | None], list[bool], bool, bool]:
    """Normalized answers, per-answer verdicts, maj@k and pass@k of one problem.

    Each distinct spelling is normalized once and equal forms collapse into
    one table row, in first-occurrence order. The majority vote is `maj_at_k`'s
    first-match linkage run over the distinct forms, with their counts.
    """
    form_of = {a: normalize_answer(a) for a in set(answers) - {None}}
    forms = [form_of.get(a) for a in answers]
    table: dict[str, _Form] = {}
    for index, (raw, form) in enumerate(zip(answers, forms)):
        if form is not None:
            table.setdefault(form, _Form(form, raw, index)).count += 1
    gold_row = _Form(normalize_answer(gold), gold, -1)
    memo: dict[tuple[str, str], bool] = {}

    def same(a: _Form, b: _Form) -> bool:
        if a.form == b.form:
            return True
        if equivalence is None:
            return False
        key = (a.form, b.form)
        if key not in memo:
            memo[key] = equivalence(a.raw, b.raw)
        return memo[key]

    correct = {form: same(row, gold_row) for form, row in table.items()}
    verdicts = [form is not None and correct[form] for form in forms]
    classes = list(table.values())
    if equivalence is not None:
        linked: list[_Form] = []
        for row in classes:
            for cls in linked:
                if same(row, cls):
                    cls.count += row.count
                    break
            else:
                linked.append(replace(row))
        classes = linked
    winner = max(classes, key=lambda c: (c.count, -c.first), default=None)
    return forms, verdicts, winner is not None and correct[winner.form], any(correct.values())


@dataclass
class EvalRecord:
    problem: ProblemRecord
    samples: list[str]
    answers: list[str | None]
    verdicts: list[bool]
    maj_correct: bool
    pass_correct: bool
    token_counts: list[int]

    def to_dict(self) -> dict:
        return {
            "id": self.problem.id,
            "question": self.problem.question,
            "gold": self.problem.gold_answer,
            "samples": self.samples,
            "answers": self.answers,
            "verdicts": self.verdicts,
            "maj_correct": self.maj_correct,
            "pass_correct": self.pass_correct,
            "token_counts": self.token_counts,
        }


@dataclass
class EvalReport:
    benchmark: str
    k: int
    problems: int
    failed: int
    maj_at_k: float | None
    pass_at_k: float | None
    mean_tokens: float | None
    mean_tokens_thousands: float | None
    records: list[EvalRecord]

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "k": self.k,
            "problems": self.problems,
            "failed": self.failed,
            "maj_at_k": self.maj_at_k,
            "pass_at_k": self.pass_at_k,
            "mean_tokens": self.mean_tokens,
            "mean_tokens_thousands": self.mean_tokens_thousands,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


DEFAULT_EVAL_SAMPLING = GenerationRequest(
    user_prompt="", system_prompt=prompts.EVAL_SYSTEM_PROMPT
)


def evaluate(
    problems: Sequence[ProblemRecord],
    k: int,
    client: LlmClient | None = None,
    *,
    mode: PerturbationSpec | None = None,
    equivalence: Equivalence | None = None,
    replay: Mapping[str, Sequence[str]] | None = None,
    params: GenerationRequest = DEFAULT_EVAL_SAMPLING,
    parallelism: int = 1,
    benchmark: str = "bench",
) -> EvalReport:
    """Score a benchmark with k samples per problem.

    Samples come from `replay` transcripts when given (fully offline),
    otherwise from the client. With a perturbation spec, one unforced base
    sample per problem supplies the original preplan; generation then
    restarts from the perturbed prefill, so a spec together with `replay`
    is a ValueError. Problems whose generation fails entirely are counted
    separately and excluded from the metric denominators.

    Answers with equal normalized forms are the same answer, with no call
    made. `equivalence` is a fallback consulted only for answers whose
    normalized forms differ: at most once per pair of forms per problem,
    with each form's first raw spelling. None (the default) means the
    normalization rules only. When the fallback's verdict depends only on
    the normalized forms, the results equal `maj_at_k` and `pass_at_k`
    over the raw answers with `answers_equivalent` plus that fallback.

    `parallelism` bounds the endpoint calls in flight. Live sampling spreads
    (problem, sample) units over that many workers, so a problem's k samples
    run side by side and each record still holds sample j at index j;
    judge calls run inside the same workers. Rules-only replay makes no
    call and runs in the caller's thread; replay with a fallback spreads
    whole problems.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if replay is None and client is None:
        raise ValueError("need a client or replay transcripts")
    if mode is not None and replay is not None:
        raise ValueError("a perturbation needs live generation, not replay transcripts")

    prefixes: dict[str, str] = {}
    if mode is not None:
        base = _base_preplans(problems, client, params, parallelism)
        prefixes = dict(zip((p.id for p in problems), perturb_preplan(base, mode)))

    def score(problem: ProblemRecord, samples: list[str]) -> EvalRecord | None:
        try:
            return _record(problem, samples, equivalence)
        except ClientError as exc:
            log.warning("problem %s failed entirely: %s", problem.id, exc)
            return None

    if replay is not None:
        batches = []
        for problem in problems:
            samples = list(replay.get(problem.id, []))[:k]
            if len(samples) < k:
                raise ValueError(f"replay has {len(samples)} samples for {problem.id!r}, need {k}")
            batches.append((problem, samples))
        # Rules only makes no endpoint call for a thread to overlap.
        workers = parallelism if equivalence is not None else 1
        outcomes = run_parallel(lambda batch: score(*batch), batches, workers)
    else:
        requests = [
            replace(params, user_prompt=p.question, forced_prefix=prefixes.get(p.id))
            for p in problems
        ]
        outcomes = _sample(problems, requests, k, client, score, parallelism)
    records = [r for r in outcomes if r is not None]
    failed = len(outcomes) - len(records)

    if records:
        maj = round(100.0 * sum(r.maj_correct for r in records) / len(records), 2)
        cov = round(100.0 * sum(r.pass_correct for r in records) / len(records), 2)
        counts = [c for r in records for c in r.token_counts]
        mean_tokens = sum(counts) / len(counts)
        mean_k = round(mean_tokens / 1000.0, 2)
    else:
        maj = cov = mean_tokens = mean_k = None

    return EvalReport(
        benchmark=benchmark,
        k=k,
        problems=len(records),
        failed=failed,
        maj_at_k=maj,
        pass_at_k=cov,
        mean_tokens=mean_tokens,
        mean_tokens_thousands=mean_k,
        records=records,
    )


def _record(problem: ProblemRecord, samples: list[str], equivalence: Equivalence | None) -> EvalRecord:
    # The whole sample, not just its execute block: eval scores any final boxed answer.
    answers = [boxed_or_none(s) for s in samples]
    forms, verdicts, maj, passed = _score_answers(answers, problem.gold_answer, equivalence)
    return EvalRecord(
        problem=problem,
        samples=samples,
        answers=forms,
        verdicts=verdicts,
        maj_correct=maj,
        pass_correct=passed,
        token_counts=[count_tokens(s) for s in samples],
    )


def _sample(
    problems: Sequence[ProblemRecord],
    requests: Sequence[GenerationRequest],
    k: int,
    client: LlmClient,
    score: Callable[[ProblemRecord, list[str]], EvalRecord | None],
    parallelism: int,
) -> list[EvalRecord | None]:
    """k samples per problem, scored; None for a problem whose generation failed.

    The unit of work is one (problem, sample) call. `parallelism` workers take
    units from one cursor in problem-major order, so a problem's k calls run
    side by side. Sample j is stored at index j, whatever order calls finish
    in, and the worker that lands a problem's last sample scores it. A
    problem's first ClientError marks it failed; its units not yet started
    make no call. An exception in a worker, or one that interrupts the caller
    while it waits (Ctrl-C), stops every worker after its current call.
    """
    samples = [[""] * k for _ in problems]
    missing = [k] * len(problems)
    failed = [False] * len(problems)
    outcomes: list[EvalRecord | None] = [None] * len(problems)
    units = iter(range(len(problems) * k))
    lock = threading.Lock()
    stop = False

    def work() -> None:
        while True:
            with lock:
                unit = None if stop else next(units, None)
                if unit is None:
                    return
                i, j = divmod(unit, k)
                if failed[i]:
                    continue
            try:
                text = client.generate(requests[i])
            except ClientError as exc:
                with lock:
                    first, failed[i] = not failed[i], True
                if first:
                    log.warning("problem %s failed entirely: %s", problems[i].id, exc)
                continue
            with lock:
                samples[i][j] = text
                missing[i] -= 1
                last = missing[i] == 0
            if last:
                outcomes[i] = score(problems[i], samples[i])

    workers = min(parallelism, len(problems) * k)
    if workers <= 1:
        work()
        return outcomes
    # One long-lived loop per worker, not a task per unit.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for future in as_completed([pool.submit(work) for _ in range(workers)]):
                future.result()  # a worker's exception surfaces as soon as it is raised
        except BaseException:
            stop = True  # the workers take no further unit, before the pool joins them
            raise
    return outcomes


def _base_preplans(
    problems: Sequence[ProblemRecord],
    client: LlmClient,
    params: GenerationRequest,
    parallelism: int,
) -> list[str]:
    """One unforced sample per problem; its preplan, read leniently and in problem
    order, seeds the perturbation (a sample cut off before its answer still has one)."""

    def one(problem: ProblemRecord) -> str:
        sample = client.generate(replace(params, user_prompt=problem.question))
        return read_trajectory(sample).preplan

    return run_parallel(one, problems, parallelism)


def format_report_table(reports: Sequence[EvalReport]) -> str:
    """Aligned text table, one row per benchmark."""
    headers = ("benchmark", "k", "problems", "failed", "maj@k", "pass@k", "tokens(K)")
    rows = [headers]
    for r in reports:
        rows.append(
            (
                r.benchmark,
                str(r.k),
                str(r.problems),
                str(r.failed),
                "n/a" if r.maj_at_k is None else f"{r.maj_at_k:.2f}",
                "n/a" if r.pass_at_k is None else f"{r.pass_at_k:.2f}",
                "n/a" if r.mean_tokens_thousands is None else f"{r.mean_tokens_thousands:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)


def write_transcripts(path: Path, report: EvalReport) -> None:
    """Persist raw samples per problem for later --replay runs."""
    write_jsonl(path, ({"id": rec.problem.id, "samples": rec.samples} for rec in report.records))


def read_transcripts(path: Path) -> dict[str, list[str]]:
    return dict(read_jsonl(path, lambda row: (str(row["id"]), typed_field(row, "samples", list, str))))


# --- error attribution ----------------------------------------------------------


@dataclass(frozen=True)
class AttributionCounts:
    total: int
    what_to_solve: int
    how_to_solve: int
    facets: dict[str, int]
    unparseable: int

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_attribution(verdicts: Sequence[AttributionVerdict | None]) -> AttributionCounts:
    """Tally attribution verdicts; None entries count as unparseable."""
    facets = {facet.value: 0 for facet in Facet}
    what = how = unparseable = 0
    for verdict in verdicts:
        if verdict is None:
            unparseable += 1
            continue
        if verdict.is_what_to_solve:
            what += 1
            facets[verdict.facet.value] += 1
        else:
            how += 1
    return AttributionCounts(
        total=what + how,
        what_to_solve=what,
        how_to_solve=how,
        facets=facets,
        unparseable=unparseable,
    )
