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
from dataclasses import asdict, dataclass, replace
from enum import Enum
from math import gcd
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
from .synthesis import ProblemRecord, check_unique_ids
from .trajectory import boxed_or_none, read_trajectory

log = logging.getLogger(__name__)


class PoolTooSmall(ValueError):
    pass


# --- answer normalization ----------------------------------------------------

_LEFT_RIGHT = re.compile(r"\\(left|right)(?![a-zA-Z])")
_INT = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL = re.compile(r"^([+-]?)(?=\.?[0-9])([0-9]*)\.([0-9]*)$")
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


def normalize_answer(text: str) -> str:
    """Canonical comparison form of a final answer.

    Pipeline: trim, collapse whitespace, strip surrounding dollar signs,
    drop \\left/\\right, map \\dfrac/\\tfrac to \\frac, strip one layer of
    redundant outer braces, then canonicalize exact rationals (integers,
    a/b, \\frac{a}{b} and decimals) in integer arithmetic: "n" when the
    value is whole, else "n/d" in lowest terms with d > 0. A rational with
    a zero denominator, or with a digit run longer than `int` parses, is
    left as it is.
    """
    s = " ".join(text.split()).strip("$").strip()
    if "\\" in s:
        s = _LEFT_RIGHT.sub("", s).replace("\\dfrac", "\\frac").replace("\\tfrac", "\\frac")
    s = _strip_outer_braces(s).strip()
    try:
        if _INT.match(s):
            return str(int(s))
        if m := _DECIMAL.match(s):
            sign, whole, digits = m.groups()
            den = 10 ** len(digits)
            num = int(whole or "0") * den + int(digits or "0")
        elif m := _SLASH.match(s):
            sign, num, den = "", int(m[1]), int(m[2])
        elif m := _FRAC.match(s):
            sign, num, den = m[1], int(m[2]), int(m[3])
        else:
            return s
    except ValueError:
        return s  # a digit run longer than sys.get_int_max_str_digits()
    if not den:
        return s
    g = gcd(num, den)
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    if sign == "-":
        num = -num
    return str(num) if den == 1 else f"{num}/{den}"


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

    Each answer gets its own gold verdict, and the correct answers form one
    class. A wrong answer joins the first wrong class it matches (first-match
    linkage, deterministic in input order); absent answers form no class.
    The largest class wins, ties broken by earliest first occurrence, and the
    vote is correct when the correct class wins. For an equivalence relation
    this is the plain partition of the answers; a non-transitive judge never
    links a wrong answer to a correct one.
    """
    if not answers:
        raise ValueError("need at least one answer")
    right: list[int] = []  # indices of the correct answers
    classes: list[dict] = []
    for index, answer in enumerate(answers):
        if answer is None:
            continue
        if equivalence(answer, gold):
            right.append(index)
            continue
        for cls in classes:
            if equivalence(answer, cls["rep"]):
                cls["count"] += 1
                break
        else:
            classes.append({"rep": answer, "count": 1, "first": index})
    if not right:
        return False
    return all((len(right), -right[0]) > (c["count"], -c["first"]) for c in classes)


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
    """One distinct normalized answer of a problem, its gold verdict and its answers."""

    form: str
    raw: str  # the first raw spelling
    first: int  # index of its first answer among the k
    correct: bool
    count: int = 0


class _Scorer:
    """Normalized answers, per-answer verdicts, maj@k and pass@k of one problem,
    scored as its answers arrive in index order, by `maj_at_k`'s rule.

    Each distinct spelling is normalized once, and answers with equal forms
    share one table row. A new form gets its gold verdict at once: one call
    per distinct form. The correct forms make one class with no call. The
    wrong forms are linked (first-match, among wrong forms only) in
    `result`, after the last answer, and only when the counts cannot decide
    the vote: when the correct class neither outranks all wrong answers
    together nor is outranked by one wrong form alone. Classes rank by
    (count, -first). The fallback is asked at most once per pair of forms,
    with each form's first raw spelling, so feeding the answers in any
    chunks makes the same calls, in the same order, as feeding them all at
    once.
    """

    def __init__(self, gold: str, equivalence: Equivalence | None):
        self.gold = (normalize_answer(gold), gold)  # (form, raw spelling)
        self.equivalence = equivalence
        self.memo: dict[tuple[str, str], bool] = {}
        self.form_of: dict[str, str] = {}  # raw spelling -> normalized form
        self.rows: dict[str, _Form] = {}  # form -> its row, in order of first occurrence
        self.forms: list[str | None] = []
        self.verdicts: list[bool] = []
        # Running tallies, so a rules-only vote is O(1).
        self.right = 0  # correct answers
        self.right_first = -1  # index of the first, once one lands
        self.best: _Form | None = None  # the wrong form that ranks highest

    def extend(self, answers: Sequence[str | None]) -> None:
        forms, verdicts, form_of, rows = self.forms, self.verdicts, self.form_of, self.rows
        right, best = self.right, self.best
        for raw in answers:
            if raw is None:
                forms.append(None)
                verdicts.append(False)
                continue
            form = form_of.get(raw)
            if form is None:
                form = form_of[raw] = normalize_answer(raw)
            row = rows.get(form)
            if row is None:
                row = rows[form] = _Form(form, raw, len(forms), self._same(form, raw, *self.gold))
                if row.correct and self.right_first < 0:
                    self.right_first = row.first
            row.count += 1
            correct = row.correct
            forms.append(form)
            verdicts.append(correct)
            if correct:
                right += 1
            else:
                # (row.count, -row.first) > (best.count, -best.first), without the tuples
                count = row.count
                if best is None or count > best.count or (
                    count == best.count and row.first < best.first
                ):
                    best = row
        self.right, self.best = right, best

    def result(self) -> tuple[list[str | None], list[bool], bool, bool]:
        return self.forms, self.verdicts, self._vote(), self.right > 0

    def _vote(self) -> bool:
        """Whether the correct class wins; links wrong forms only if the counts cannot tell."""
        if not self.right:
            return False
        right, best = (self.right, -self.right_first), self.best
        if best is not None and (best.count, -best.first) > right:
            return False  # every class holding that wrong form wins
        if best is None or self.equivalence is None:
            return True  # no wrong answer, or each wrong form is its own class
        wrong = [row for row in self.rows.values() if not row.correct]
        if right > (sum(row.count for row in wrong), -wrong[0].first):
            return True  # the correct class outranks all wrong answers together
        heads: list[_Form] = []  # each wrong class's first form
        sizes: list[int] = []  # and its number of answers
        for row in wrong:
            for n, head in enumerate(heads):
                if self._same(row.form, row.raw, head.form, head.raw):
                    sizes[n] += row.count
                    break
            else:
                heads.append(row)
                sizes.append(row.count)
        return all(right > (size, -head.first) for head, size in zip(heads, sizes))

    def _same(self, form: str, raw: str, other_form: str, other_raw: str) -> bool:
        if form == other_form:
            return True
        if self.equivalence is None:
            return False
        key = (form, other_form)
        if key not in self.memo:
            self.memo[key] = self.equivalence(raw, other_raw)
        return self.memo[key]


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
    is a ValueError. The generic mode reads no preplan and draws no base
    sample. A repeated problem id raises DuplicateId before any call.
    Problems whose generation fails entirely are counted separately and
    excluded from the metric denominators. In a perturbed eval, a problem
    whose base sample fails is such a problem: it makes no further call and
    is left out of the perturbation pool, so a mismatched pool left with
    fewer than two preplans raises PoolTooSmall.

    Answers with equal normalized forms are the same answer, with no call
    made. `equivalence` is a fallback consulted only for answers whose
    normalized forms differ, at most once per pair of forms per problem,
    with each form's first raw spelling: one gold verdict per distinct
    form, and, only when the counts cannot decide the vote, linkage among
    the wrong forms after the problem's last sample. None (the default)
    means the normalization rules only. When the fallback's verdict depends
    only on the normalized forms, the results equal `maj_at_k` and
    `pass_at_k` over the raw answers with `answers_equivalent` plus that
    fallback; they change with the linkage rule only for a judge that is
    not transitive, which never links a wrong answer to a correct one.

    Base, live and replayed samples go through one scheduler; a replayed
    problem is one unit that only scores it. `parallelism` bounds the
    endpoint calls in flight. Live sampling spreads (problem, sample) units
    over that many workers, so a problem's k samples run side by side and
    each record still holds sample j at index j. Judge calls run inside the
    same workers. Gold verdicts start as soon as a problem's samples have
    landed in index order, while its later samples are still being drawn;
    so a problem that fails after part of its samples landed may already
    have paid judge calls for them. A ClientError from the fallback, gold
    verdict or linkage, fails only that problem; any other exception, or
    Ctrl-C, stops every worker after its current call. Rules-only replay
    makes no call and runs in the caller's thread.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if replay is None and client is None:
        raise ValueError("need a client or replay transcripts")
    if mode is not None and replay is not None:
        raise ValueError("a perturbation needs live generation, not replay transcripts")
    check_unique_ids(problems)

    prefixes: dict[str, str] = {}
    failed = 0
    if mode is not None:
        if mode.mode == PerturbationMode.GENERIC:
            base: list[str | None] = [""] * len(problems)  # the generic prefix reads no preplan
        else:
            unforced = [replace(params, user_prompt=p.question) for p in problems]
            drawn = _sample(problems, [[None] for _ in problems], unforced, client, None, parallelism)
            base = [None if r is None else read_trajectory(r.samples[0]).preplan for r in drawn]
        pool = [(p, preplan) for p, preplan in zip(problems, base) if preplan is not None]
        failed = len(problems) - len(pool)
        problems = [p for p, _ in pool]
        prefixes = dict(zip((p.id for p in problems), perturb_preplan([b for _, b in pool], mode)))

    if replay is None:
        samples: list[list[str | None]] = [[None] * k for _ in problems]
        requests = [
            replace(params, user_prompt=p.question, forced_prefix=prefixes.get(p.id))
            for p in problems
        ]
    else:
        samples, requests = [list(replay.get(p.id, []))[:k] for p in problems], []
        for problem, drawn in zip(problems, samples):
            if len(drawn) < k:
                raise ValueError(f"replay has {len(drawn)} samples for {problem.id!r}, need {k}")
        if equivalence is None:
            parallelism = 1  # rules only makes no endpoint call for a thread to overlap
    outcomes = _sample(problems, samples, requests, client, equivalence, parallelism)
    records = [r for r in outcomes if r is not None]
    failed += len(outcomes) - len(records)

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


def _answers(samples: Sequence[str]) -> list[str | None]:
    # The whole sample, not just its execute block: eval scores any final boxed answer.
    return [boxed_or_none(s) for s in samples]


def _record(problem: ProblemRecord, samples: list[str], scorer: _Scorer) -> EvalRecord:
    forms, verdicts, maj, passed = scorer.result()
    return EvalRecord(
        problem=problem,
        samples=samples,
        answers=forms,
        verdicts=verdicts,
        maj_correct=maj,
        pass_correct=passed,
        token_counts=[count_tokens(s) for s in samples],
    )


class _Stopped(Exception):
    """A judge call refused because the run stopped or the problem failed."""


def _sample(
    problems: Sequence[ProblemRecord],
    samples: list[list[str | None]],
    requests: Sequence[GenerationRequest],
    client: LlmClient | None,
    equivalence: Equivalence | None,
    parallelism: int,
) -> list[EvalRecord | None]:
    """Each problem's k samples, scored; None for a problem whose generation failed.

    `samples[i][j]` is sample j of problem i, or None for one still to draw
    with `client.generate(requests[i])`, stored at index j whatever order
    calls finish in. Each sample to draw is one unit of work; a problem with
    none left to draw gets one unit, which only scores it. The units run on
    `run_parallel` in problem-major order, so a problem's calls run side by
    side. A worker that lands a sample, or takes a scoring unit, feeds the
    problem's landed prefix (samples 0..m-1) to its scorer, one worker per
    problem at a time, so gold verdicts run while other workers keep
    sampling; the record, with any linkage calls its vote needs, is built
    once the prefix reaches k. A problem's first ClientError marks it
    failed: its units not yet started make no call, and its scorer makes no
    further judge call. Once an error or Ctrl-C sets the pool's stop event,
    no unit and no judge call starts.
    """
    fed = [0] * len(problems)  # length of the prefix fed to the problem's scorer
    busy = [False] * len(problems)  # a worker is feeding the problem's scorer
    failed = [False] * len(problems)
    scorers: list[_Scorer | None] = [None] * len(problems)
    outcomes: list[EvalRecord | None] = [None] * len(problems)
    to_draw = [[j for j, s in enumerate(row) if s is None] or [None] for row in samples]
    units = [(i, j) for i, js in enumerate(to_draw) for j in js]  # (i, None) only scores
    lock = threading.Lock()
    stop = threading.Event()

    def fail(i: int, exc: ClientError) -> None:
        with lock:
            first, failed[i] = not failed[i], True
        if first:
            log.warning("problem %s failed entirely: %s", problems[i].id, exc)

    def guarded(i: int) -> Equivalence | None:
        if equivalence is None:
            return None

        def judge(pred: str, gold: str) -> bool:
            if stop.is_set() or failed[i]:
                raise _Stopped
            return equivalence(pred, gold)

        return judge

    def feed(i: int) -> None:
        """Score problem i's landed prefix until none is left; the caller set busy[i]."""
        row = samples[i]
        k = len(row)
        while True:
            with lock:
                start = end = fed[i]
                while end < k and row[end] is not None:
                    end += 1
                if end == start:
                    busy[i] = False
                    return
                fed[i] = end
                landed = row[start:end]
            if scorers[i] is None:
                scorers[i] = _Scorer(problems[i].gold_answer, guarded(i))
            scorers[i].extend(_answers(landed))
            if end == k:
                outcomes[i] = _record(problems[i], row, scorers[i])
                return

    def run(unit: tuple[int, int | None]) -> None:
        i, j = unit
        if failed[i]:
            return
        try:
            text = None if j is None else client.generate(requests[i])
        except ClientError as exc:
            fail(i, exc)
            return
        with lock:
            if j is not None:
                samples[i][j] = text
            if busy[i]:
                return  # the feeding worker picks this sample up
            busy[i] = True
        try:
            feed(i)
        except _Stopped:
            pass
        except ClientError as exc:
            fail(i, exc)

    run_parallel(run, units, parallelism, stop)
    return outcomes


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
    """Samples per problem id; a repeated id is a ValueError naming its line."""
    transcripts: dict[str, list[str]] = {}

    def add(row: dict) -> None:
        pid = str(row["id"])
        if pid in transcripts:
            raise ValueError(f"repeated id {pid!r}")
        transcripts[pid] = typed_field(row, "samples", list, str)

    for _ in read_jsonl(path, add):
        pass
    return transcripts


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
