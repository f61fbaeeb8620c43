"""Answer equivalence, maj@k / pass@k metrics, perturbations and reports.

The rule pipeline normalizes answer strings (whitespace, dollar signs,
\\left/\\right, frac variants, redundant braces) and canonicalizes anything
that parses as an exact rational, so "0.50", "1/2" and "\\frac{2}{4}" all
compare equal without floats. An optional LLM judge acts as a fallback for
pairs the rules cannot settle. On top of that sit the k-sample metrics,
the preplan perturbations for faithfulness probing, and the eval reports.
"""

from __future__ import annotations

import logging
import random
import re
import threading
from dataclasses import dataclass, replace
from enum import Enum
from math import gcd
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import prompts
from ._text import (
    JSON_ENCODER,
    atomic_outputs,
    count_tokens,
    read_by_id,
    split_sentences,
    typed_field,
)
from .clients import (
    ClientError,
    GenerationRequest,
    LlmClient,
    judge_equivalence,
    run_parallel,
)
from .synthesis import ProblemRecord, check_unique_ids
from .trajectory import extract_boxed, forced_prefix_for

log = logging.getLogger(__name__)


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
    redundant outer braces, and repeat the whitespace, dollar and brace
    stripping until it changes nothing, so the form of a form is itself
    ("{$1$}" -> "$1$" -> "1"); then canonicalize exact rationals (integers,
    a/b, \\frac{a}{b} and decimals) in integer arithmetic: "n" when the
    value is whole, else "n/d" in lowest terms with d > 0. A rational with
    a zero denominator, or with a digit run longer than `int` parses, is
    left as it is.
    """
    s = " ".join(text.split()).strip("$").strip()
    if "\\" in s:
        s = _LEFT_RIGHT.sub("", s).replace("\\dfrac", "\\frac").replace("\\tfrac", "\\frac")
    s = _strip_outer_braces(s).strip()
    while (bare := _strip_outer_braces(" ".join(s.split()).strip("$").strip()).strip()) != s:
        s = bare
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
    """True when normalized forms agree; else the judge's verdict when a
    fallback is configured.

    A judge call that fails after the client's retries, or whose reply is
    no verdict, raises a ClientError; inside `evaluate` it fails only its
    problem.
    """
    if pred is None:
        return False
    if normalize_answer(pred) == normalize_answer(gold):
        return True
    return fallback is not None and judge_equivalence(fallback, pred, gold)


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


def _derangement(n: int, rng: random.Random) -> list[int]:
    """Seeded fixed-point-free permutation of range(n); needs n >= 2."""
    indices = list(range(n))
    while True:
        rng.shuffle(indices)
        if all(i != j for i, j in enumerate(indices)):
            return indices


def _reordered(sentences: list[str], rng: random.Random) -> list[str]:
    """Seeded shuffle of the sentences that never returns their own order,
    unless fewer than two of them differ."""
    order = list(sentences)
    if len(set(sentences)) > 1:
        while order == sentences:
            rng.shuffle(order)
    return order


def perturb_preplan(preplans: Sequence[str], mode: PerturbationMode, seed: int) -> list[str]:
    """One forced prefix per preplan, in input order, perturbed per the mode.

    shuffled: each preplan's sentences in a random order drawn from the seed
    and the preplan's position, never its own order when two of its
    sentences differ; mismatched: the preplan at another position, assigned
    by one seeded derangement over the list (no position keeps its own),
    a ValueError for fewer than two preplans; generic: the fixed
    content-free text.
    """
    if mode == PerturbationMode.SHUFFLED:
        prefixes = []
        for i, preplan in enumerate(preplans):
            # a str seed is hashed with SHA-512, so every process draws the same order
            rng = random.Random(f"{seed}:{i}")
            prefixes.append(forced_prefix_for(" ".join(_reordered(split_sentences(preplan), rng))))
        return prefixes
    if mode == PerturbationMode.MISMATCHED:
        if len(preplans) < 2:
            raise ValueError("mismatched perturbation needs >= 2 preplans")
        mapping = _derangement(len(preplans), random.Random(seed))
        return [forced_prefix_for(preplans[j]) for j in mapping]
    return [forced_prefix_for(prompts.GENERIC_PREPLAN)] * len(preplans)


# --- evaluation loop ------------------------------------------------------------


@dataclass
class _Form:
    """One distinct normalized answer of a problem, its gold verdict and its answers."""

    form: str
    raw: str  # the first raw spelling
    first: int  # index of its first answer among the k
    correct: bool | None  # None until its gold verdict is judged
    count: int = 0


class _Scorer:
    """Normalized answers, per-answer verdicts, maj@k and pass@k of one problem,
    fed in index order and scored by `maj_at_k`'s rule.

    Each distinct spelling is normalized once, and answers with equal forms
    share one table row. `extend` makes no call: gold's own form is correct
    and, without a fallback, every other form wrong; it returns each other
    new row, which needs one `judge` call (its gold verdict) before `result`.
    The vote is counted from the rows in `result`. The correct forms make
    one class with no call. The wrong forms are linked (first-match, among
    wrong forms only) there too, and only when the counts cannot decide the
    vote: when the correct class neither outranks all wrong answers together
    nor is outranked by one wrong form alone. Classes rank by
    (count, -first). The fallback gets each form's first raw spelling, at
    most once per pair of forms: a form against gold, and in `result` a
    wrong form against each earlier class head. Feeding the answers in any
    chunks, and judging the returned rows in order, makes the same calls in
    the same order as feeding them all at once.
    """

    def __init__(self, gold: str, equivalence: Equivalence | None):
        self.gold = (normalize_answer(gold), gold)  # (form, raw spelling)
        self.equivalence = equivalence
        self.form_of: dict[str, str] = {}  # raw spelling -> normalized form
        self.rows: dict[str, _Form] = {}  # form -> its row, in order of first occurrence
        self.forms: list[str | None] = []

    def extend(self, answers: Sequence[str | None]) -> list[_Form]:
        """Add the next answers; the new rows whose gold verdict is still to judge."""
        forms, form_of, rows = self.forms, self.form_of, self.rows
        unjudged = []
        for raw in answers:
            if raw is None:
                forms.append(None)
                continue
            form = form_of.get(raw)
            if form is None:
                form = form_of[raw] = normalize_answer(raw)
            row = rows.get(form)
            if row is None:
                settled = form == self.gold[0] or (None if self.equivalence else False)
                row = rows[form] = _Form(form, raw, len(forms), settled)
                if settled is None:
                    unjudged.append(row)
            row.count += 1
            forms.append(form)
        return unjudged

    def judge(self, row: _Form) -> None:
        row.correct = self.equivalence(row.raw, self.gold[1])

    def result(self) -> tuple[list[str | None], list[bool], bool]:
        verdicts = [form is not None and self.rows[form].correct for form in self.forms]
        return self.forms, verdicts, self._vote()

    def _vote(self) -> bool:
        """Whether the correct class wins; links wrong forms only if the counts cannot tell."""
        correct = [row for row in self.rows.values() if row.correct]
        if not correct:
            return False
        wrong = [row for row in self.rows.values() if not row.correct]
        right = (sum(row.count for row in correct), -correct[0].first)
        if any((row.count, -row.first) > right for row in wrong):
            return False  # every class holding that wrong form wins
        if not wrong or self.equivalence is None:
            return True  # no wrong answer, or each wrong form is its own class
        if right > (sum(row.count for row in wrong), -wrong[0].first):
            return True  # the correct class outranks all wrong answers together
        heads: list[_Form] = []  # each wrong class's first form
        sizes: list[int] = []  # and its number of answers
        for row in wrong:
            for n, head in enumerate(heads):
                if self.equivalence(row.raw, head.raw):  # rows hold distinct forms: only the fallback links them
                    sizes[n] += row.count
                    break
            else:
                heads.append(row)
                sizes.append(row.count)
        return all(right > (size, -head.first) for head, size in zip(heads, sizes))


@dataclass
class EvalRecord:
    problem: ProblemRecord
    samples: list[str]
    answers: list[str | None]
    verdicts: list[bool]
    maj_correct: bool
    token_counts: list[int]

    @property
    def pass_correct(self) -> bool:
        return any(self.verdicts)

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


def _percent(hits: list[bool]) -> float | None:
    """The share of hits in percent, to two decimals; None for no hits to count."""
    return round(100.0 * sum(hits) / len(hits), 2) if hits else None


@dataclass
class EvalReport:
    """One benchmark's scored problems; each aggregate is read from `records`.

    `transcripts` holds (id, samples) of every problem with a landed sample,
    failed ones too, in input order, None for a slot not drawn."""

    benchmark: str
    k: int
    failed: int
    records: list[EvalRecord]
    transcripts: list[tuple[str, list[str | None]]]

    @property
    def problems(self) -> int:
        return len(self.records)

    @property
    def maj_at_k(self) -> float | None:
        return _percent([r.maj_correct for r in self.records])

    @property
    def pass_at_k(self) -> float | None:
        return _percent([r.pass_correct for r in self.records])

    @property
    def mean_tokens(self) -> float | None:
        counts = [c for r in self.records for c in r.token_counts]
        return sum(counts) / len(counts) if counts else None

    @property
    def mean_tokens_thousands(self) -> float | None:
        mean = self.mean_tokens
        return None if mean is None else round(mean / 1000.0, 2)

    def to_dict(self) -> dict:
        keys = ("benchmark", "k", "problems", "failed", "maj_at_k", "pass_at_k", "mean_tokens", "mean_tokens_thousands")
        return {key: getattr(self, key) for key in keys}


DEFAULT_EVAL_SAMPLING = GenerationRequest(
    user_prompt="", system_prompt=prompts.EVAL_SYSTEM_PROMPT
)


def evaluate(
    problems: Sequence[ProblemRecord],
    k: int,
    client: LlmClient | None = None,
    *,
    prefixes: Mapping[str, str] | None = None,
    equivalence: Equivalence | None = None,
    replay: Mapping[str, Sequence[str | None]] | None = None,
    params: GenerationRequest = DEFAULT_EVAL_SAMPLING,
    parallelism: int = 1,
    benchmark: str = "bench",
) -> EvalReport:
    """Score a benchmark with k samples per problem.

    Each problem's k slots start as its `replay` row (none without
    `replay`), cut to k; every slot still empty, or None, is drawn from
    `client`, so a full row makes no policy call and a short one draws only
    its missing slots. A problem's draws start from its `prefixes` entry as
    the forced prefix (unforced when it has none), and each drawn sample is
    that prefix followed by the continuation. Without a client, a row short
    of k is a ValueError before any call. A repeated problem id raises
    ValueError before any call. Problems whose generation fails entirely are
    counted separately and excluded from the metric denominators; the
    report's transcripts keep their landed samples.

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

    The k slots go through one scheduler: each slot to draw is a (problem,
    sample) unit, and a problem with none is one unit that only scores it.
    `parallelism` (>= 1) bounds the endpoint calls in flight. The units are
    spread over that many workers, so a problem's samples run side by side
    and each record still holds sample j at index j, wherever it came from.
    Judge calls run inside the same workers. A problem's gold verdicts start
    once its last unit has started; then each worker that lands one of its
    samples takes one unjudged form at a time, beside the others. The calls are those of scoring all k answers at once,
    in that order at parallelism 1, and a problem that fails before its last
    unit starts pays none. A ClientError from the fallback, gold verdict
    or linkage, an unusable verdict included, fails only that problem; any
    other exception, or Ctrl-C, stops every worker after its current call.
    With no slot to draw and no fallback, no call is made and the work runs
    in the caller's thread.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if client is None and replay is None:
        raise ValueError("need a client or replay transcripts")
    check_unique_ids(problems)

    samples: list[list[str | None]] = []
    for problem in problems:
        row = list((replay or {}).get(problem.id, ()))[:k]
        row += [None] * (k - len(row))
        if client is None and None in row:
            raise ValueError(f"replay has {k - row.count(None)} samples for {problem.id!r}, need {k}")
        samples.append(row)
    forced = prefixes or {}
    requests = [replace(params, user_prompt=p.question, forced_prefix=forced.get(p.id)) for p in problems]
    if equivalence is None and not any(None in row for row in samples):
        parallelism = 1  # rules only, nothing to draw: no endpoint call for a thread to overlap
    outcomes = _sample(problems, samples, requests, client, equivalence, parallelism)
    records = [r for r in outcomes if r is not None]
    landed = [(p.id, row) for p, row in zip(problems, samples) if row.count(None) < k]
    return EvalReport(benchmark, k, len(outcomes) - len(records), records, landed)


class _Stopped(Exception):
    """A judge call refused because the run stopped."""


def _sample(
    problems: Sequence[ProblemRecord],
    samples: list[list[str | None]],
    requests: Sequence[GenerationRequest],
    client: LlmClient | None,
    equivalence: Equivalence | None,
    parallelism: int,
) -> list[EvalRecord | None]:
    """Each problem's k samples, scored; None for a problem whose generation failed.

    `samples[i][j]` is sample j of problem i, or None for one still to draw:
    the request's forced prefix (if any) followed by
    `client.generate(requests[i])`, stored at index j whatever order calls
    finish in, and kept if the problem fails. Each sample to draw is one
    unit of work; a problem with none left to draw gets one unit, which only
    scores it. The units run on `run_parallel` in problem-major order, so a
    problem's calls run side by side. Each landing is one locked step: it
    stores the sample and, once the problem's last unit has started, feeds
    the landed prefix and claims the next unjudged form; each worker then
    goes on judging one claimed form per step. The step that finds every
    sample fed and no verdict left or in flight completes the problem and
    builds its record. A problem's first ClientError, from its policy or its
    judge, marks it failed: its units not yet started make no call, and no
    further form of it is claimed. Once an error or Ctrl-C sets the pool's
    stop event, no unit and no judge call starts.
    """
    failed = [False] * len(problems)
    draining = [False] * len(problems)  # the problem's last unit has started
    unjudged: list[list[_Form]] = [[] for _ in problems]  # fed forms no worker has claimed
    judging = [0] * len(problems)  # gold verdicts in flight
    outcomes: list[EvalRecord | None] = [None] * len(problems)
    to_draw = [[j for j, s in enumerate(row) if s is None] or [None] for row in samples]
    units = [(i, j) for i, js in enumerate(to_draw) for j in js]  # (i, None) only scores
    lock = threading.Lock()
    stop = threading.Event()

    def fail(i: int, exc: Exception) -> None:
        with lock:
            first, failed[i] = not failed[i], True
        if first:
            log.warning("problem %s failed entirely: %s", problems[i].id, exc)

    def judge(pred: str, gold: str) -> bool:
        if stop.is_set():
            raise _Stopped
        return equivalence(pred, gold)

    scorers = [_Scorer(p.gold_answer, None if equivalence is None else judge) for p in problems]

    def drain(i: int, j: int | None, text: str | None) -> None:
        """Store sample j of problem i, then feed its landed prefix and judge its unjudged forms,
        one claim per locked step; the step that finds every sample fed and no verdict left or
        in flight builds the record."""
        row, scorer, queue = samples[i], scorers[i], unjudged[i]
        k = len(row)
        claimed = None
        while True:
            with lock:
                judging[i] -= claimed is not None
                if claimed is None and j is not None:
                    row[j] = text
                if failed[i] or not draining[i]:
                    return  # failed, or the landing of a later unit feeds this sample
                start = end = len(scorer.forms)  # the prefix already fed
                while end < k and row[end] is not None:
                    end += 1
                # The whole sample, not just its execute block: eval scores any final boxed answer.
                queue += scorer.extend([extract_boxed(s) for s in row[start:end]])
                if not queue:
                    if end < k or judging[i]:
                        return  # the worker that lands the next sample, or ends the last verdict, goes on
                    break
                claimed = queue.pop(0)
                judging[i] += 1
            scorer.judge(claimed)
        forms, verdicts, maj = scorer.result()
        outcomes[i] = EvalRecord(problems[i], row, forms, verdicts, maj, [count_tokens(s) for s in row])

    def run(unit: tuple[int, int | None]) -> None:
        i, j = unit
        if failed[i]:
            return
        if j == to_draw[i][-1]:
            # Set before the call: a landing that still reads False is fed when this unit lands.
            draining[i] = True
        try:
            text = None if j is None else (requests[i].forced_prefix or "") + client.generate(requests[i])
            drain(i, j, text)
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


# The last match of this in a records row encoded with samples=None is that
# key: the keys that sort after "samples" (token_counts, verdicts) hold no string.
_SAMPLES_STAND_IN = '"samples": null'


def write_eval_outputs(out_dir: Path, report: EvalReport) -> None:
    """Write <benchmark>.transcripts.jsonl, .records.jsonl and .report.json.

    The transcripts ({id, samples} per `report.transcripts` row, null for a
    slot not drawn) are what --replay reads; the records are the scored ones.
    Each JSONL line equals json.dumps(row, sort_keys=True, ensure_ascii=False).
    A record's samples, nearly all of both its lines, are encoded once for
    both. `out_dir` and its missing parents are created. The files are
    streamed a record at a time and replace their targets only after the
    last record, the report last: an error leaves none of them in place, and
    removes `out_dir` again if this call created it.
    """
    encode = JSON_ENCODER.encode
    stem = report.benchmark
    names = (f"{stem}.report.json", f"{stem}.transcripts.jsonl", f"{stem}.records.jsonl")
    scored = {rec.problem.id: rec for rec in report.records}
    with atomic_outputs(out_dir, *names) as (report_file, transcripts, records):
        for pid, slots in report.transcripts:
            samples = encode(slots)
            transcripts.write(f'{{"id": {encode(pid)}, "samples": {samples}}}\n')
            if (rec := scored.get(pid)) is None:
                continue
            row = rec.to_dict()
            row["samples"] = None
            head, _, tail = encode(row).rpartition(_SAMPLES_STAND_IN)
            records.write(f'{head}"samples": {samples}{tail}\n')
        report_file.write(encode(report.to_dict()) + "\n")


def read_transcripts(path: Path) -> dict[str, list[str | None]]:
    """Samples per problem id, None for a slot not drawn; a repeated id is a ValueError naming its line."""
    return read_by_id(path, lambda row: typed_field(row, "samples", list, str, type(None)))
