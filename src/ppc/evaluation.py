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
    UnparseableVerdict,
    judge_equivalence,
    run_parallel,
)
from .synthesis import ProblemRecord, check_unique_ids
from .trajectory import extract_boxed, forced_prefix_for, read_trajectory

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

    A judge call that fails after the client's retries raises its
    ClientError, and a reply that is no verdict raises UnparseableVerdict;
    inside `evaluate` either fails only its problem.
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
    correct: bool
    count: int = 0


class _Scorer:
    """Normalized answers, per-answer verdicts, maj@k and pass@k of one problem,
    scored as its answers arrive in index order, by `maj_at_k`'s rule.

    Each distinct spelling is normalized once, and answers with equal forms
    share one table row. A new form gets its gold verdict at once: one call
    per distinct form. The vote is counted from the rows in `result`, after
    the last answer. The correct forms make one class with no call. The
    wrong forms are linked (first-match, among wrong forms only) there too,
    and only when the counts cannot decide the vote: when the correct class
    neither outranks all wrong answers together nor is outranked by one
    wrong form alone. Classes rank by (count, -first). The fallback gets
    each form's first raw spelling, at most once per pair of forms: a new
    form against gold, and in `result` (once per problem) a wrong form
    against each earlier class head, which is never gold's form. Feeding
    the answers in any chunks makes the same calls, in the same order, as
    feeding them all at once.
    """

    def __init__(self, gold: str, equivalence: Equivalence | None):
        self.gold = (normalize_answer(gold), gold)  # (form, raw spelling)
        self.equivalence = equivalence
        self.form_of: dict[str, str] = {}  # raw spelling -> normalized form
        self.rows: dict[str, _Form] = {}  # form -> its row, in order of first occurrence
        self.forms: list[str | None] = []
        self.verdicts: list[bool] = []

    def extend(self, answers: Sequence[str | None]) -> None:
        forms, verdicts, form_of, rows = self.forms, self.verdicts, self.form_of, self.rows
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
            row.count += 1
            forms.append(form)
            verdicts.append(row.correct)

    def result(self) -> tuple[list[str | None], list[bool], bool]:
        return self.forms, self.verdicts, self._vote()

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
        return self.equivalence is not None and self.equivalence(raw, other_raw)


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
    """One benchmark's scored problems; each aggregate is read from `records`."""

    benchmark: str
    k: int
    failed: int
    records: list[EvalRecord]

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
    mode: PerturbationMode | None = None,
    seed: int = 0,
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
    its missing slots. Without a client, a row short of k is a ValueError
    before any call. With a perturbation `mode`, one unforced base
    sample per problem supplies the original preplan; generation then
    restarts from the prefill that `perturb_preplan` draws with `seed`, so a
    mode together with `replay` is a ValueError. The generic mode reads no
    preplan and draws no base sample. A repeated problem id, or a mismatched
    mode over fewer than two problems, raises ValueError before any call.
    Problems whose generation fails entirely are counted separately and
    excluded from the metric denominators. In a perturbed eval, a problem
    whose base sample fails is such a problem: it makes no further call and
    is left out of the perturbation pool, so a mismatched pool left with
    fewer than two preplans raises ValueError. A shuffled problem's order
    is drawn from its position in `problems`, so it is the same whichever
    other base samples fail.

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

    Base samples and the k slots go through one scheduler: each slot to
    draw is a (problem, sample) unit, and a problem with none is one unit
    that only scores it. `parallelism` (>= 1) bounds the endpoint calls in
    flight. The units are spread over that many workers, so a problem's
    samples run side by side and each record still holds sample j at index
    j, wherever it came from. Judge calls run inside the
    same workers. Gold verdicts start as soon as a problem's samples have
    landed in index order, while its later samples are still being drawn;
    so a problem that fails after part of its samples landed may already
    have paid judge calls for them. A ClientError or UnparseableVerdict
    from the fallback, gold verdict or linkage, fails only that problem; any
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
    if mode is not None and replay is not None:
        raise ValueError("a perturbation needs live generation, not replay transcripts")
    if mode == PerturbationMode.MISMATCHED and len(problems) < 2:
        raise ValueError("mismatched perturbation needs >= 2 preplans")
    check_unique_ids(problems)

    prefixes: dict[str, str] = {}
    failed = 0
    if mode is not None:
        if mode == PerturbationMode.GENERIC:
            base: list[str | None] = [""] * len(problems)  # the generic prefix reads no preplan
        else:
            unforced = [replace(params, user_prompt=p.question) for p in problems]
            drawn = _sample(problems, [[None] for _ in problems], unforced, client, None, parallelism)
            base = [None if r is None else read_trajectory(r.samples[0]).preplan for r in drawn]
        landed = [i for i, preplan in enumerate(base) if preplan is not None]
        # mismatched deranges the landed preplans; shuffled seeds each row by its input position
        rows = landed if mode == PerturbationMode.MISMATCHED else range(len(base))
        perturbed = dict(zip(rows, perturb_preplan([base[i] or "" for i in rows], mode, seed)))
        failed = len(problems) - len(landed)
        prefixes = {problems[i].id: perturbed[i] for i in landed}
        problems = [problems[i] for i in landed]

    samples: list[list[str | None]] = []
    for problem in problems:
        row = list((replay or {}).get(problem.id, ()))[:k]
        row += [None] * (k - len(row))
        if client is None and None in row:
            raise ValueError(f"replay has {k - row.count(None)} samples for {problem.id!r}, need {k}")
        samples.append(row)
    requests = [replace(params, user_prompt=p.question, forced_prefix=prefixes.get(p.id)) for p in problems]
    if equivalence is None and not any(None in row for row in samples):
        parallelism = 1  # rules only, nothing to draw: no endpoint call for a thread to overlap
    outcomes = _sample(problems, samples, requests, client, equivalence, parallelism)
    records = [r for r in outcomes if r is not None]
    return EvalReport(benchmark, k, failed + len(outcomes) - len(records), records)


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

    `samples[i][j]` is sample j of problem i, or None for one still to draw:
    the request's forced prefix (if any) followed by
    `client.generate(requests[i])`, stored at index j whatever order calls
    finish in. Each sample to draw is one unit of work; a problem with
    none left to draw gets one unit, which only scores it. The units run on
    `run_parallel` in problem-major order, so a problem's calls run side by
    side. A worker that lands a sample, or takes a scoring unit, feeds the
    problem's landed prefix (samples 0..m-1) to its scorer, one worker per
    problem at a time, so gold verdicts run while other workers keep
    sampling; the record, with any linkage calls its vote needs, is built
    once the prefix reaches k. A problem's first ClientError, or a judge's
    UnparseableVerdict, marks it failed: its units not yet started make no
    call, and its scorer makes no further judge call. Once an error or
    Ctrl-C sets the pool's stop event, no unit and no judge call starts.
    """
    busy = [False] * len(problems)  # a worker is feeding the problem's scorer
    failed = [False] * len(problems)
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

    def guarded(i: int) -> Equivalence | None:
        if equivalence is None:
            return None

        def judge(pred: str, gold: str) -> bool:
            if stop.is_set() or failed[i]:
                raise _Stopped
            return equivalence(pred, gold)

        return judge

    scorers = [_Scorer(p.gold_answer, guarded(i)) for i, p in enumerate(problems)]

    def feed(i: int) -> None:
        """Score problem i's landed prefix until none is left; the caller set busy[i]."""
        row, scorer = samples[i], scorers[i]
        k = len(row)
        while True:
            with lock:
                start = end = len(scorer.forms)  # the prefix already fed
                while end < k and row[end] is not None:
                    end += 1
                if end == start:
                    busy[i] = False
                    return
                landed = row[start:end]
            # The whole sample, not just its execute block: eval scores any final boxed answer.
            scorer.extend([extract_boxed(s) for s in landed])
            if end == k:
                forms, verdicts, maj = scorer.result()
                outcomes[i] = EvalRecord(problems[i], row, forms, verdicts, maj, [count_tokens(s) for s in row])
                return

    def run(unit: tuple[int, int | None]) -> None:
        i, j = unit
        if failed[i]:
            return
        try:
            text = None if j is None else (requests[i].forced_prefix or "") + client.generate(requests[i])
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
        except (ClientError, UnparseableVerdict) as exc:
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

    The transcripts ({id, samples} per problem) are what --replay reads.
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
    with atomic_outputs(out_dir, *names) as (report_file, transcripts, records):
        for rec in report.records:
            samples = encode(rec.samples)
            transcripts.write(f'{{"id": {encode(rec.problem.id)}, "samples": {samples}}}\n')
            row = rec.to_dict()
            row["samples"] = None
            head, _, tail = encode(row).rpartition(_SAMPLES_STAND_IN)
            records.write(f'{head}"samples": {samples}{tail}\n')
        report_file.write(encode(report.to_dict()) + "\n")


def read_transcripts(path: Path) -> dict[str, list[str]]:
    """Samples per problem id; a repeated id is a ValueError naming its line."""
    return read_by_id(path, lambda row: typed_field(row, "samples", list, str))
