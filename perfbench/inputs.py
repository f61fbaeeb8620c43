"""Seeded input generators for the four benchmark workloads.

Every generator takes the seed as an argument and returns plain data plus
the expected outcome of each item, so the output checks compare ppc's
results with facts the generator planned rather than with ppc's own code.
Category counts are fixed per workload and the seed only decides which
item gets which category and what its texts say, so the amount of work in
a pass does not depend on the seed.

Spoiler snippets fire exactly one of the six spoiler signals each; answer
spellings are problem-unique, so a judge request can be traced back to its
problem from the two answers it carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from ppc.synthesis import ProblemRecord

# --- prose -------------------------------------------------------------------

# No digits, "$", "=", tags, "boxed", derivation or answer phrases: filler
# built from these words fires no spoiler signal and no format violation.
_WORDS = (
    "careful structure analysis the problem consider cases boundary constraint "
    "method count symmetry parity invariant approach pitfall avoid double check "
    "domain relevant tools natural strategy organize before arithmetic setup "
    "pattern notice each term factor bound estimate order sign region shape "
    "angle chord sequence limit graph edge vertex and of a with for in on is "
    "should may will this that every small large first last inner outer"
).split()


class Prose:
    """Signal-free sentences drawn from a seeded pool."""

    def __init__(self, rng: random.Random, size: int = 256):
        self.pool = []
        for _ in range(size):
            words = [rng.choice(_WORDS) for _ in range(rng.randint(8, 14))]
            self.pool.append(" ".join(words).capitalize() + ".")

    def text(self, rng: random.Random, tokens: int) -> str:
        out, n = [], 0
        while n < tokens:
            sentence = rng.choice(self.pool)
            out.append(sentence)
            n += len(sentence.split())
        return " ".join(out)


# One snippet per spoiler signal; each fires its own signal and no other,
# alone or combined with the others.
SIGNAL_SNIPPETS = {
    "derivation_phrasing": "Then this simplifies to a cleaner form.",
    "equation_density": "Let a = b, c = d and e = f.",
    "long_math_spans": (
        "Compare $x_{alpha} + y_{beta} + z_{gamma} + w$ "
        "with $p_{alpha} + q_{beta} + r_{gamma} + s$."
    ),
    "multidigit_constant": "A bound near 1001 matters here.",
    "answer_phrasing": "So we obtain the target.",
    "math_span_count": "Track $a$, $b$, $c$ and $d$ throughout.",
}
SIGNALS = tuple(SIGNAL_SNIPPETS)
TAU_S = 2
LENGTH_BOUNDS = (150, 1500)


def preplan_text(rng: random.Random, prose: Prose, signals, tokens: int) -> str:
    """Prose of about `tokens` whitespace tokens carrying the given signals."""
    parts = prose.text(rng, tokens).split(". ")
    for name in signals:
        parts.insert(rng.randrange(len(parts) + 1), SIGNAL_SNIPPETS[name].rstrip("."))
    return ". ".join(parts).rstrip(".") + "."


def token_count(text: str) -> int:
    return len(text.split())


# --- answers -------------------------------------------------------------------


def spell(value: Fraction, style: int) -> str:
    """A positive rational in one of four spellings the normalization rules equate."""
    n, d = value.numerator, value.denominator
    style %= 4
    if style == 0:
        return f"{n}/{d}"
    if style == 1:
        return f"\\frac{{{n}}}{{{d}}}"
    if style == 2:
        return f"\\dfrac{{{2 * n}}}{{{2 * d}}}"
    if d == 1:
        return str(n)
    if 1000 % d == 0:
        whole, rest = divmod(n * (1000 // d), 1000)
        return f"{whole}.{rest:03d}"
    return f"$ {n}/{d} $"


# --- synth ---------------------------------------------------------------------

KEPT = "KEPT"
DROPS = (
    "SPOILER",
    "NO_ANSWER",
    "WRONG_ANSWER",
    "TOO_SHORT",
    "TOO_LONG",
    "NOT_BOXED_FINAL",
    "MALFORMED",
)
GEN_FAIL = "GEN_FAIL"
STAGE_ROLES = ("preplan_gen", "plan_gen", "executor", "cleanup")

# Chain outcomes of one pass. build_dataset runs with retries=1, so a
# dropped first chain is sampled again.
SYNTH_MIX = (
    [(KEPT,)] * 175
    + [(d, KEPT) for d in DROPS for _ in range(5)]
    + [(a, b) for b in DROPS for a in DROPS[:6]] * 2
    + [(GEN_FAIL, GEN_FAIL)] * 6
)


@dataclass
class Chain:
    outcome: str
    texts: dict  # stage role -> response text (roles up to the failing one)
    spoiler_score: int | None
    answer_correct: bool | None
    fail_role: str | None = None


@dataclass
class SynthProblem:
    record: ProblemRecord
    chains: list
    one_off: dict = field(default_factory=dict)  # role -> status of the failed first request

    @property
    def final(self) -> Chain:
        return self.chains[-1]


def _synth_chain(rng, prose, gold: Fraction, outcome: str) -> Chain:
    signals = rng.sample(SIGNALS, rng.randint(0, TAU_S))
    tokens = rng.randint(180, 600)
    boxed = spell(gold, rng.randrange(4))
    correct = True
    plan_extra = ""
    tail = ""
    if outcome == "SPOILER":
        signals = rng.sample(SIGNALS, rng.randint(TAU_S + 1, len(SIGNALS)))
    elif outcome == "NO_ANSWER":
        boxed, correct = None, False
    elif outcome == "WRONG_ANSWER":
        boxed, correct = spell(gold + rng.randint(1, 9), rng.randrange(4)), False
    elif outcome == "TOO_SHORT":
        tokens = rng.randint(40, 110)
    elif outcome == "TOO_LONG":
        tokens = rng.randint(1540, 1700)
    elif outcome == "NOT_BOXED_FINAL":
        tail = " That completes the argument."
    elif outcome == "MALFORMED":
        plan_extra = " <aside>recheck the setup</aside>"
    preplan = preplan_text(rng, prose, signals, tokens)
    n, (lo, hi) = token_count(preplan), LENGTH_BOUNDS
    band = "TOO_SHORT" if n < lo else "TOO_LONG" if n > hi else None
    if band != (outcome if outcome in ("TOO_SHORT", "TOO_LONG") else None):
        raise RuntimeError(f"{outcome} preplan has {n} tokens")
    plan = (
        f"1. Set up: organize the givens. {prose.text(rng, 20)}\n"
        f"2. Solve: carry out the computation. {prose.text(rng, 20)}\n"
        f"3. Check: verify the constraints.{plan_extra}"
    )
    answer_line = "no final box is given." if boxed is None else f"\\boxed{{{boxed}}}"
    raw = f"{prose.text(rng, rng.randint(200, 500))} So the value is {answer_line}"
    execute = (
        f"1. Set up: {prose.text(rng, rng.randint(60, 200))}\n"
        f"2. Solve: {prose.text(rng, rng.randint(60, 200))}\n"
        f"3. Check: {prose.text(rng, 30)}\n"
        f"Final Answer: {answer_line}{tail}"
    )
    texts = dict(zip(STAGE_ROLES, (preplan, plan, raw, execute)))
    return Chain(outcome, texts, len(signals), correct)


def synth_inputs(seed: int, problems: int | None = None) -> list[SynthProblem]:
    """The synth pass: one problem per entry of SYNTH_MIX, in seeded order."""
    rng = random.Random(f"synth/{seed}")
    prose = Prose(rng)
    mix = list(SYNTH_MIX)
    rng.shuffle(mix)
    if problems is not None:
        mix = mix[:problems]
    out = []
    for i, outcomes in enumerate(mix):
        pid = f"syn-{i:05d}"
        gold = Fraction(rng.randint(1, 400), rng.choice((2, 4, 5, 8)))
        record = ProblemRecord(
            id=pid,
            question=f"{pid}: {prose.text(rng, rng.randint(20, 60))}",
            gold_answer=spell(gold, rng.randrange(4)),
        )
        chains = []
        for outcome in outcomes:
            if outcome == GEN_FAIL:
                role = rng.choice(STAGE_ROLES)
                ok = _synth_chain(rng, prose, gold, KEPT)
                texts = {r: ok.texts[r] for r in STAGE_ROLES[: STAGE_ROLES.index(role)]}
                chains.append(Chain(GEN_FAIL, texts, None, None, fail_role=role))
            else:
                chains.append(_synth_chain(rng, prose, gold, outcome))
        problem = SynthProblem(record, chains)
        if GEN_FAIL not in outcomes and rng.random() < 0.06:
            problem.one_off[rng.choice(STAGE_ROLES)] = rng.choice((429, 500, 503))
        out.append(problem)
    return out


def render(preplan: str, plan: str, execute: str) -> str:
    """The canonical tagged form a kept SFT row carries as its target."""
    return f"<preplan>{preplan}</preplan>\n<plan>{plan}</plan>\n<execute>{execute}</execute>"


# --- eval ------------------------------------------------------------------------

EVAL_K = 16


@dataclass
class EvalProblem:
    record: ProblemRecord
    samples: list  # completion texts in the order the endpoint serves them
    sample_classes: list  # per sample: answer class id, None if unboxed; gold is 0
    classes: dict  # answer spelling -> class id, for the judge
    fails: bool = False  # every policy request errors
    one_off: int | None = None  # request ordinal that fails once
    judge_fail_once: bool = False  # first judge request of the problem fails once
    class_of_sample: dict = field(init=False)

    def __post_init__(self):
        self.class_of_sample = dict(zip(self.samples, self.sample_classes))


def _sample_text(rng, prose, tokens: int, answer: str | None) -> str:
    final = "No final box." if answer is None else f"Final Answer: \\boxed{{{answer}}}"
    body = prose.text(rng, max(tokens - 40, 10))
    return (
        f"<preplan>{prose.text(rng, 20)}</preplan>\n<plan>{prose.text(rng, 20)}</plan>\n"
        f"<execute>{body} {final}</execute>"
    )


def _fixed_order(answers: list) -> None:
    """Shuffle answers the same way for every seed.

    First-match linkage makes the judge calls of a problem depend on the
    order of its answers; a fixed order per kind keeps each problem's call
    count, and so its latency, the same for every seed. The seed still
    picks spellings, texts and lengths.
    """
    random.Random(len(answers)).shuffle(answers)


def _rational_answers(rng, base: int, gold_n: int, wrong: int, repeated: int, unboxed: int):
    """Gold spelled every rule-equal way, distinct wrong values, a repeated one."""
    gold = Fraction(base + 1, 8)
    classes = {}
    answers = []
    for j in range(gold_n):
        s = spell(gold, j)
        classes[s] = 0
        answers.append(s)
    for j in range(wrong):
        s = spell(Fraction(base + 3 + 2 * j, 8), rng.randrange(4))
        classes[s] = 1 + j
        answers.append(s)
    if repeated:
        s = spell(Fraction(base + 5 + 2 * wrong, 8), 1)
        classes[s] = 1 + wrong
        answers += [s] * repeated
    answers += [None] * unboxed
    _fixed_order(answers)
    return spell(gold, rng.randrange(4)), classes, answers


def _symbolic_answers(rng, m: int, gold_n: int, judged_n: int, wrong: tuple, unboxed: int):
    """Spellings the rules cannot settle: the judge decides them."""
    rule_equal = [
        f"\\frac{{\\sqrt{{{m}}}}}{{2}}",
        f"$\\frac{{\\sqrt{{{m}}}}}{{2}}$",
        f"\\dfrac{{\\sqrt{{{m}}}}}{{2}}",
        f"{{\\frac{{\\sqrt{{{m}}}}}{{2}}}}",
    ]
    judge_equal = [f"\\sqrt{{{m}}}/2", f"\\frac{{1}}{{2}}\\sqrt{{{m}}}", f"0.5\\sqrt{{{m}}}"]
    classes = {s: 0 for s in rule_equal + judge_equal}
    answers = [rule_equal[j % 4] for j in range(gold_n)]
    answers += [judge_equal[j % 3] for j in range(judged_n)]
    for c, count in enumerate(wrong, start=1):
        s = f"{c + 1}\\sqrt{{{m}}}" if c % 2 else f"\\frac{{\\sqrt{{{m}}}}}{{{c + 2}}}"
        classes[s] = c
        answers += [s] * count
    answers += [None] * unboxed
    _fixed_order(answers)
    return rule_equal[0], classes, answers


# (kind, count): rational all-correct, rational with wrong answers,
# judge-settled mixes (majority right / majority wrong / a tie that the
# earliest answer breaks, so the check sees sample order), failing problems.
EVAL_MIX = (
    ("exact", 10), ("rational", 6), ("judged", 10), ("judged_wrong", 8), ("judged_tie", 4),
    ("failing", 2),
)


def eval_inputs(seed: int, problems: int | None = None) -> list[EvalProblem]:
    rng = random.Random(f"eval/{seed}")
    prose = Prose(rng)
    # Completion lengths are spread evenly within each kind, so the mix of
    # (kind, length) pairs, and with it the latency distribution, is the
    # same for every seed; so are the counts of injected one-off failures.
    pairs = [(kind, 250 + 1050 * (j + 0.5) / n) for kind, n in EVAL_MIX for j in range(n)]
    rng.shuffle(pairs)
    if problems is not None:
        pairs = pairs[:problems]
    live = [i for i, (kind, _) in enumerate(pairs) if kind != "failing"]
    judged = [i for i, (kind, _) in enumerate(pairs) if kind.startswith("judged")]
    one_off = set(rng.sample(live, len(live) // 6))
    judge_fail_once = set(rng.sample(judged, len(judged) // 4))
    out = []
    for i, (kind, length) in enumerate(pairs):
        pid = f"evl-{i:05d}"
        base = 1000 * (i + 1)
        if kind == "exact":
            gold, classes, answers = _rational_answers(rng, base, 14, 0, 0, 2)
        elif kind in ("rational", "failing"):
            gold, classes, answers = _rational_answers(rng, base, 9, 3, 2, 2)
        elif kind == "judged":
            gold, classes, answers = _symbolic_answers(rng, 7 + 10 * i, 5, 3, (2, 1, 1, 1), 3)
        elif kind == "judged_wrong":
            gold, classes, answers = _symbolic_answers(rng, 7 + 10 * i, 2, 2, (6, 1, 1, 1), 3)
        else:
            gold, classes, answers = _symbolic_answers(rng, 7 + 10 * i, 3, 2, (5, 1, 1), 4)
        tokens = [int(length) + rng.randint(-50, 50) for _ in answers]
        samples = [_sample_text(rng, prose, t, a) for t, a in zip(tokens, answers)]
        record = ProblemRecord(
            id=pid, question=f"{pid}: {prose.text(rng, rng.randint(20, 60))}", gold_answer=gold
        )
        sample_classes = [None if a is None else classes[a] for a in answers]
        problem = EvalProblem(record, samples, sample_classes, classes, fails=kind == "failing")
        if i in one_off:
            problem.one_off = rng.randrange(EVAL_K)
        problem.judge_fail_once = i in judge_fail_once
        out.append(problem)
    return out


def brute_force_metrics(classes: list) -> tuple[bool, bool]:
    """maj@k and pass@k from ground-truth class ids (None = no answer, 0 = gold).

    Class ids form an equivalence relation, so first-match linkage is a
    plain partition: the largest class wins, ties go to the earliest first
    occurrence.
    """
    counts, first = {}, {}
    for i, c in enumerate(classes):
        if c is None:
            continue
        counts[c] = counts.get(c, 0) + 1
        first.setdefault(c, i)
    passed = 0 in counts
    if not counts:
        return False, passed
    best = max(counts.values())
    winner = min((c for c, n in counts.items() if n == best), key=first.__getitem__)
    return winner == 0, passed


# --- rl_step ---------------------------------------------------------------------

RL_G = 16
VIOLATIONS = (
    "MISSING_TAG",
    "DUPLICATE_TAG",
    "OUT_OF_ORDER",
    "NO_BOXED",
    "TRAILING_TEXT",
    "FOREIGN_TAG",
)
WEIGHTS = {"lambda_a": 0.1, "lambda_f": 0.3, "lambda_s": 0.1, "tau_s": TAU_S}


@dataclass
class Rollout:
    text: str
    gold: str
    prox: int
    adh: int
    expected: dict  # RewardBreakdown.to_dict() the rollout must produce
    logp_new: list
    logp_old: list
    logp_ref: list


def _malformed(preplan, plan, execute, violation):
    blocks = {
        "preplan": f"<preplan>{preplan}</preplan>",
        "plan": f"<plan>{plan}</plan>",
        "execute": f"<execute>{execute}</execute>",
    }
    if violation == "MISSING_TAG":
        return f"{blocks['preplan']}\n{blocks['execute']}"
    if violation == "DUPLICATE_TAG":
        return f"{blocks['preplan']}\n{blocks['plan']}\n{blocks['plan']}\n{blocks['execute']}"
    if violation == "OUT_OF_ORDER":
        return f"{blocks['plan']}\n{blocks['preplan']}\n{blocks['execute']}"
    if violation == "NO_BOXED":
        body = execute.replace("\\boxed{", "the value {")
        return f"{blocks['preplan']}\n{blocks['plan']}\n<execute>{body}</execute>"
    if violation == "TRAILING_TEXT":
        return f"{render(preplan, plan, execute)}\nTrailing remark after the block."
    return render(preplan, plan, execute.replace("3. Check:", "<think>3. Check:</think>"))


def expected_reward(correct: bool, prox: int, adh: int, well_formed: bool, score: int) -> dict:
    """The composite reward formula, evaluated independently of ppc."""
    w = WEIGHTS
    r_out = 1.0 if correct else (prox - 1) / 8
    r_adh = (adh - 1) / 4
    r_fmt = 1 if well_formed else 0
    r_sty = max(0, score - w["tau_s"])
    total = r_out + (w["lambda_a"] * r_adh + w["lambda_f"] * r_fmt - w["lambda_s"] * r_sty)
    return {
        "r_out": r_out,
        "r_adh_raw": r_adh,
        "r_fmt": r_fmt,
        "r_sty_raw": r_sty,
        "total": total,
        "correct": correct,
    }


def _logps(rng, n):
    old = [-rng.uniform(0.05, 3.0) for _ in range(n)]
    new = [o + rng.gauss(0.0, 0.15) for o in old]
    ref = [o + rng.gauss(0.0, 0.05) for o in old]
    return new, old, ref


def rl_inputs(seed: int, steps: int) -> list[list[Rollout]]:
    """`steps` distinct groups of RL_G rollouts of 1-2K whitespace tokens.

    Each group holds every violation once, four wrong answers and six right
    ones, with spoiler signal sets that differ between rollouts.
    """
    rng = random.Random(f"rl_step/{seed}")
    prose = Prose(rng)
    groups = []
    lengths = [1000 + (1000 * i) // (RL_G * steps) for i in range(RL_G * steps)]
    rng.shuffle(lengths)
    for s in range(steps):
        gold_value = Fraction(rng.randint(1, 900), rng.choice((2, 4, 8)))
        gold = spell(gold_value, rng.randrange(4))
        kinds = list(VIOLATIONS) + ["wrong"] * 4 + ["right"] * 6
        rng.shuffle(kinds)
        group = []
        for g, kind in enumerate(kinds):
            n_tokens = lengths[s * RL_G + g]
            signals = rng.sample(SIGNALS, rng.randint(0, len(SIGNALS)))
            preplan = preplan_text(rng, prose, signals, rng.randint(150, 300))
            plan = f"1. Set up: {prose.text(rng, 30)}\n2. Solve: {prose.text(rng, 30)}"
            right = kind != "wrong"
            value = gold_value if right else gold_value + rng.randint(1, 50)
            body_tokens = n_tokens - token_count(preplan) - token_count(plan) - 10
            execute = (
                f"1. Set up: {prose.text(rng, max(body_tokens // 2, 10))}\n"
                f"2. Solve: {prose.text(rng, max(body_tokens // 2, 10))}\n"
                f"3. Check: done.\nFinal Answer: \\boxed{{{spell(value, rng.randrange(4))}}}"
            )
            well_formed = kind in ("wrong", "right")
            text = render(preplan, plan, execute) if well_formed else _malformed(preplan, plan, execute, kind)
            prox, adh = rng.randint(1, 5), rng.randint(1, 5)
            correct = well_formed and right
            score = len(signals) if well_formed else 0
            expected = expected_reward(correct, prox, adh, well_formed, score)
            group.append(Rollout(text, gold, prox, adh, expected, *_logps(rng, token_count(text))))
        groups.append(group)
    return groups


# --- rescore ---------------------------------------------------------------------

RESCORE_K = 64
RESCORE_MIX = (
    # (gold copies, repeated wrong copies, distinct wrong, unboxed): majority
    # right, majority wrong, and a tie the earliest answer breaks.
    (24, 6, 30, 4),
    (8, 12, 40, 4),
    (16, 16, 28, 4),
)


@dataclass
class RescoreProblem:
    record: ProblemRecord
    samples: list
    sample_classes: list  # per sample: answer class id, None if unboxed; gold is 0
    class_of_sample: dict = field(init=False)

    def __post_init__(self):
        self.class_of_sample = dict(zip(self.samples, self.sample_classes))


def rescore_inputs(seed: int, problems: int, pool: int):
    """Replay transcripts of `problems` problems at k=64 and a preplan pool."""
    rng = random.Random(f"rescore/{seed}")
    prose = Prose(rng)
    mixes = [RESCORE_MIX[i % len(RESCORE_MIX)] for i in range(problems)]
    rng.shuffle(mixes)
    out = []
    for i, (gold_n, rep_n, wrong_n, unboxed_n) in enumerate(mixes):
        pid = f"rsc-{i:05d}"
        base = 1000 * (i + 1)
        gold = Fraction(2 * base + 1, 2)
        items = [(spell(gold, j), 0) for j in range(gold_n)]
        rep = spell(Fraction(2 * base + 3, 2), rng.randrange(4))
        items += [(rep, 1)] * rep_n
        items += [
            (spell(Fraction(2 * base + 5 + 2 * j, 2), rng.randrange(4)), 2 + j)
            for j in range(wrong_n)
        ]
        items += [(None, None)] * unboxed_n
        rng.shuffle(items)
        samples = [
            f"<preplan>{prose.text(rng, 6)}</preplan>\n<plan>{prose.text(rng, 6)}</plan>\n"
            f"<execute>{prose.text(rng, 10)} "
            + ("No final box." if a is None else f"\\boxed{{{a}}}")
            + "</execute>"
            for a, _ in items
        ]
        record = ProblemRecord(
            id=pid, question=f"{pid}: {prose.text(rng, 20)}", gold_answer=spell(gold, rng.randrange(4))
        )
        out.append(RescoreProblem(record, samples, [c for _, c in items]))
    preplans = [(f"pre-{i:05d}", f"Preplan {i:05d}. {prose.text(rng, 30)}") for i in range(pool)]
    return out, preplans
