"""Acceptance suite: every criterion prints one PASS line when it holds.

Each test pins its numeric tolerance and a wall-clock budget. Criterion 10
(whole offline suite under 60s) is reported by the session-finish hook in
conftest.py.
"""

import itertools
import math
import random
import time

from conftest import clean_preplan, default_stage_texts, make_problem, make_suite

from ppc.evaluation import (
    PerturbationMode,
    _derangement,
    answers_equivalent,
    maj_at_k,
    pass_at_k,
    perturb_preplan,
)
from ppc.grpo import GrpoConfig, RolloutGroup, grpo_objective, group_advantages, kl_term
from ppc.rewards import RewardWeights, composite_reward
from ppc.spoiler import SIGNAL_NAMES, SpoilerReport, spoiler_score
from ppc.synthesis import build_dataset, synthesize
from ppc.trajectory import (
    Trajectory,
    Violation,
    check_format,
    parse_trajectory,
    render_trajectory,
)
from ppc._text import split_sentences


def report_pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number} PASS - {message}")


# =============================================================================
# Criterion 1: independent straight-line spoiler oracle, 200 cases, exact.
# =============================================================================

ORACLE_DERIVATION = (
    "simplifies to",
    "reduces to",
    "leads to",
    "results in",
    "yields",
    "gives us",
    "implies that",
    "becomes",
    "transforms to",
    "evaluates to",
    "rewrites as",
)
ORACLE_ANSWER = ("the answer", "the result is", "we get", "we obtain")
_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_DIGITS = "0123456789"


def _oracle_phrase(haystack: str, needle: str) -> bool:
    start = 0
    while True:
        i = haystack.find(needle, start)
        if i == -1:
            return False
        before = haystack[i - 1] if i > 0 else " "
        end = i + len(needle)
        after = haystack[end] if end < len(haystack) else " "
        if before not in _ALNUM and after not in _ALNUM:
            return True
        start = i + 1


def _oracle_spans(y: str) -> list:
    # straight-line restatement: $$...$$ is one span, $...$ inline,
    # an opener that never closes ends the scan
    spans = []
    i = 0
    while True:
        j = y.find("$", i)
        if j == -1:
            break
        if j + 1 < len(y) and y[j + 1] == "$":
            k = y.find("$$", j + 2)
            if k == -1:
                break
            spans.append(y[j + 2 : k])
            i = k + 2
        else:
            k = y.find("$", j + 1)
            if k == -1:
                break
            spans.append(y[j + 1 : k])
            i = k + 1
    return spans


def _oracle_score(y: str):
    low = y.lower()
    s1 = any(_oracle_phrase(low, p) for p in ORACLE_DERIVATION)
    s2 = (y.count("\\equiv") + y.replace("\\equiv", " ").count("=")) >= 3
    spans = _oracle_spans(y)
    s3 = sum(1 for s in spans if len(s) >= 30) >= 2
    s4 = False
    i = 0
    while i < len(y):
        if y[i] in _DIGITS:
            j = i
            while j < len(y) and y[j] in _DIGITS:
                j += 1
            before_ok = i == 0 or y[i - 1] not in _ALNUM
            after_ok = j == len(y) or y[j] not in _ALNUM
            if j - i >= 3 and before_ok and after_ok:
                s4 = True
            i = j
        else:
            i += 1
    s5 = any(_oracle_phrase(low, p) for p in ORACLE_ANSWER)
    s6 = len(spans) >= 4
    flags = (s1, s2, s3, s4, s5, s6)
    return sum(flags), flags


def _spoiler_corpus(n: int):
    rng = random.Random(20250810)
    words = ["the", "problem", "concerns", "a", "lattice", "sum", "modular", "series"]
    glue = ["x", "resultsin", "becomesnow", "wegetx"]

    def atom():
        kind = rng.randrange(10)
        if kind == 0:
            return rng.choice(ORACLE_DERIVATION)
        if kind == 1:
            return rng.choice(ORACLE_ANSWER)
        if kind == 2:
            return rng.choice(ORACLE_DERIVATION) + rng.choice(["", "x", "ing"])
        if kind == 3:
            return rng.choice(["=", "\\equiv", "= =", "a = b"])
        if kind == 4:
            body = "".join(rng.choices("xy=z2 +", k=rng.randrange(2, 45)))
            return f"${body}$"
        if kind == 5:
            return f"$${''.join(rng.choices('ab1 ', k=rng.randrange(1, 20)))}$$"
        if kind == 6:
            return "$"  # unterminated
        if kind == 7:
            run = "".join(rng.choices(_DIGITS, k=rng.randrange(1, 6)))
            return rng.choice([run, f"x{run}y", f"({run})"])
        if kind == 8:
            return rng.choice(glue)
        return " ".join(rng.choices(words, k=rng.randrange(1, 6)))

    return [" ".join(atom() for _ in range(rng.randrange(0, 14))) for _ in range(n)]


def test_criterion_1_spoiler_oracle_equivalence():
    corpus = _spoiler_corpus(200)
    started = time.monotonic()
    matches = 0
    for text in corpus:
        expected_score, expected_flags = _oracle_score(text)
        report = spoiler_score(text)
        got_flags = tuple(report.signals().values())
        assert report.score == expected_score, text
        assert got_flags == expected_flags, text
        matches += 1
    elapsed = time.monotonic() - started
    assert matches == 200
    assert elapsed < 1.0
    report_pass(1, f"spoiler oracle agrees on 200/200 generated cases in {elapsed:.3f}s")


# =============================================================================
# Criterion 2: exemplar preplans classify as discard / keep.
# =============================================================================

DISCARD_EXEMPLAR = (
    "This is a complex contour integral problem ... using the residue theorem. "
    "... Since the contour is the circle $|z-1| = \\tfrac{3}{2}$, it encloses "
    "both $z=0$ and $z=1$, so we must consider the nature of each singularity "
    "and how they contribute to the residue sum. The problem specifies using "
    "Laurent series expansions for $e^{1/z}$ and $\\tfrac{1}{z-1}$, which "
    "implies that understanding how to multiply and manipulate these series to "
    "extract the coefficient of $\\tfrac{1}{z}$ will be central to determining "
    "the residue at $z=0$. We should also be careful about distinguishing "
    "between removable singularities, poles, and essential singularities ... "
    "A key pitfall is misidentifying the order of a pole or mishandling the "
    "series expansions, especially near the essential singularity at the origin."
)

KEEP_EXEMPLAR = (
    "This is a modular arithmetic problem involving large exponents and "
    "simultaneous congruences. ... The key concepts at play include the "
    "Chinese Remainder Theorem and properties of modular exponentiation. Since "
    "$1001$ factors into the primes $7$, $11$, and $13$, the given congruences "
    "suggest that the solution involves combining these individual modular "
    "results into a unified modulus. A natural approach is to treat each "
    "congruence as a piece of a larger puzzle and reconstruct the final result "
    "modulo $1001$. We should also be careful not to assume uniqueness without "
    "verifying compatibility of the congruences. One potential pitfall is "
    "misapplying the theorem or mixing up moduli during calculations ..."
)

TAU_S = 2


def test_criterion_2_exemplar_classification():
    discard = spoiler_score(DISCARD_EXEMPLAR)
    keep = spoiler_score(KEEP_EXEMPLAR)

    assert discard.score > TAU_S
    assert keep.score <= TAU_S
    assert keep.score == 2

    # which signals carry each verdict
    assert "derivation_phrasing" in discard.evidence      # "implies that"
    assert "equation_density" in discard.evidence         # four '=' inside math spans
    assert "math_span_count" in discard.evidence          # seven spans
    assert "multidigit_constant" in keep.evidence         # standalone 1001
    assert "math_span_count" in keep.evidence             # five spans
    assert "derivation_phrasing" not in keep.evidence     # "results into" must not match "results in"

    # same classification through the filter itself: both answers correct and
    # in-bounds (signal-free padding), so the spoiler score alone decides
    from ppc.spoiler import DropReason, filter_decision

    padding = " " + " ".join(["Additional context sentences follow."] * 40)
    dropped = filter_decision(
        Trajectory(DISCARD_EXEMPLAR + padding, "1. Go.", "\\boxed{7}"),
        "7",
        equivalence=answers_equivalent,
    )
    kept = filter_decision(
        Trajectory(KEEP_EXEMPLAR + padding, "1. Go.", "\\boxed{7}"),
        "7",
        equivalence=answers_equivalent,
    )
    assert dropped.reason == DropReason.SPOILER  # correct answer, still dropped
    assert kept.keep

    report_pass(
        2,
        f"exemplars classify discard/keep at tau_s={TAU_S} "
        f"(scores {discard.score} and {keep.score})",
    )


# =============================================================================
# Criterion 3: exhaustive reward bound sweep, 700 combinations, exact bounds.
# =============================================================================


def _report_with(score: int) -> SpoilerReport:
    return SpoilerReport({name: () for name in SIGNAL_NAMES[:score]})


def test_criterion_3_reward_bound_sweep():
    from ppc.trajectory import FormatVerdict

    ok = FormatVerdict()
    bad = FormatVerdict(violations=(Violation.NO_BOXED,))
    weights = RewardWeights()

    started = time.monotonic()
    combos = 0
    for correct in (True, False):
        for prox in range(1, 6):
            for adh in range(1, 6):
                for fmt in (ok, bad):
                    for score in range(7):
                        b = composite_reward(
                            correct, prox, adh, fmt, _report_with(score), weights
                        )
                        combos += 1
                        assert -0.4 <= b.total <= 1.4, b
                        if correct:
                            assert b.r_out == 1.0
                        else:
                            assert 0.0 <= b.r_out <= 0.5 < 1.0
                        assert 0.0 <= b.r_adh_raw <= 1.0
                        assert b.r_fmt in (0, 1)
                        assert 0 <= b.r_sty_raw <= 4
    elapsed = time.monotonic() - started
    assert combos == 700
    assert elapsed < 1.0
    report_pass(3, f"700/700 reward combinations inside [-0.4, 1.4] in {elapsed:.3f}s")


# =============================================================================
# Criterion 4: GRPO math properties plus a hand-computed objective.
# =============================================================================


def test_criterion_4_grpo_math():
    rng = random.Random(99)
    started = time.monotonic()

    for _ in range(1000):
        if rng.random() < 0.05:
            rewards = [rng.choice([0.0, 1.0])] * 8  # zero-variance group
        else:
            rewards = [rng.uniform(-0.4, 1.4) for _ in range(8)]
        adv = group_advantages(rewards)
        mean = sum(adv) / len(adv)
        assert abs(mean) < 1e-9
        raw_std = math.sqrt(sum((r - sum(rewards) / 8) ** 2 for r in rewards) / 8)
        if raw_std > 1e-6:
            std = math.sqrt(sum(a * a for a in adv) / len(adv))
            assert abs(std - 1.0) < 1e-9
        shift = rng.uniform(-100, 100)
        shifted = group_advantages([r + shift for r in rewards])
        assert all(abs(a - b) < 1e-9 for a, b in zip(adv, shifted))

    for _ in range(10_000):
        assert kl_term(rng.uniform(-20, 0), rng.uniform(-20, 0)) >= 0.0

    # two-rollout objective, every step spelled out
    eps, beta = 0.2, 0.04
    group = RolloutGroup(
        rewards=[1.4, 0.6],
        logp_new=[-1.0, -2.0],
        logp_old=[-1.2, -1.8],
        logp_ref=[-1.1, -2.2],
    )
    a1, a2 = group_advantages([1.4, 0.6])
    rho1 = math.exp(-1.0 - -1.2)
    rho2 = math.exp(-2.0 - -1.8)
    surr1 = min(rho1 * a1, min(max(rho1, 1 - eps), 1 + eps) * a1)
    surr2 = min(rho2 * a2, min(max(rho2, 1 - eps), 1 + eps) * a2)
    r1 = math.exp(-1.1 - -1.0)
    r2 = math.exp(-2.2 - -2.0)
    kl1 = r1 - (-1.1 - -1.0) - 1.0
    kl2 = r2 - (-2.2 - -2.0) - 1.0
    expected = (surr1 + surr2) / 2 - beta * ((kl1 + kl2) / 2)

    result = grpo_objective(group, GrpoConfig(epsilon_clip=eps, beta_kl=beta))
    assert abs(result.objective - expected) < 1e-12

    elapsed = time.monotonic() - started
    assert elapsed < 2.0
    report_pass(
        4,
        "1000 groups normalized (mean<1e-9, std 1±1e-9, shift-invariant), "
        f"10^4 KL terms >= 0, hand objective matches to 1e-12, in {elapsed:.3f}s",
    )


# =============================================================================
# Criterion 5: exhaustive format-guard cases.
# =============================================================================


def test_criterion_5_format_guard_exhaustive():
    started = time.monotonic()
    blocks = {
        "preplan": "<preplan>A</preplan>",
        "plan": "<plan>B</plan>",
        "execute": "<execute>C \\boxed{1}</execute>",
    }
    canonical_order = ("preplan", "plan", "execute")

    for order in itertools.permutations(canonical_order):
        text = "".join(blocks[name] for name in order)
        verdict = check_format(text)
        if order == canonical_order:
            assert verdict.well_formed
        else:
            assert not verdict.well_formed
            assert Violation.OUT_OF_ORDER in verdict.violations

    canonical = "".join(blocks[name] for name in canonical_order)
    tokens = ["<preplan>", "</preplan>", "<plan>", "</plan>", "<execute>", "</execute>"]
    for token in tokens:
        deleted = canonical.replace(token, "", 1)
        verdict = check_format(deleted)
        assert not verdict.well_formed
        assert Violation.MISSING_TAG in verdict.violations

        duplicated = canonical.replace(token, token + token, 1)
        verdict = check_format(duplicated)
        assert not verdict.well_formed
        assert Violation.DUPLICATE_TAG in verdict.violations

    trailing = check_format(canonical + " trailing words")
    assert trailing.violations == (Violation.TRAILING_TEXT,)

    foreign = check_format(canonical.replace("B", "B <sidebar> C </sidebar>"))
    assert not foreign.well_formed
    assert Violation.FOREIGN_TAG in foreign.violations

    # canonical renders pass the guard
    assert check_format(render_trajectory(parse_trajectory(canonical))).well_formed
    built = Trajectory("A", "B", "C \\boxed{1}")
    assert check_format(render_trajectory(built)).well_formed

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report_pass(
        5,
        "3! orders, 6 deletions, 6 duplications, trailing/foreign cases all "
        f"verdict as expected in {elapsed:.3f}s",
    )


# =============================================================================
# Criterion 6: maj@k / pass@k against brute-force enumeration.
# =============================================================================


def _brute_force(answers, gold):
    present = [a for a in answers if a is not None]
    passed = any(a == gold for a in present)
    if not present:
        return False, passed
    counts = {}
    first_seen = {}
    for i, a in enumerate(answers):
        if a is None:
            continue
        counts[a] = counts.get(a, 0) + 1
        first_seen.setdefault(a, i)
    best = max(counts.values())
    tied = [a for a, c in counts.items() if c == best]
    winner = min(tied, key=lambda a: first_seen[a])
    return winner == gold, passed


def test_criterion_6_metric_oracle():
    rng = random.Random(606)
    alphabet = ["a", "b", "c", "d", "e"]
    started = time.monotonic()
    for _ in range(1000):
        k = rng.randint(1, 8)
        distinct = rng.randint(1, 5)
        choices = alphabet[:distinct] + [None]
        answers = [rng.choice(choices) for _ in range(k)]
        gold = rng.choice(alphabet[:distinct])
        expected_maj, expected_pass = _brute_force(answers, gold)
        assert maj_at_k(answers, gold) == expected_maj, (answers, gold)
        assert pass_at_k(answers, gold) == expected_pass, (answers, gold)
        single = [rng.choice(choices)]
        assert maj_at_k(single, gold) == pass_at_k(single, gold)
    elapsed = time.monotonic() - started
    assert elapsed < 2.0
    report_pass(6, f"maj@k/pass@k match enumeration on 1000 instances in {elapsed:.3f}s")


# =============================================================================
# Criterion 7: byte-identical pipeline outputs across runs and parallelism.
# =============================================================================


def _fixture_corpus():
    problems = [make_problem(f"p{i:02d}") for i in range(20)]
    texts = default_stage_texts(problems)
    # a spread of reject outcomes
    texts[problems[3].question]["preplan"] = "much too short."
    texts[problems[7].question]["preplan"] = (
        clean_preplan("p07") + " this yields 1001. we get $a$ $b$ $c$ $d$."
    )
    texts[problems[11].question]["execute"] = "1. Solve: oops.\nFinal Answer: \\boxed{999}"
    texts[problems[15].question]["execute"] = "1. Solve: no final box at all."
    return problems, texts


def test_criterion_7_pipeline_determinism(tmp_path):
    problems, texts = _fixture_corpus()
    started = time.monotonic()
    outputs = {}
    for label, parallelism in (("run1-p1", 1), ("run2-p1", 1), ("run3-p8", 8)):
        out = tmp_path / label
        build_dataset(
            problems,
            make_suite(texts),
            out,
            equivalence=answers_equivalent,
            seed=13,
            parallelism=parallelism,
        )
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("sft.jsonl", "rejects.jsonl", "summary.json")
        }
    assert outputs["run1-p1"] == outputs["run2-p1"] == outputs["run3-p8"]
    assert len(outputs["run1-p1"]["sft.jsonl"].splitlines()) == 16
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report_pass(
        7,
        "synthesize/filter/emit over 20 problems byte-identical across two runs "
        f"and parallelism 1 vs 8 in {elapsed:.3f}s",
    )


# =============================================================================
# Criterion 8: information-flow audit on captured stage prompts.
# =============================================================================


def test_criterion_8_information_flow():
    problems = [make_problem(f"p{i}") for i in range(6)]
    texts = default_stage_texts(problems)
    trace = []
    suite = make_suite(texts, trace=trace)
    records = [synthesize(p, suite) for p in problems]

    for rec in records:
        question = rec.problem.question
        chain = [(role, r) for role, r in trace if question in r.user_prompt]
        roles = [role for role, _ in chain]
        assert roles == ["preplan_gen", "plan_gen", "executor", "cleanup"], roles
        by_role = dict(chain)
        assert rec.plan not in by_role["preplan_gen"].user_prompt
        assert rec.preplan in by_role["plan_gen"].user_prompt
        assert rec.preplan not in by_role["executor"].user_prompt
        assert rec.preplan not in by_role["cleanup"].user_prompt
        assert rec.plan in by_role["executor"].user_prompt
        assert rec.plan in by_role["cleanup"].user_prompt
        assert rec.raw_solution in by_role["cleanup"].user_prompt

    report_pass(
        8,
        "captured prompts: executor/cleanup never see the preplan; stage order "
        "is strictly preplan->plan->execute per chain",
    )


# =============================================================================
# Criterion 9: perturbation properties.
# =============================================================================


def test_criterion_9_perturbation_properties():
    rng = random.Random(909)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]

    for case in range(500):
        sentences = [
            " ".join(rng.choices(words, k=rng.randint(1, 4))) + rng.choice(".!?")
            for _ in range(rng.randint(1, 8))
        ]
        preplan = " ".join(sentences)
        [prefix] = perturb_preplan([preplan], PerturbationMode.SHUFFLED, case)
        inner = prefix[len("<preplan>") : -len("</preplan>\n<plan>")]
        assert sorted(split_sentences(inner)) == sorted(sentences)
        assert perturb_preplan([preplan], PerturbationMode.SHUFFLED, case) == [prefix]  # seeded reproducibility

    for size in range(2, 51):
        pool = [f"preplan {i}" for i in range(size)]
        mapping = _derangement(size, random.Random(size))
        assert all(i != j for i, j in enumerate(mapping))
        for own, donor in zip(pool, perturb_preplan(pool, PerturbationMode.MISMATCHED, size)):
            assert f">{own}<" not in donor.replace("</preplan>", "<")

    outputs = set(perturb_preplan([f"text {i}" for i in range(20)], PerturbationMode.GENERIC, 0))
    assert len(outputs) == 1

    report_pass(
        9,
        "500 shuffles preserve sentence multisets; derangements for pools 2..50 "
        "have zero fixed points; generic output constant",
    )
