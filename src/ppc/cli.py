"""`ppc` command-line entry point.

Subcommands: lint, synthesize, reward, grpo-check, eval, perturb,
attribute. Data flows over stdin/stdout or --in/--out paths as JSONL; logs
go to stderr as line-delimited JSON. Exit codes: 0 success, 1 usage error,
2 data/config error, 3 endpoint failure after retries.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import prompts
from ._text import JSON_ENCODER, read_json, read_jsonl, row_id, typed_field, write_jsonl
from .clients import (
    ClientError,
    Facet,
    UnparseableVerdict,
    attribute_error,
    judge_equivalence,
)
from .config import PipelineConfig, build_client
from .evaluation import (
    PerturbationMode,
    answers_equivalent,
    evaluate,
    format_report_table,
    perturb_preplan,
    read_transcripts,
    write_eval_outputs,
)
from .grpo import GrpoConfig, RolloutGroup, grpo_objective
from .rewards import composite_reward
from .spoiler import SIGNAL_NAMES, spoiler_score
from .synthesis import STAGES, GeneratorSuite, build_dataset, load_problems
from .trajectory import check_format, read_trajectory

log = logging.getLogger("ppc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _JsonLineFormatter(logging.Formatter):
    def format(self, record):
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        return JSON_ENCODER.encode(payload)


def _setup_logging(verbose: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(logging.DEBUG if verbose else logging.INFO)


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.from_file(Path(args.config))
    return PipelineConfig()


def _override(base, **flags):
    """`base` with each field whose flag was given (not None) replaced."""
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


# --- subcommands -------------------------------------------------------------


def cmd_lint(args) -> int:
    cfg = _load_config(args).spoiler
    histogram = {str(s): 0 for s in range(len(SIGNAL_NAMES) + 1)}

    def lint(row: dict) -> dict:
        report = spoiler_score(typed_field(row, "preplan"), cfg)
        histogram[str(report.score)] += 1
        return {"id": row_id(row), **report.to_dict()}

    write_jsonl(args.out, read_jsonl(getattr(args, "in"), lint))
    summary = {"count": sum(histogram.values()), "histogram": histogram}
    log.info("lint summary: %s", JSON_ENCODER.encode(summary))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    config = _load_config(args)
    suite = GeneratorSuite(**{role: build_client(config, role, os.environ) for _, role, _, _ in STAGES})
    problems = load_problems(Path(getattr(args, "in")))
    summary = build_dataset(
        problems,
        suite,
        Path(args.out),
        equivalence=answers_equivalent,
        params=config.sampling(),
        spoiler_cfg=config.spoiler,
        bounds=config.length_bounds,
        seed=args.seed,
        parallelism=args.parallelism or config.parallelism,
        retries=args.retries,
    )
    print(JSON_ENCODER.encode(summary.to_dict()))
    if summary.problems and summary.drop_reasons.get("GEN_FAIL") == summary.problems:
        log.error("every chain failed at generation; endpoint unusable")
        return EXIT_ENDPOINT
    return EXIT_OK


def cmd_reward(args) -> int:
    config = _load_config(args)
    weights = _override(
        config.weights,
        lambda_a=args.lambda_a,
        lambda_f=args.lambda_f,
        lambda_s=args.lambda_s,
    )

    def reward(row: dict) -> dict:
        text, gold = typed_field(row, "trajectory"), typed_field(row, "gold")
        fmt = check_format(text)
        traj = read_trajectory(text)
        if row.get("correct") is None:
            correct = answers_equivalent(traj.boxed_answer, gold)
        else:
            correct = typed_field(row, "correct", bool)
        spoiler = spoiler_score(traj.preplan, config.spoiler)
        breakdown = composite_reward(correct, row.get("prox"), row["adh"], fmt, spoiler, weights)
        return {"id": row_id(row), **breakdown.to_dict()}

    write_jsonl(args.out, read_jsonl(getattr(args, "in"), reward))
    return EXIT_OK


def cmd_grpo_check(args) -> int:
    group = read_json(getattr(args, "in"), RolloutGroup.from_dict)
    cfg = _override(
        _load_config(args).grpo or GrpoConfig(),
        epsilon_clip=args.epsilon,
        beta_kl=args.beta,
        std_floor=args.std_floor,
    )
    print(JSON_ENCODER.encode(grpo_objective(group, cfg).to_dict()))
    return EXIT_OK


def _evaluate_perturbed(problems, k, client, mode, seed, base_file: Path, equivalence=None, **kwargs):
    """`evaluate` with each problem's samples forced to start from its perturbed preplan.

    shuffled and mismatched first draw one unforced base sample per problem and write the
    preplans that land to `base_file`, so a later error keeps them. Both perturb exactly that
    file's rows in its order, so `ppc perturb` over it rebuilds the prefixes sent. A failed base
    sample counts as failed, makes no further call and shifts the shuffled order after it.
    generic reads no preplan and draws no base sample.
    """
    if k < 1:
        raise ValueError("k must be >= 1")  # before the base pass spends a call
    preplans, failed = [""] * len(problems), 0  # the generic prefix reads no preplan
    if mode != PerturbationMode.GENERIC:
        drawn = evaluate(problems, 1, client, **kwargs)
        problems, failed = [r.problem for r in drawn.records], drawn.failed
        preplans = [read_trajectory(r.samples[0]).preplan for r in drawn.records]
        base_file.parent.mkdir(parents=True, exist_ok=True)
        write_jsonl(base_file, ({"id": p.id, "preplan": preplan} for p, preplan in zip(problems, preplans)))
    prefixes = dict(zip((p.id for p in problems), perturb_preplan(preplans, mode, seed)))
    report = evaluate(problems, k, client, prefixes=prefixes, equivalence=equivalence, **kwargs)
    return replace(report, failed=failed + report.failed)


def cmd_eval(args) -> int:
    if args.perturb and args.replay is not None:
        raise ValueError("a perturbation needs live generation, not replay transcripts")
    config = _load_config(args)
    out_dir = Path(args.out)
    if args.replay is not None and Path(args.replay).resolve() == out_dir.resolve():
        # This run's transcripts would replace the ones it replays.
        raise ValueError(f"--out {args.out} is the --replay directory; write to another one")
    benches: dict[str, str] = {}
    for bench in args.bench:
        stem = Path(bench).stem
        if stem in benches:
            raise ValueError(
                f"--bench {benches[stem]} and --bench {bench} would both write {stem}.* under --out"
            )
        benches[stem] = bench
    # Checked before the first call; transcripts are still read one bench at
    # a time, so only one bench's samples are held at once.
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists() or d.is_symlink())
    if not existing.is_dir():
        raise ValueError(f"--out {args.out}: {existing} is not a directory")
    transcripts = {} if args.replay is None else {s: Path(args.replay) / f"{s}.transcripts.jsonl" for s in benches}
    for path in transcripts.values():
        if not path.is_file():
            raise ValueError(f"--replay {args.replay} has no file {path.name}")
    # Every bench is read before the first call, so a bad later file wastes none.
    problem_sets = {stem: load_problems(Path(bench)) for stem, bench in benches.items()}
    mode = PerturbationMode(args.perturb) if args.perturb else None
    for stem, problems in problem_sets.items():
        if mode == PerturbationMode.MISMATCHED and len(problems) < 2:
            raise ValueError(f"--bench {benches[stem]}: mismatched perturbation needs >= 2 preplans")

    client = None
    if args.replay is None:
        client = build_client(config, "policy", os.environ)
    equivalence = None
    if args.judge_fallback:
        judge = build_client(config, "judge", os.environ)
        equivalence = functools.partial(judge_equivalence, judge)

    params = config.sampling(prompts.EVAL_SYSTEM_PROMPT)

    kwargs = dict(equivalence=equivalence, params=params, parallelism=args.parallelism or config.parallelism)
    reports = []
    for stem, problems in problem_sets.items():
        if mode is None:
            replay = None if args.replay is None else read_transcripts(transcripts[stem])
            report = evaluate(problems, args.k, client, replay=replay, benchmark=stem, **kwargs)
        else:
            base_file = out_dir / f"{stem}.base.jsonl"
            report = _evaluate_perturbed(problems, args.k, client, mode, args.seed, base_file, benchmark=stem, **kwargs)
        reports.append(report)
        write_eval_outputs(out_dir, report)
    print(format_report_table(reports))
    if any(r.failed and not r.problems for r in reports):
        log.error("a benchmark failed entirely at generation; endpoint unusable")
        return EXIT_ENDPOINT
    return EXIT_OK


def cmd_perturb(args) -> int:
    _load_config(args)  # perturb reads no config value, but a bad --config is still an error
    rows = list(read_jsonl(getattr(args, "in"), lambda row: (row_id(row), typed_field(row, "preplan"))))
    prefixes = perturb_preplan([preplan for _, preplan in rows], PerturbationMode(args.mode), args.seed)
    write_jsonl(
        args.out,
        ({"id": pid, "forced_prefix": prefix} for (pid, _), prefix in zip(rows, prefixes)),
    )
    return EXIT_OK


def cmd_attribute(args) -> int:
    config = _load_config(args)
    judge = build_client(config, "judge", os.environ)
    tally = {"how_to_solve": 0, "unparseable": 0, "failed": 0}
    facets = {facet.value: 0 for facet in Facet}

    def attribute(row: dict) -> dict:
        rid = row_id(row)  # checked before the judge call, so a bad row costs none
        texts = [typed_field(row, key) for key in ("question", "solution", "gold")]
        try:
            facet = attribute_error(judge, *texts)
        except (UnparseableVerdict, ClientError) as exc:
            log.warning("row %s: %s", rid, exc)
            unparseable = isinstance(exc, UnparseableVerdict)
            tally["unparseable" if unparseable else "failed"] += 1
            return {"id": rid, "what_to_solve": None, "facet": None, "unparseable": unparseable}
        if facet is None:
            tally["how_to_solve"] += 1
            return {"id": rid, "what_to_solve": False, "facet": None, "unparseable": False}
        facets[facet.value] += 1
        return {"id": rid, "what_to_solve": True, "facet": facet.value, "unparseable": False}

    write_jsonl(args.out, read_jsonl(getattr(args, "in"), attribute))
    what_to_solve = sum(facets.values())
    total = what_to_solve + tally["how_to_solve"]
    print(JSON_ENCODER.encode({**tally, "what_to_solve": what_to_solve, "total": total, "facets": facets}))
    if tally["failed"] and not total and not tally["unparseable"]:
        log.error("every judge call failed; endpoint unusable")
        return EXIT_ENDPOINT
    return EXIT_OK


# --- argument wiring -----------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The `ppc` parser, built once per process and shared by every `main` call."""
    parser = _Parser(prog="ppc", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, seed_required=False):
        p.add_argument("--config", help="pipeline config JSON file")
        if seed_required:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")

    p = sub.add_parser("lint", help="spoiler-score a JSONL of {id, preplan}")
    common(p)
    p.add_argument("--in", required=True, help="input JSONL ('-' for stdin)")
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("synthesize", help="run the three-stage synthesis over a corpus")
    common(p, seed_required=True)
    p.add_argument("--in", required=True, help="problems JSONL {id, question, answer}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--parallelism", type=int, default=0, help="worker threads")
    p.add_argument("--retries", type=int, default=0, help="chain resamples after a drop or stage failure")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("reward", help="composite rewards for {trajectory, gold, adh[, prox]} rows")
    common(p)
    p.add_argument("--in", required=True, help="input JSONL ('-' for stdin)")
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.add_argument("--lambda-a", type=float, dest="lambda_a")
    p.add_argument("--lambda-f", type=float, dest="lambda_f")
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.set_defaults(fn=cmd_reward)

    p = sub.add_parser("grpo-check", help="advantages/objective for a rollout group JSON")
    common(p)
    p.add_argument("--in", required=True, help="rollout group JSON file")
    p.add_argument("--epsilon", type=float, help="clip range")
    p.add_argument("--beta", type=float, help="KL weight")
    p.add_argument("--std-floor", type=float, dest="std_floor")
    p.set_defaults(fn=cmd_grpo_check)

    p = sub.add_parser("eval", help="maj@k / pass@k evaluation")
    common(p, seed_required=True)
    p.add_argument("--bench", action="append", required=True, help="benchmark JSONL (repeatable)")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--perturb", choices=[m.value for m in PerturbationMode])
    p.add_argument("--replay", help="directory of transcripts from a previous run")
    p.add_argument("--parallelism", type=int, default=0)
    p.add_argument("--judge-fallback", action="store_true", help="use the judge role for equivalence")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("perturb", help="forced prefixes for a JSONL of {id, preplan}")
    common(p, seed_required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.add_argument("--mode", required=True, choices=[m.value for m in PerturbationMode])
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("attribute", help="error attribution over {question, solution, gold} rows")
    common(p)
    p.add_argument("--in", required=True)
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.set_defaults(fn=cmd_attribute)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"ppc: error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    _setup_logging(args.verbose)
    started = time.monotonic()
    try:
        code = args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except ClientError as exc:
        log.error("endpoint failure after retries: %s", exc)
        return EXIT_ENDPOINT
    log.info("done in %.2fs", time.monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
