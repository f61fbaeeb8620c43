"""`ppc` command-line entry point.

Subcommands: lint, synthesize, reward, grpo-check, eval, perturb,
attribute. Data flows over stdin/stdout or --in/--out paths as JSONL; logs
go to stderr as line-delimited JSON. Exit codes: 0 success, 1 usage error,
2 data/config error, 3 endpoint failure after retries.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import prompts
from ._text import atomic_open, read_jsonl, typed_field, write_jsonl
from .clients import ClientError, GenerationRequest, UnparseableVerdict, attribute_error
from .config import ConfigError, PipelineConfig, build_client
from .evaluation import (
    PerturbationMode,
    PerturbationSpec,
    aggregate_attribution,
    answers_equivalent,
    evaluate,
    format_report_table,
    perturb_preplan,
    read_transcripts,
    write_transcripts,
)
from .grpo import GrpoConfig, RolloutGroup, grpo_objective
from .rewards import composite_reward
from .spoiler import spoiler_score
from .synthesis import (
    DuplicateId,
    GeneratorSuite,
    build_dataset,
    load_problems,
)
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
        return json.dumps(payload, sort_keys=True)


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


def _sampling(config: PipelineConfig, system_prompt: str = "") -> GenerationRequest:
    return GenerationRequest(
        user_prompt="",
        system_prompt=system_prompt,
        temperature=config.temperature,
        top_p=config.top_p,
        max_tokens=config.max_tokens,
    )


def _config_dir(args) -> Path | None:
    if getattr(args, "config", None):
        return Path(args.config).resolve().parent
    return None


def _override(base, **flags):
    """`base` with each field whose flag was given (not None) replaced."""
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


# --- subcommands -------------------------------------------------------------


def cmd_lint(args) -> int:
    cfg = _load_config(args).spoiler
    histogram = {str(s): 0 for s in range(7)}

    def lint(row: dict) -> dict:
        report = spoiler_score(typed_field(row, "preplan"), cfg)
        histogram[str(report.score)] += 1
        return {"id": row.get("id"), **report.to_dict()}

    write_jsonl(args.out, read_jsonl(getattr(args, "in"), lint))
    summary = {"count": sum(histogram.values()), "histogram": histogram}
    log.info("lint summary: %s", json.dumps(summary))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    config = _load_config(args)
    env = os.environ
    base = _config_dir(args)
    suite = GeneratorSuite(
        preplan_gen=build_client(config, "preplan_gen", env, base),
        plan_gen=build_client(config, "plan_gen", env, base),
        executor=build_client(config, "executor", env, base),
        cleanup=build_client(config, "cleanup", env, base),
    )
    problems = load_problems(Path(getattr(args, "in")))
    summary = build_dataset(
        problems,
        suite,
        Path(args.out),
        equivalence=answers_equivalent,
        params=_sampling(config),
        spoiler_cfg=config.spoiler,
        bounds=config.length_bounds,
        seed=args.seed,
        parallelism=args.parallelism or config.parallelism,
        retries=args.retries,
    )
    print(json.dumps(summary.to_dict(), sort_keys=True))
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
        tau_s=args.tau_s,
    )

    def reward(row: dict) -> dict:
        text, gold = typed_field(row, "trajectory"), typed_field(row, "gold")
        fmt = check_format(text)
        traj = read_trajectory(text)
        correct = row.get("correct")
        if correct is None:
            correct = answers_equivalent(traj.boxed_answer, gold)
        prox = row.get("prox")
        if not correct and prox is None:
            log.warning("row %s: missing prox verdict; using grade 1", row.get("id"))
            prox = 1
        adh = row.get("adh")
        if adh is None:
            log.warning("row %s: missing adh verdict; using grade 1", row.get("id"))
            adh = 1
        spoiler = spoiler_score(traj.preplan, config.spoiler)
        breakdown = composite_reward(correct, prox, adh, fmt, spoiler, weights)
        return {"id": row.get("id"), **breakdown.to_dict()}

    write_jsonl(args.out, read_jsonl(getattr(args, "in"), reward))
    return EXIT_OK


def cmd_grpo_check(args) -> int:
    with open(getattr(args, "in"), "r", encoding="utf-8") as f:
        group = RolloutGroup.from_dict(json.load(f))
    cfg = _override(
        _load_config(args).grpo or GrpoConfig(),
        epsilon_clip=args.epsilon,
        beta_kl=args.beta,
        std_floor=args.std_floor,
    )
    result = grpo_objective(group, cfg)
    print(json.dumps(result.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args)
    env = os.environ
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    client = None
    if args.replay is None:
        client = build_client(config, "policy", env, _config_dir(args))
    equivalence = None
    if args.judge_fallback:
        judge = build_client(config, "judge", env, _config_dir(args))
        equivalence = lambda pred, gold: answers_equivalent(pred, gold, fallback=judge)

    mode = None
    if args.perturb:
        mode = PerturbationSpec(mode=PerturbationMode(args.perturb), seed=args.seed)

    reports = []
    for bench in args.bench:
        bench_path = Path(bench)
        problems = load_problems(bench_path)
        replay = None
        if args.replay is not None:
            replay = read_transcripts(Path(args.replay) / f"{bench_path.stem}.transcripts.jsonl")
        report = evaluate(
            problems,
            args.k,
            client,
            mode=mode,
            equivalence=equivalence,
            replay=replay,
            params=_sampling(config, prompts.EVAL_SYSTEM_PROMPT),
            parallelism=args.parallelism or config.parallelism,
            benchmark=bench_path.stem,
        )
        reports.append(report)
        write_transcripts(out_dir / f"{bench_path.stem}.transcripts.jsonl", report)
        write_jsonl(
            out_dir / f"{bench_path.stem}.records.jsonl", (rec.to_dict() for rec in report.records)
        )
        with atomic_open(out_dir / f"{bench_path.stem}.report.json") as f:
            f.write(report.to_json() + "\n")
    print(format_report_table(reports))
    if any(r.failed and not r.problems for r in reports):
        log.error("a benchmark failed entirely at generation; endpoint unusable")
        return EXIT_ENDPOINT
    return EXIT_OK


def cmd_perturb(args) -> int:
    rows = list(read_jsonl(getattr(args, "in"), lambda row: (row["id"], typed_field(row, "preplan"))))
    spec = PerturbationSpec(mode=PerturbationMode(args.mode), seed=args.seed)
    prefixes = perturb_preplan([preplan for _, preplan in rows], spec)
    write_jsonl(
        args.out,
        ({"id": pid, "forced_prefix": prefix} for (pid, _), prefix in zip(rows, prefixes)),
    )
    return EXIT_OK


def cmd_attribute(args) -> int:
    config = _load_config(args)
    judge = build_client(config, "judge", os.environ, _config_dir(args))
    verdicts = []

    def attribute(row: dict) -> dict:
        try:
            verdict = attribute_error(judge, row["question"], row["solution"], row["gold"])
        except UnparseableVerdict as exc:
            log.warning("row %s: %s", row.get("id"), exc)
            verdict = None
        verdicts.append(verdict)
        return {
            "id": row.get("id"),
            "what_to_solve": None if verdict is None else verdict.is_what_to_solve,
            "facet": None if verdict is None or verdict.facet is None else verdict.facet.value,
            "unparseable": verdict is None,
        }

    write_jsonl(args.out, read_jsonl(getattr(args, "in"), attribute))
    print(json.dumps(aggregate_attribution(verdicts).to_dict(), sort_keys=True))
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
    p.add_argument("--retries", type=int, default=0, help="chain resamples on filter failure")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("reward", help="composite rewards for {trajectory, gold, verdicts} rows")
    common(p)
    p.add_argument("--in", required=True, help="input JSONL ('-' for stdin)")
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.add_argument("--lambda-a", type=float, dest="lambda_a")
    p.add_argument("--lambda-f", type=float, dest="lambda_f")
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.add_argument("--tau-s", type=int, dest="tau_s")
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
    except (ConfigError, DuplicateId, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except ClientError as exc:
        log.error("endpoint failure after retries: %s", exc)
        return EXIT_ENDPOINT
    log.info("done in %.2fs", time.monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
