"""ppc benchmark: seeded workloads against ppc's public API, with checked outputs.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/selftest.py

Workloads (BENCHMARK.json says why each exists):

- synth:   build_dataset over 300 generated problems; four HTTP stage roles
- eval:    evaluate at k=16 over 40 problems, judge as equivalence fallback
- rl_step: the trainer's per-step path over groups of 16 long rollouts
- rescore: `ppc eval --replay` at k=64 over 120 problems in 24 benchmark
           files, then `ppc perturb --mode mismatched` over 600 preplans

Every endpoint is a fake transport behind the real HttpChatClient, so runs
are offline. A run builds its inputs from --seed, runs one warm-up pass,
then whole passes (at least three) until --seconds have gone by, and checks
every output. `--workload all` runs each workload in a process of its own.

With --trace 0 it prints the end-to-end metrics. Passes repeat identical
work, so each unit of work and each item gets its median over the passes;
items_per_s, item_p50_ms and item_tail_ms come from those medians. The
tail is the highest percentile with ten items beyond it. rl_step and
rescore are CPU-bound and report times at the reference CPU speed, and
setup_s is too (see calibrate.py). endpoint_calls_per_item and failed_frac
are printed with the rest but not in the JSON line, as they are 0 on
rl_step and rescore; the traced run reports them.

With --trace 1 it measures untraced passes for half the time, then
installs span wrappers around the layers' public functions and measures
traced passes for the other half; it prints the per-layer metrics and the
tracing overhead, and writes the spans to perfbench/.out/<workload>.spans.csv.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`failed` counts items whose output check failed; failures the generator
injected on purpose (GEN_FAIL chains, eval problems whose endpoint keeps
failing) are expected results and count only in failed_frac. The exit
code is 0 when every check passed, 1 when one failed, and 2 when the ppc
sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
WORKLOAD_NAMES = ("synth", "eval", "rl_step", "rescore")
SETUP_PROBES = 7
MIN_PASSES = 3
TAIL_BEYOND = 10


# Public functions wrapped in the traced run: (defining module, name, span).
TRACED_FUNCTIONS = (
    ("ppc.trajectory", "check_format", "trajectory.check_format"),
    ("ppc.trajectory", "parse_trajectory", "trajectory.parse"),
    ("ppc.trajectory", "extract_boxed", "trajectory.extract_boxed"),
    ("ppc.spoiler", "spoiler_score", "spoiler.score"),
    ("ppc.evaluation", "normalize_answer", "evaluation.normalize"),
    ("ppc.evaluation", "answers_equivalent", "evaluation.equivalence"),
    ("ppc.evaluation", "maj_at_k", "evaluation.maj_at_k"),
    ("ppc.evaluation", "pass_at_k", "evaluation.pass_at_k"),
    ("ppc.evaluation", "perturb_preplan", "evaluation.perturb"),
    ("ppc.evaluation", "evaluate", "evaluation.evaluate"),
    ("ppc.synthesis", "apply_filter", "synthesis.filter"),
    ("ppc.synthesis", "build_dataset", "synthesis.build_dataset"),
    ("ppc.rewards", "composite_reward", "rewards.composite"),
    ("ppc.grpo", "grpo_objective", "grpo.objective"),
)


def need_program() -> None:
    """Put the checkout's ppc sources first on the path, or stop."""
    if not (SRC / "ppc" / "__init__.py").is_file():
        print(f"perfbench: no ppc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_q(samples: int) -> float:
    """Highest quantile with TAIL_BEYOND samples beyond it, out of `samples`."""
    return max(0.5, 1.0 - TAIL_BEYOND / samples) if samples else 0.5


# --- set-up time -------------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Child process: time importing ppc and building the workload's config and clients."""
    t0 = time.perf_counter()
    import ppc  # noqa: F401
    import ppc.config  # noqa: F401

    if name == "rescore":
        import ppc.cli  # noqa: F401
    t1 = time.perf_counter()
    import transport
    import workloads

    t2 = time.perf_counter()
    endpoint = transport.FakeEndpoint({}, transport.Latency(0.0, 0.0, 0.0))
    workloads.setup(name, endpoint, transport.BackoffSleep())
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


def measure_setup(name: str) -> list[float]:
    """Set-up times of fresh processes, scaled to the reference CPU speed."""
    import calibrate

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name]
    raw, refs = [], []
    for _ in range(SETUP_PROBES + 1):
        refs.append(calibrate.reference_time())
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
    refs.append(calibrate.reference_time())
    scaled = [t * k for t, k in zip(raw, calibrate.scales(refs))]
    return scaled[1:]  # the first probe may still be writing bytecode caches


# --- runs --------------------------------------------------------------------------


def run_passes(wl, seconds: float, min_passes: int = 1) -> list:
    """Whole passes until `seconds` have gone by and at least `min_passes` ran."""
    results = []
    started = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - started < seconds:
        results.append(wl.run_pass())
    return results


def typical(results, attr: str) -> dict:
    """Per key, the median over passes."""
    values: dict = {}
    for r in results:
        for key, value in getattr(r, attr).items():
            values.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def rate(results) -> float:
    """Items per second, from each unit's typical time."""
    times = typical(results, "unit_s")
    return sum(results[0].unit_items[u] for u in times) / sum(times.values())


def end_to_end(name, results, setup_times):
    """Times are each unit's and each item's median over the run's passes."""
    lat = list(typical(results, "latencies_ms").values())
    q = tail_q(len(lat))
    tail = percentile(lat, q)
    items = sum(r.items for r in results)
    metrics = {
        "items_per_s": rate(results),
        "item_p50_ms": percentile(lat, 0.5),
        "item_tail_ms": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "endpoint_calls_per_item": sum(r.endpoint_calls for r in results) / items,
        "failed_frac": sum(r.injected + r.failed for r in results) / items,
    }
    per = "jobs, ms per row" if name == "rescore" else "items"
    scales = [k for r in results for k in r.scales]
    scaled = f", at reference CPU speed (mean scale {statistics.mean(scales):.3f})" if scales else ""
    notes = {
        "items_per_s": f"{len(results)} passes of {results[0].items} items, median per unit{scaled}",
        "item_p50_ms": f"n={len(lat)} {per}, median per item over passes",
        "item_tail_ms": f"p{100 * q:.1f}, {sum(x > tail for x in lat)} beyond, n={len(lat)}",
        "setup_s": f"median of {len(setup_times)} fresh processes, at reference CPU speed",
        "peak_rss_mb": "this process",
        "endpoint_calls_per_item": f"{sum(r.endpoint_calls for r in results)} requests",
        "failed_frac": f"{sum(r.injected + r.failed for r in results)} of {items}",
    }
    units = metric_units()
    for key, value in {**metrics, **extra}.items():
        print(f"  {key:<26} {value:>14.6g} {units[key]:<6} {notes[key]}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def install_tracing(wl, tracer) -> None:
    import ppc

    for module, attr, span in TRACED_FUNCTIONS:
        tracer.patch_function(module, attr, span)
    # synthesize names its problem: later spans on the thread belong to it
    tracer.patch_function("ppc.synthesis", "synthesize", "synthesis.chain",
                          item_of=lambda problem, *a, **k: problem.id)
    tracer.patch_attr(ppc.RolloutGroup, "__init__", "grpo.group_build")
    wl.instrument(tracer)
    wl.tracer = tracer


def per_layer(tracer, traced, untraced):
    from ppc.config import ROLE_NAMES
    from tracing import SpanStats

    stats = tracer.stats()
    passes = len(traced)
    items = sum(r.items for r in traced)
    problems = sum(r.problems for r in traced)
    samples = sum(r.samples for r in traced)
    wall = sum(sum(r.unit_s.values()) for r in traced)

    def st(name):
        return stats.get(name) or SpanStats()

    def per(n, d):
        return n / d if d else 0.0

    gen = [s for n, s in stats.items() if n.startswith("clients.generate.")]
    gen_calls = sum(s.count for s in gen)
    chain = st("synthesis.chain")
    chain_q = tail_q(chain.count)
    write_ms = []
    bd = st("synthesis.build_dataset")
    work = st("synthesis.chain"), st("synthesis.filter")
    for b0, b1 in zip(bd.starts, bd.ends):
        last = max((e for s in work for t, e in zip(s.starts, s.ends) if b0 <= t and e <= b1), default=b0)
        write_ms.append(1000.0 * (b1 - last))
    scans = sum(st(n).count for n in ("trajectory.check_format", "trajectory.parse", "trajectory.extract_boxed"))
    step_time = sum(st("bench.step").durations)
    m = {f"clients.calls.{role}": per(st(f"clients.generate.{role}").count, items) for role in ROLE_NAMES}
    m.update({
        "clients.attempts_per_call": per(st("bench.transport").count, gen_calls),
        "clients.backoff_s": per(sum(st("clients.backoff").durations), items),
        "clients.failed_calls": per(sum(s.failed for s in gen), passes),
        "clients.in_flight_mean": per(sum(sum(s.durations) for s in gen), wall),
        "clients.self_us_per_call": 1e6 * per(sum(sum(s.self_times) for s in gen), gen_calls),
        "synthesis.chain_ms_p50": 1000.0 * percentile(chain.durations, 0.5),
        "synthesis.chain_ms_tail": 1000.0 * percentile(chain.durations, chain_q),
        "synthesis.chains_per_problem": per(chain.count, problems),
        "synthesis.kept_per_chain": per(sum(r.kept for r in traced), chain.count),
        "synthesis.filter_us": st("synthesis.filter").median_us(),
        "synthesis.write_ms": statistics.median(write_ms) if write_ms else 0.0,
        "evaluation.equivalence_calls_per_problem": per(st("evaluation.equivalence").count, problems),
        "evaluation.normalize_calls_per_sample": per(st("evaluation.normalize").count, samples),
        "evaluation.normalize_us": st("evaluation.normalize").median_us(),
        "evaluation.maj_at_k_ms": st("evaluation.maj_at_k").median_us() / 1000.0,
        "evaluation.pass_at_k_us": st("evaluation.pass_at_k").median_us(),
        "evaluation.perturb_us": st("evaluation.perturb").median_us(),
        "trajectory.check_format_us": st("trajectory.check_format").median_us(),
        "trajectory.parse_us": st("trajectory.parse").median_us(),
        "trajectory.extract_boxed_us": st("trajectory.extract_boxed").median_us(),
        "trajectory.scans_per_item": per(scans, items),
        "spoiler.score_us": st("spoiler.score").median_us(),
        "spoiler.calls_per_item": per(st("spoiler.score").count, items),
        "rewards.composite_us": st("rewards.composite").median_us(),
        "grpo.group_build_ms": st("grpo.group_build").median_us() / 1000.0,
        "grpo.objective_ms": st("grpo.objective").median_us() / 1000.0,
        "grpo.step_share": per(sum(st("grpo.group_build").durations) + sum(st("grpo.objective").durations), step_time),
        "cli.self_ms.eval": 1000.0 * _median(st("cli.eval").self_times),
        "cli.self_ms.perturb": 1000.0 * _median(st("cli.perturb").self_times),
        "config.build_ms": st("config.build").median_us() / 1000.0,
        "bench.transport_us": 1e6 * per(sum(r.transport_cpu_s for r in traced), sum(r.endpoint_calls for r in traced)),
        "bench.trace_overhead": 1.0 - rate(traced) / rate(untraced),
        "endpoint_calls_per_item": per(sum(r.endpoint_calls for r in traced), items),
        "failed_frac": per(sum(r.injected + r.failed for r in traced), items),
    })
    return m


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def metric_units() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_times = [] if trace else measure_setup(name)
    import tracing
    import workloads

    # ppc logs retries and failed problems; the injected failures make many
    logging.getLogger("ppc").addHandler(logging.NullHandler())
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT, tracing.NullTracer())
    warm = wl.run_pass()
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    if not trace:
        results = run_passes(wl, seconds, MIN_PASSES)
        metrics = end_to_end(name, results, setup_times)
    else:
        untraced = run_passes(wl, seconds / 2)
        tracer = tracing.Tracer()
        install_tracing(wl, tracer)
        for _ in range(5):
            with tracer.span("config.build"):
                workloads.setup(name, wl.endpoint, wl.sleep)
        results = run_passes(wl, seconds / 2)
        tracer.restore()
        values = per_layer(tracer, results, untraced)
        units = metric_units()
        metrics = {}
        for key, value in values.items():
            print(f"  {key:<42} {value:>14.6g} {units[key]}")
            metrics[key] = {"value": value, "unit": units[key]}
        tracer.write(OUT / f"{name}.spans.csv")
        print(f"  {tracer.span_count()} spans written to {OUT / (name + '.spans.csv')}")
        results = untraced + results
    results.append(warm)
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for err in r.errors[:5]:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, so peak RSS is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
    print(f"all workloads: {'every check passed' if worst == 0 else 'a check failed'}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ppc benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    need_program()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
