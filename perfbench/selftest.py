"""Self-tests for the benchmark's own parts, on small inputs.

    python3 perfbench/selftest.py

- The fake transport answers identically at parallelism 1 and 2.
- Each output check fails when one output is corrupted on purpose.
- No span's self time exceeds its duration (or drops below zero).
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ppc  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / ".out" / "selftest"
SEED = 7


def small(name: str, tracer=None, **sizes):
    sizes = sizes or {
        "synth": {"problems": 40},
        "eval": {"problems": 10},
        "rl_step": {"steps": 4},
        "rescore": {"problems": 10, "pool": 20},
    }[name]
    return workloads.WORKLOADS[name](SEED, OUT, tracer or tracing.NullTracer(), **sizes)


class TransportTest(unittest.TestCase):
    def test_eval_samples_same_at_parallelism_1_and_2(self):
        seen = []
        original = ppc.evaluate
        for parallelism in (1, 2):
            wl = small("eval")
            wl.parallelism = parallelism
            reports = []
            ppc.evaluate = lambda *a, **k: reports.append(original(*a, **k)) or reports[-1]
            try:
                res = wl.run_pass()
            finally:
                ppc.evaluate = original
            self.assertEqual(res.failed, 0, res.errors)
            seen.append(([(r.problem.id, r.samples, r.verdicts) for r in reports[0].records],
                         dict(wl.endpoint.requests)))
        self.assertEqual(seen[0], seen[1])

    def test_synth_dataset_same_at_parallelism_1_and_2(self):
        files = []
        for parallelism in (1, 2):
            wl = small("synth")
            wl.parallelism = parallelism
            res = wl.run_pass()
            self.assertEqual(res.failed, 0, res.errors)
            out = wl.out / "dataset"
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        self.assertEqual(files[0], files[1])


class ChecksCatchCorruptionTest(unittest.TestCase):
    def test_synth_row_and_summary(self):
        wl = small("synth")
        self.assertEqual(wl.run_pass().failed, 0)
        out = wl.out / "dataset"
        for name, corrupt in (
            ("sft.jsonl", lambda t: t.replace('"target": "<preplan>', '"target": "<preplan> ', 1)),
            ("rejects.jsonl", lambda t: t.replace('"answer_correct": true', '"answer_correct": false', 1)),
            ("summary.json", lambda t: t.replace('"kept": ', '"kept": 1', 1)),
        ):
            path = out / name
            good = path.read_text(encoding="utf-8")
            path.write_text(corrupt(good), encoding="utf-8")
            res = workloads.PassResult(items=len(wl.records), unit_s={}, unit_items={}, latencies_ms={})
            wl.check(out, res)
            path.write_text(good, encoding="utf-8")
            self.assertGreater(res.failed, 0, name)

    def test_eval_maj_verdict(self):
        wl = small("eval")
        original = ppc.evaluate

        def corrupted(*a, **k):
            report = original(*a, **k)
            report.records[0].maj_correct = not report.records[0].maj_correct
            return report

        ppc.evaluate = corrupted
        try:
            res = wl.run_pass()
        finally:
            ppc.evaluate = original
        self.assertEqual(res.failed, 1, res.errors)

    def test_rl_step_reward_and_advantages(self):
        wl = small("rl_step")
        self.assertEqual(wl.run_pass().failed, 0)
        for fn, corrupt in (
            ("composite_reward", lambda b: b.__class__(**{**b.to_dict(), "total": b.total + 1e-6})),
            ("grpo_objective", lambda r: r.__class__(**{**r.to_dict(), "advantages": [a + 0.1 for a in r.advantages]})),
        ):
            original = getattr(ppc, fn)
            setattr(ppc, fn, lambda *a, _o=original, _c=corrupt, **k: _c(_o(*a, **k)))
            try:
                res = wl.run_pass()
            finally:
                setattr(ppc, fn, original)
            self.assertEqual(res.failed, res.items, fn)

    def test_rescore_records_and_derangement(self):
        wl = small("rescore")
        self.assertEqual(wl.run_pass().failed, 0)
        _, _, _, records_path = wl.jobs[0]
        records = [json.loads(line) for line in records_path.read_text(encoding="utf-8").splitlines()]
        records[0]["pass_correct"] = not records[0]["pass_correct"]
        self.assertEqual(workloads.check_metrics(records, wl.by_id, []), 1)
        _, _, _, perturbed = wl.jobs[-1]
        rows = [json.loads(line) for line in perturbed.read_text(encoding="utf-8").splitlines()]
        rows[0]["forced_prefix"] = f"<preplan>{wl.pool[0][1]}</preplan>\n<plan>"  # its own preplan
        perturbed.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        self.assertGreater(wl.check_derangement(perturbed, []), 0)


class SpanTest(unittest.TestCase):
    def test_self_time_within_duration(self):
        for name in ("synth", "eval", "rl_step", "rescore"):
            tracer = tracing.Tracer()
            wl = small(name)
            run.install_tracing(wl, tracer)
            try:
                res = wl.run_pass()
            finally:
                tracer.restore()
            self.assertEqual(res.failed, 0, res.errors)
            stats = tracer.stats()
            self.assertTrue(stats, name)
            for span, st in stats.items():
                for dur, own in zip(st.durations, st.self_times):
                    self.assertLessEqual(own, dur + 1e-9, f"{name}: {span}")
                    self.assertGreaterEqual(own, -1e-9, f"{name}: {span}")


if __name__ == "__main__":
    import logging

    logging.getLogger("ppc").addHandler(logging.NullHandler())
    shutil.rmtree(OUT, ignore_errors=True)
    unittest.main()
