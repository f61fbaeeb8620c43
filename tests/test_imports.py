"""Offline work starts without the HTTP stack.

`requests` (and with it urllib3, ssl, http.client and email) is imported
only when an HTTP role's client is built, so `import ppc` and every
subcommand that calls no HTTP endpoint (a scripted role is none) runs
where importing it fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ppc

SRC = str(Path(ppc.__file__).resolve().parent.parent)

TRAJECTORY = (
    "<preplan>plain analysis</preplan>\n"
    "<plan>1. Solve.</plan>\n"
    "<execute>work \\boxed{7}</execute>"
)

WITHOUT_REQUESTS = """
import json, sys
sys.modules["requests"] = None  # any import of requests now raises ImportError
import ppc, ppc.config, ppc.cli
print(json.dumps([ppc.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def run_python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def test_offline_commands_run_without_requests(tmp_path):
    preplans = write_rows(
        tmp_path / "preplans.jsonl",
        [{"id": "a", "preplan": "clean analysis."}, {"id": "b", "preplan": "another view."}],
    )
    rewards = write_rows(
        tmp_path / "rewards.jsonl", [{"id": "x", "trajectory": TRAJECTORY, "gold": "7", "adh": 5}]
    )
    group = tmp_path / "group.json"
    group.write_text(
        json.dumps({"rewards": [1.4, 0.6], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0],
                    "logp_ref": [-1.0, -2.0]})
    )
    bench = write_rows(tmp_path / "mini.jsonl", [{"id": "a", "question": "q?", "answer": "7"}])
    (tmp_path / "run").mkdir()
    write_rows(tmp_path / "run" / "mini.transcripts.jsonl", [{"id": "a", "samples": [TRAJECTORY] * 2}])
    wrong = write_rows(tmp_path / "wrong.jsonl", [{"id": "w", "question": "q?", "solution": "s", "gold": "7"}])
    (tmp_path / "judge.json").write_text(json.dumps([{"match": "q?", "response": '{"what_to_solve": false}'}]))
    judge_config = tmp_path / "judge.cfg.json"
    judge_config.write_text(json.dumps({"roles": {"judge": {"kind": "scripted", "script": "judge.json"}}}))
    out = tmp_path / "out"
    out.mkdir()
    commands = [
        ["lint", "--in", preplans, "--out", str(out / "lint.jsonl")],
        ["reward", "--in", rewards, "--out", str(out / "reward.jsonl")],
        ["perturb", "--in", preplans, "--mode", "mismatched", "--seed", "1",
         "--out", str(out / "perturb.jsonl")],
        ["grpo-check", "--in", str(group)],
        ["eval", "--bench", bench, "--k", "2", "--seed", "1", "--replay", str(tmp_path / "run"),
         "--out", str(out / "eval")],
        ["attribute", "--config", str(judge_config), "--in", wrong, "--out", str(out / "attribute.jsonl")],
    ]
    assert json.loads(run_python(WITHOUT_REQUESTS, json.dumps(commands))) == [0] * len(commands)
    for name in ("lint.jsonl", "reward.jsonl", "perturb.jsonl", "eval/mini.report.json"):
        assert (out / name).stat().st_size > 0
    assert json.loads((out / "attribute.jsonl").read_text())["what_to_solve"] is False


def test_import_loads_neither_requests_nor_secrets():
    code = "import sys, ppc.cli; print([m for m in ('requests', 'secrets') if m in sys.modules])"
    assert run_python(code) == "[]"
