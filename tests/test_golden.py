"""Golden outputs: each case under tests/golden/ pins what `ppc` writes.

A case is a directory tests/golden/<case>/ holding
  in/        the files the runs start from, copied into a fresh work dir;
  argv.json  a list of runs, each the argv of one `ppc` call in that work dir,
             so a run can read what the run before it wrote;
  expected/  runs.json: each run's exit code, stdout and log lines, and the
             directories the work dir holds after the last run that in/ lacks;
             files/: every file the work dir holds after the last run that in/
             does not hold with the same bytes.

Compared: every file in the work dir byte for byte, each run's exit code and
stdout, and its stderr log lines reduced to "level logger: msg" and sorted,
since workers log in any order; the timestamp and the closing "done in ...s"
line are dropped. A usage error (exit 1) pins its exit code only, because
argparse's usage text differs between Python versions. The work dir's path
reads as <work> in stdout and log lines.

    python tests/test_golden.py --update      # rewrite every expected/ from src/
    python tests/test_golden.py --installed   # run every case through the installed `ppc`
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "argv.json").is_file())
EXIT_USAGE = 1


def run_in_process(argv: list[str], work: Path) -> tuple[int, str, str]:
    from ppc.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_installed(argv: list[str], work: Path) -> tuple[int, str, str]:
    done = subprocess.run(["ppc", *argv], cwd=work, stdin=subprocess.DEVNULL, capture_output=True)
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


def log_lines(stderr: str) -> list[str]:
    """Each stderr line as "level logger: msg", sorted; a line that is no JSON log record stays as it is."""
    lines = []
    for line in stderr.splitlines():
        try:
            record = json.loads(line)
            line = f"{record['level']} {record['logger']}: {record['msg']}"
        except (ValueError, KeyError, TypeError):
            pass
        if not line.startswith("info ppc: done in "):
            lines.append(line)
    return sorted(lines)


def observe(case: str, run, work: Path) -> dict:
    """The outcome of `case`'s runs in `work`, keyed as expected() keys it."""
    source = GOLDEN / case / "in"
    shutil.copytree(source, work, dirs_exist_ok=True)
    runs = []
    for argv in json.loads((GOLDEN / case / "argv.json").read_text(encoding="utf-8")):
        code, stdout, stderr = run(argv, work)
        stdout, stderr = (text.replace(str(work.resolve()), "<work>") for text in (stdout, stderr))
        runs.append({"exit": code} if code == EXIT_USAGE else {"exit": code, "stdout": stdout, "log": log_lines(stderr)})
    dirs, files = [], {}
    for path in sorted(work.rglob("*")):
        rel = path.relative_to(work).as_posix()
        if path.is_dir():
            if not (source / rel).is_dir():
                dirs.append(rel)
        elif not (source / rel).is_file() or (source / rel).read_bytes() != path.read_bytes():
            files[rel] = path.read_bytes()
    return {"runs.json": {"dirs": dirs, "runs": runs}, **{f"files/{rel}": data for rel, data in files.items()}}


def expected(case: str) -> dict:
    root = GOLDEN / case / "expected"
    pinned = {"runs.json": json.loads((root / "runs.json").read_text(encoding="utf-8"))}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.parent != root:
            pinned[path.relative_to(root).as_posix()] = path.read_bytes()
    return pinned


def differences(want: dict, got: dict) -> list[str]:
    """One line per expected/ entry that the observed outcome does not match."""
    lines = []
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            lines.append(f"{key}: missing")
        elif key not in want:
            lines.append(f"{key}: not expected")
        elif key == "runs.json":
            pairs = [("dirs", want[key]["dirs"], got[key]["dirs"])]
            pairs += [(f"run {i}", *runs) for i, runs in enumerate(zip_longest(want[key]["runs"], got[key]["runs"]), 1)]
            lines += [f"{what}: expected {a!r:.600}, got {b!r:.600}" for what, a, b in pairs if a != b]
        elif want[key] != got[key]:
            lines.append(f"{key}: bytes differ")
    return lines


@pytest.mark.parametrize("case", CASES)
def test_golden(case, tmp_path):
    problems = differences(expected(case), observe(case, run_in_process, tmp_path))
    assert not problems, "\n".join(problems)


def test_synthesized_targets_read_back_as_written(tmp_path):
    """The synthesize case's SFT targets, served as the eval policy's replies to
    their prompts, read back as well-formed correct trajectories in eval and reward."""
    shutil.copytree(GOLDEN / "synthesize" / "in", tmp_path, dirs_exist_ok=True)
    argv = ["synthesize", "--config", "syn.json", "--in", "problems.jsonl", "--out", "s", "--seed", "1"]
    assert run_in_process(argv, tmp_path)[0] == 0

    def rows(name):
        return [json.loads(line) for line in (tmp_path / name).read_text(encoding="utf-8").splitlines()]

    gold = {row["id"]: row["answer"] for row in rows("problems.jsonl")}
    sft = rows("s/sft.jsonl")
    assert len(sft) == 2

    def write(name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")

    write("policy.json", json.dumps({row["prompt"]: row["target"] for row in sft}))
    write("policy.cfg.json", json.dumps({"roles": {"policy": {"kind": "scripted", "script": "policy.json"}}}))
    write("kept.jsonl", "".join(json.dumps({"id": r["id"], "question": r["prompt"], "answer": gold[r["id"]]}) + "\n" for r in sft))
    write("graded.jsonl", "".join(json.dumps({"id": r["id"], "trajectory": r["target"], "gold": gold[r["id"]], "adh": 5}) + "\n" for r in sft))
    argv = ["eval", "--config", "policy.cfg.json", "--bench", "kept.jsonl", "--k", "2", "--out", "e", "--seed", "1"]
    assert run_in_process(argv, tmp_path)[0] == 0
    assert run_in_process(["reward", "--in", "graded.jsonl", "--out", "rewards.jsonl"], tmp_path)[0] == 0

    report = json.loads((tmp_path / "e" / "kept.report.json").read_text(encoding="utf-8"))
    assert (report["problems"], report["failed"], report["maj_at_k"], report["pass_at_k"]) == (2, 0, 100.0, 100.0)
    assert [r["samples"] for r in rows("e/kept.transcripts.jsonl")] == [[r["target"]] * 2 for r in sft]
    rewards = [(r["id"], r["correct"], r["r_fmt"], r["r_sty_raw"]) for r in rows("rewards.jsonl")]
    assert rewards == [(r["id"], True, 1, 0) for r in sft]


def main(argv: list[str]) -> int:
    if argv == ["--update"]:
        sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
        for case in CASES:
            with tempfile.TemporaryDirectory() as work:
                got = observe(case, run_in_process, Path(work))
            root = GOLDEN / case / "expected"
            shutil.rmtree(root, ignore_errors=True)
            for key, value in got.items():
                (root / key).parent.mkdir(parents=True, exist_ok=True)
                if key == "runs.json":
                    value = (json.dumps(value, indent=1, ensure_ascii=False) + "\n").encode("utf-8")
                (root / key).write_bytes(value)
        return 0
    if argv != ["--installed"]:
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            problems = differences(expected(case), observe(case, run_installed, Path(work)))
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok'}  {case}", *problems, sep="\n    ")
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
