import io
import json

import pytest
from conftest import default_stage_texts, make_problem

import ppc.cli
import ppc.clients
import ppc.config
import ppc.evaluation
from ppc.cli import main
from ppc.evaluation import answers_equivalent

GOOD_TRAJECTORY = (
    "<preplan>plain analysis</preplan>\n"
    "<plan>1. Solve.</plan>\n"
    "<execute>work \\boxed{7}</execute>"
)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def read_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def scripted_config(tmp_path, problems, stage_texts, extra=None):
    """Config file with all roles scripted from per-role rule files."""
    role_keys = {
        "preplan_gen": "preplan",
        "plan_gen": "plan",
        "executor": "raw",
        "cleanup": "execute",
    }
    roles = {}
    for role, key in role_keys.items():
        script = tmp_path / f"{role}.script.json"
        rules = [
            {"match": p.question, "response": stage_texts[p.question][key]}
            for p in problems
        ]
        script.write_text(json.dumps(rules))
        roles[role] = {"kind": "scripted", "script": script.name}
    config = {"roles": roles}
    config.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_seed_required_for_randomized_commands(self, capsys):
        assert main(["synthesize", "--in", "x.jsonl", "--out", "y"]) == 1
        assert main(["eval", "--bench", "b.jsonl", "--out", "d"]) == 1
        assert main(["perturb", "--in", "x.jsonl", "--mode", "shuffled"]) == 1
        assert "--seed" in capsys.readouterr().err


class TestLint:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "preplans.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "preplan": "clean analysis of the problem."},
                {"id": "b", "preplan": "this yields 1001 we get $a$ $b$ $c$ $d$"},
            ],
        )
        assert main(["lint", "--in", str(path)]) == 0
        out = capsys.readouterr()
        rows = read_jsonl(out.out)
        assert [r["id"] for r in rows] == ["a", "b"]
        assert rows[0]["score"] == 0
        assert rows[1]["score"] >= 3
        assert "histogram" in out.err

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["lint", "--in", str(tmp_path / "nope.jsonl")]) == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        path = tmp_path / "preplans.jsonl"
        write_jsonl(path, [{"id": "a", "preplan": "clean analysis."}])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"roles": {"judge": {"kind": "http", "modle": "m"}}}))
        assert main(["lint", "--config", str(config), "--in", str(path)]) == 2

    def test_tau_s_disagreement_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "preplans.jsonl"
        write_jsonl(path, [{"id": "a", "preplan": "clean analysis."}])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"spoiler": {"tau_s": 3}, "weights": {"tau_s": 1}}))
        assert main(["lint", "--config", str(config), "--in", str(path)]) == 2
        assert "tau_s" in capsys.readouterr().err

    def test_tau_s_is_not_an_option(self, tmp_path, capsys):
        # spoiler_score never reads tau_s, so lint has no threshold to set;
        # reward takes it from the config, where both copies must agree
        path = tmp_path / "preplans.jsonl"
        write_jsonl(path, [{"id": "a", "preplan": "clean analysis."}])
        assert main(["lint", "--in", str(path), "--tau-s", "3"]) == 1
        assert "--tau-s" in capsys.readouterr().err
        rows = tmp_path / "rows.jsonl"
        write_jsonl(rows, [{"id": "x", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 1}])
        assert main(["reward", "--in", str(rows), "--tau-s", "3"]) == 1
        assert "--tau-s" in capsys.readouterr().err


class TestSynthesize:
    def test_scripted_end_to_end(self, tmp_path, capsys):
        problems = [make_problem(f"p{i}") for i in range(3)]
        texts = default_stage_texts(problems)
        config = scripted_config(tmp_path, problems, texts)
        bench = tmp_path / "problems.jsonl"
        write_jsonl(
            bench,
            [{"id": p.id, "question": p.question, "answer": p.gold_answer} for p in problems],
        )
        out_dir = tmp_path / "dataset"
        code = main(
            [
                "synthesize",
                "--config",
                str(config),
                "--in",
                str(bench),
                "--out",
                str(out_dir),
                "--seed",
                "7",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kept"] == 3
        assert (out_dir / "sft.jsonl").exists()

    @pytest.mark.parametrize(
        "problem_rows, extra, message",
        [
            (
                [{"id": "p0", "answer": "7"}, {"id": "p1", "answer": ""}],
                {},
                "problems.jsonl:2: gold answer must be non-empty",
            ),
            (
                [{"id": "p0", "answer": "7"}],
                {"filter_min_tokens": 2000, "filter_max_tokens": 100},
                "need 0 <= filter_min_tokens <= filter_max_tokens, got 2000 and 100",
            ),
        ],
        ids=["empty-gold", "inverted-bounds"],
    )
    def test_unusable_input_makes_no_call(self, tmp_path, monkeypatch, capsys, problem_rows, extra, message):
        problems = [make_problem(f"p{i}") for i in range(2)]
        config = scripted_config(tmp_path, problems, default_stage_texts(problems), extra)
        bench = tmp_path / "problems.jsonl"
        write_jsonl(bench, [{**row, "question": f"question text {row['id']}"} for row in problem_rows])
        calls = []
        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
        out_dir = tmp_path / "dataset"
        argv = ["synthesize", "--config", str(config), "--in", str(bench), "--out", str(out_dir), "--seed", "7"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    def test_unreachable_endpoint_exits_3(self, tmp_path):
        problems = [make_problem("p0")]
        bench = tmp_path / "problems.jsonl"
        write_jsonl(bench, [{"id": "p0", "question": problems[0].question, "answer": "7"}])
        http_role = {
            "kind": "http",
            "endpoint": "http://127.0.0.1:1/v1/chat/completions",
            "model": "m",
            "max_attempts": 1,
            "timeout": 0.2,
        }
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"roles": {r: http_role for r in ("preplan_gen", "plan_gen", "executor", "cleanup")}})
        )
        code = main(
            [
                "synthesize",
                "--config",
                str(config),
                "--in",
                str(bench),
                "--out",
                str(tmp_path / "o"),
                "--seed",
                "1",
            ]
        )
        assert code == 3

    def test_negative_retries_is_data_error(self, tmp_path, monkeypatch, capsys):
        problems = [make_problem("p0")]
        config = scripted_config(tmp_path, problems, default_stage_texts(problems))
        bench = tmp_path / "problems.jsonl"
        write_jsonl(bench, [{"id": "p0", "question": problems[0].question, "answer": "7"}])
        calls = []
        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
        argv = ["synthesize", "--config", str(config), "--in", str(bench), "--out", str(tmp_path / "o")]
        assert main(argv + ["--seed", "1", "--retries", "-1"]) == 2
        assert "retries" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "o").exists()


# Values that load as the right JSON type but can never work, top level, in
# every role, or as a flag: (top-level keys, role keys, flags, message).
BAD_VALUES = {
    "parallelism-zero": ({"parallelism": 0}, {}, [], "parallelism must be >= 1, got 0"),
    "parallelism-negative": ({"parallelism": -3}, {}, [], "parallelism must be >= 1, got -3"),
    "timeout": ({}, {"timeout": 0}, [], "timeout must be > 0, got 0"),
    "max-attempts": ({}, {"max_attempts": 0}, [], "max_attempts must be >= 1, got 0"),
    "parallelism-flag": ({}, {}, ["--parallelism", "-1"], "parallelism must be >= 1"),
}


@pytest.mark.parametrize("top, role, flags, detail", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize("command", ["synthesize", "eval"])
def test_bad_value_exits_2_before_any_call(tmp_path, monkeypatch, capsys, command, top, role, flags, detail):
    if command == "synthesize":
        problems = [make_problem("p0")]
        config = scripted_config(tmp_path, problems, default_stage_texts(problems))
        bench = tmp_path / "problems.jsonl"
        write_jsonl(bench, [{"id": "p0", "question": problems[0].question, "answer": "7"}])
        argv = ["synthesize", "--in", str(bench)]
    else:
        bench, config = eval_setup(tmp_path, {"a": "7"})
        argv = ["eval", "--bench", str(bench), "--k", "2"]
    doc = json.loads(config.read_text())
    doc.update(top)
    for entry in doc["roles"].values():
        entry.update(role)
    config.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
    argv += ["--config", str(config), "--out", str(tmp_path / "o"), "--seed", "1"]
    assert main(argv + flags) == 2
    assert detail in capsys.readouterr().err
    assert calls == []


class TestReward:
    def test_breakdowns(self, tmp_path, capsys):
        rows = [
            {"id": "good", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 5, "prox": None},
            {"id": "near", "trajectory": GOOD_TRAJECTORY, "gold": "9", "prox": 3, "adh": 3},
        ]
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, rows)
        assert main(["reward", "--in", str(path)]) == 0
        out = read_jsonl(capsys.readouterr().out)
        good = next(r for r in out if r["id"] == "good")
        near = next(r for r in out if r["id"] == "near")
        assert good["total"] == 1.4
        assert good["r_out"] == 1.0  # a correct row needs no prox; null is allowed
        assert good["correct"] is True
        assert near["r_out"] == 0.25
        assert near["correct"] is False

    def test_boxed_outside_execute_is_no_answer(self, tmp_path, capsys):
        text = GOOD_TRAJECTORY.replace("work \\boxed{7}</execute>", "work</execute> \\boxed{7}")
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": "x", "trajectory": text, "gold": "7", "prox": 1, "adh": 1}])
        assert main(["reward", "--in", str(path)]) == 0
        row = read_jsonl(capsys.readouterr().out)[0]
        assert row["correct"] is False
        assert row["r_fmt"] == 0

    def test_weight_flags(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": "x", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 1}])
        assert main(["reward", "--in", str(path), "--lambda-f", "0.5"]) == 0
        row = read_jsonl(capsys.readouterr().out)[0]
        assert row["total"] == 1.5

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weights": {"lambda_f": 0.2}}))
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": "x", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 1}])
        argv = ["reward", "--config", str(config), "--in", str(path)]
        assert main(argv) == 0
        assert read_jsonl(capsys.readouterr().out)[0]["total"] == 1.2
        assert main(argv + ["--lambda-f", "0.5"]) == 0
        assert read_jsonl(capsys.readouterr().out)[0]["total"] == 1.5


    @pytest.mark.parametrize(
        "row, error",
        [
            ({"gold": "7"}, "missing field 'adh'"),
            ({"gold": "7", "adh": None}, "judge grade must be an integer in 1..5, got None"),
            ({"gold": "7", "adh": 6}, "judge grade must be an integer in 1..5, got 6"),
            ({"gold": "9", "adh": 3}, "incorrect answers need a proximity grade"),
            ({"gold": "9", "adh": 3, "prox": None}, "incorrect answers need a proximity grade"),
            ({"gold": "9", "adh": 3, "prox": 0}, "judge grade must be an integer in 1..5, got 0"),
            ({"gold": "7", "adh": 3, "prox": "junk"}, "judge grade must be an integer in 1..5, got 'junk'"),
            ({"gold": "7", "adh": 3, "prox": 6}, "judge grade must be an integer in 1..5, got 6"),
        ],
        ids=[
            "no-adh", "null-adh", "adh-out-of-range", "no-prox", "null-prox", "prox-out-of-range",
            "correct-prox-not-an-integer", "correct-prox-out-of-range",
        ],
    )
    def test_missing_grade_is_data_error(self, tmp_path, capsys, row, error):
        path = tmp_path / "rows.jsonl"
        good = {"id": "ok", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 5}
        write_jsonl(path, [good, {"id": "x", "trajectory": GOOD_TRAJECTORY, **row}])
        assert main(["reward", "--in", str(path)]) == 2
        assert f"rows.jsonl:2: {error}" in capsys.readouterr().err

    def test_non_finite_weight_flag_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": "x", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 1}])
        assert main(["reward", "--in", str(path), "--lambda-s", "nan"]) == 2
        captured = capsys.readouterr()
        assert "lambda_s must be finite" in captured.err
        assert captured.out == ""


class TestGrpoCheck:
    def test_prints_result(self, tmp_path, capsys):
        group = {
            "rewards": [1.4, 0.6],
            "logp_new": [-1.0, -2.0],
            "logp_old": [-1.0, -2.0],
            "logp_ref": [-1.0, -2.0],
        }
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path), "--beta", "0.04"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["advantages"] == pytest.approx([1.0, -1.0])
        assert result["objective"] == pytest.approx(0.0, abs=1e-12)
        assert result["clip_fraction"] == 0.0

    def test_non_finite_epsilon_is_data_error(self, tmp_path, capsys):
        group = {"rewards": [1.0, 0.0], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0], "logp_ref": [-1.0, -2.0]}
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path), "--epsilon", "inf"]) == 2
        captured = capsys.readouterr()
        assert "epsilon_clip must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["rewards", "logp_new"])
    def test_integer_too_large_for_a_float_is_data_error(self, tmp_path, capsys, field):
        group = {"rewards": [1.0, 0.0], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0], "logp_ref": [-1.0, -2.0]}
        group[field] = [group[field][0], "HUGE"]
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group).replace('"HUGE"', "1" + "0" * 400))
        assert main(["grpo-check", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{field} contains an integer too large for a float" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_in_document_is_data_error(self, tmp_path, capsys, number):
        path = tmp_path / "group.json"
        path.write_text(
            '{"rewards": [1.0, %s], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0], '
            '"logp_ref": [-1.0, -2.0]}' % number
        )
        assert main(["grpo-check", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{number} is not a JSON number" in captured.err
        assert captured.out == ""

    def test_bad_group_is_data_error(self, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"rewards": [1.0]}))
        assert main(["grpo-check", "--in", str(path)]) == 2

    def test_non_finite_logp_ref_is_data_error(self, tmp_path):
        group = {
            "rewards": [1.0, 0.0],
            "logp_new": [-1.0, -2.0],
            "logp_old": [-1.0, -2.0],
            "logp_ref": [-1.0, float("nan")],
        }
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path)]) == 2

    def test_overflowing_log_ratio_is_data_error(self, tmp_path, capsys):
        group = {
            "rewards": [1.0, 0.0],
            "logp_new": [[-1.0, -1.0], [-1.0, 800.0]],
            "logp_old": [[-1.0, -1.0], [-1.0, -1.0]],
            "logp_ref": [[-1.0, -1.0], [-1.0, -1.0]],
        }
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert "rollout 1: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rewards, logp_new, error",
        [
            # every rollout's KL is finite (8.2e307), but their total is not
            ([0.0, 1.0, 0.5], -710.0, "group totals too large"),
            ([1e200, -1e200, 0.0], -1.0, "rewards spread too wide"),
        ],
        ids=["kl-total", "reward-variance"],
    )
    def test_overflowing_group_total_is_data_error(self, tmp_path, capsys, rewards, logp_new, error):
        group = {"rewards": rewards, "logp_new": [logp_new] * 3, "logp_old": [logp_new] * 3, "logp_ref": [-1.0] * 3}
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert error in captured.err
        assert captured.out == ""

    def test_empty_token_lists_are_data_error(self, tmp_path, capsys):
        group = {
            "rewards": [1.0, 0.0],
            "logp_new": [[], [-1.0]],
            "logp_old": [[], [-1.0]],
            "logp_ref": [[], [-1.0]],
        }
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert "rollout 0: token lists are empty" in capsys.readouterr().err

    def test_nesting_too_deep_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text("[" * 100_000)
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert f"data error: {path}: JSON nested too deeply" in capsys.readouterr().err

    def test_missing_field_is_data_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text('{"logp_new": [], "logp_old": [], "logp_ref": []}')
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert f"data error: {path}: missing field 'rewards'" in capsys.readouterr().err

    def test_document_not_an_object_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text("[1, 2]")
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert "a rollout group must be a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("logp_new", [-1.0, "-2.0"], "rollout 1: logp_new"),
            ("logp_old", [-1.0, [-2.0, None]], "rollout 1: logp_old"),
            ("rewards", [1.0, "0"], "rollout 1: rewards"),
            ("logp_ref", 5, "logp_ref must be a list"),
        ],
        ids=["string-logp", "null-token", "string-reward", "not-a-list"],
    )
    def test_wrong_type_is_data_error(self, tmp_path, capsys, field, value, named):
        group = {
            "rewards": [1.0, 0.0],
            "logp_new": [-1.0, -2.0],
            "logp_old": [-1.0, -2.0],
            "logp_ref": [-1.0, -2.0],
            field: value,
        }
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("G", [2.0, True, "2"], ids=["float", "bool", "string"])
    def test_group_size_not_an_integer_is_data_error(self, tmp_path, capsys, G):
        group = {"rewards": [1.0, 0.0], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0], "logp_ref": [-1.0, -2.0]}
        path = tmp_path / "group.json"
        path.write_text(json.dumps({**group, "G": G}))
        assert main(["grpo-check", "--in", str(path)]) == 2
        assert f"G must be an integer, got {G!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("G", [0, 1, 3], ids=["zero", "fewer", "more"])
    def test_group_size_not_the_rollout_count_is_data_error(self, tmp_path, capsys, G):
        group = {"rewards": [1.0, 0.0], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0], "logp_ref": [-1.0, -2.0]}
        path = tmp_path / "group.json"
        path.write_text(json.dumps({**group, "G": G}))
        assert main(["grpo-check", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"G is {G}, but the group has 2 rollouts" in captured.err
        assert captured.out == ""

    def test_group_size_equal_to_the_rollout_count_runs(self, tmp_path, capsys):
        group = {"rewards": [1.0, 0.0], "logp_new": [-1.0, -2.0], "logp_old": [-1.0, -2.0], "logp_ref": [-1.0, -2.0]}
        path = tmp_path / "group.json"
        path.write_text(json.dumps({**group, "G": 2}))
        assert main(["grpo-check", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["advantages"] == pytest.approx([1.0, -1.0])


def completion_with(text):
    return f"<preplan>{text}</preplan>\n<plan>1. go.</plan>\n<execute>{text} \\boxed{{7}}</execute>"


# Gold is 7 for every eval_setup problem, and a judge reads this as NO.
WRONG = "<preplan>p.</preplan>\n<plan>1. go.</plan>\n<execute>\\boxed{8}</execute>"


def eval_setup(tmp_path, answers_by_problem):
    problems = list(answers_by_problem)
    bench = tmp_path / "mini.jsonl"
    write_jsonl(
        bench,
        [{"id": pid, "question": f"question {pid}", "answer": "7"} for pid in problems],
    )
    rules = []
    for pid, answer in answers_by_problem.items():
        completion = (
            f"<preplan>analysis {pid}.</preplan>\n<plan>1. go.</plan>\n"
            f"<execute>steps \\boxed{{{answer}}}</execute>"
        )
        rules.append({"match": f"question {pid}", "response": completion})
    script = tmp_path / "policy.script.json"
    script.write_text(json.dumps(rules))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"roles": {"policy": {"kind": "scripted", "script": script.name}}})
    )
    return bench, config


class TestEval:
    def test_live_then_replay(self, tmp_path, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7", "b": "3"})
        out_dir = tmp_path / "evalout"
        code = main(
            [
                "eval",
                "--config",
                str(config),
                "--bench",
                str(bench),
                "--k",
                "4",
                "--out",
                str(out_dir),
                "--seed",
                "5",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "mini" in table and "50.00" in table and "maj@k" in table
        report_live = (out_dir / "mini.report.json").read_bytes()

        replay_dir = tmp_path / "replayout"
        code = main(
            [
                "eval",
                "--bench",
                str(bench),
                "--k",
                "4",
                "--out",
                str(replay_dir),
                "--seed",
                "5",
                "--replay",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (replay_dir / "mini.report.json").read_bytes() == report_live

        # Replay with a judge fallback runs on the same workers as live sampling.
        doc = json.loads(config.read_text())
        doc["roles"]["judge"] = {"kind": "scripted", "default_response": "NO"}
        config.write_text(json.dumps(doc))
        judged_dir = tmp_path / "judgedout"
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "4", "--seed", "5"]
        argv += ["--out", str(judged_dir), "--replay", str(out_dir), "--judge-fallback", "--parallelism", "2"]
        assert main(argv) == 0
        for name in ("mini.report.json", "mini.records.jsonl", "mini.transcripts.jsonl"):
            assert (judged_dir / name).read_bytes() == (out_dir / name).read_bytes()

    def test_report_keeps_a_non_ascii_benchmark_name(self, tmp_path, capsys):
        bench = tmp_path / "données.jsonl"
        write_jsonl(bench, [{"id": "a", "question": "question a", "answer": "7"}])
        write_jsonl(tmp_path / "données.transcripts.jsonl", [{"id": "a", "samples": ["so \\boxed{7}"]}])
        out_dir = tmp_path / "o"
        argv = ["eval", "--bench", str(bench), "--k", "1", "--out", str(out_dir), "--seed", "5"]
        assert main(argv + ["--replay", str(tmp_path)]) == 0
        assert (out_dir / "données.report.json").read_bytes() == (
            '{"benchmark": "données", "failed": 0, "k": 1, "maj_at_k": 100.0, "mean_tokens": 2.0, '
            '"mean_tokens_thousands": 0.0, "pass_at_k": 100.0, "problems": 1}\n'
        ).encode("utf-8")

    def test_relative_script_is_read_from_the_config_directory(self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        bench, config = eval_setup(tmp_path / "sub", {"a": "7"})
        assert json.loads(config.read_text())["roles"]["policy"]["script"] == "policy.script.json"
        monkeypatch.chdir(tmp_path)  # the script is not in the working directory
        argv = ["eval", "--config", "sub/config.json", "--bench", str(bench), "--k", "1", "--seed", "5"]
        assert main(argv + ["--out", "o"]) == 0
        assert json.loads((tmp_path / "o" / "mini.report.json").read_text())["maj_at_k"] == 100.0

    @pytest.mark.parametrize(
        "answers, code, problems",
        [({"a": "7", "b": "4"}, 0, 1), ({"b": "4"}, 3, 0)],
        ids=["one-of-two", "every-problem"],
    )
    def test_failing_judge_fails_its_problem(self, tmp_path, capsys, answers, code, problems):
        bench, config = eval_setup(tmp_path, answers)
        judge = tmp_path / "judge.script.json"
        judge.write_text(json.dumps([{"match": "no prompt holds this", "response": "YES"}]))
        doc = json.loads(config.read_text())
        doc["roles"]["judge"] = {"kind": "scripted", "script": judge.name}
        config.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5"]
        assert main(argv + ["--out", str(out_dir), "--judge-fallback"]) == code
        assert "problem b failed entirely: no scripted response" in capsys.readouterr().err
        report = json.loads((out_dir / "mini.report.json").read_text())
        assert (report["problems"], report["failed"]) == (problems, 1)
        records = read_jsonl((out_dir / "mini.records.jsonl").read_text())
        assert [r["id"] for r in records] == ["a"] * problems  # a's 7 equals gold: no judge call

    @pytest.mark.parametrize("spelling", ["same", "dot-dot"])
    def test_out_is_replay_dir_is_data_error(self, tmp_path, capsys, spelling):
        bench, config = eval_setup(tmp_path, {"a": "7", "b": "3"})
        run = tmp_path / "run"
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--seed", "5"]
        assert main(argv + ["--k", "4", "--out", str(run)]) == 0
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        out = run if spelling == "same" else tmp_path / "run" / ".." / "run"
        assert main(argv + ["--k", "2", "--out", str(out), "--replay", str(run)]) == 2
        assert "is the --replay directory" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_replay_of_a_replay_is_byte_identical(self, tmp_path):
        texts = ['"samples": null', 'q"uote \\ nl\n nul\x00', "café ≤ π 数学 🙂", "\\boxed{7}"]
        samples = [completion_with(t) for t in texts]
        bench, _ = eval_setup(tmp_path, {"a": "7", "b": "3"})
        r1 = tmp_path / "r1"
        r1.mkdir()
        transcripts = [{"id": "a", "samples": samples}, {"id": "b", "samples": samples[::-1]}]
        write_jsonl(r1 / "mini.transcripts.jsonl", transcripts)
        argv = ["eval", "--bench", str(bench), "--k", "4", "--seed", "5"]
        assert main(argv + ["--replay", str(r1), "--out", str(tmp_path / "r2")]) == 0
        assert main(argv + ["--replay", str(tmp_path / "r2"), "--out", str(tmp_path / "r3")]) == 0
        names = ["mini.records.jsonl", "mini.report.json", "mini.transcripts.jsonl"]
        assert sorted(p.name for p in (tmp_path / "r2").iterdir()) == names
        for name in names:
            assert (tmp_path / "r3" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        assert read_jsonl((tmp_path / "r2" / "mini.transcripts.jsonl").read_text(encoding="utf-8")) == transcripts

    def test_repeated_problem_id_is_data_error(self, tmp_path, monkeypatch, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        write_jsonl(bench, [{"id": "a", "question": "question a", "answer": "7"}] * 2)
        calls = []
        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"{bench}:2: repeated id 'a'" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "setting, args, message",
        [
            (', "temperature": 1e999', [], "temperature must be a finite number"),  # parses as infinity
            ("", ["--k", "0"], "k must be >= 1"),
            ("", ["--parallelism", "-1"], "parallelism must be >= 1"),
            ("", ["--perturb", "mismatched"], "needs >= 2 preplans"),  # one problem, one preplan
            ("", ["--k", "0", "--perturb", "shuffled"], "k must be >= 1"),  # before the base pass
        ],
        ids=["infinite-temperature", "k-0", "negative-parallelism", "mismatched-pool-too-small", "k-0-perturbed"],
    )
    def test_config_error_leaves_no_out_dir(self, tmp_path, capsys, setting, args, message):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        doc = config.read_text()
        config.write_text(doc[:-1] + setting + "}")
        out_dir = tmp_path / "o"
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5"]
        assert main(argv + args + ["--out", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("answer", ["", "  "], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("later_bench", [False, True], ids=["one-bench", "second-bench"])
    def test_empty_gold_answer_is_data_error(self, tmp_path, monkeypatch, capsys, answer, later_bench):
        # Scored, "\\boxed{}" would match an empty gold answer.
        bench, config = eval_setup(tmp_path, {"a": "7", "b": ""})
        rows = [{"id": "a", "question": "question a", "answer": "7"}, {"id": "b", "question": "question b", "answer": answer}]
        write_jsonl(bench, rows)
        benches, bad = [bench], f"{bench}:2"
        if later_bench:  # a good bench first: the bad one is still read before any call
            write_jsonl(bench, rows[:1])
            benches.append(tmp_path / "other.jsonl")
            write_jsonl(benches[1], rows[1:])
            bad = f"{benches[1]}:1"
        calls = []
        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
        out_dir = tmp_path / "o"
        argv = ["eval", "--config", str(config), "--k", "2", "--seed", "5", "--out", str(out_dir)]
        assert main(argv + [arg for path in benches for arg in ("--bench", str(path))]) == 2
        assert f"{bad}: gold answer must be non-empty" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    def test_blank_question_is_data_error_before_any_call(self, tmp_path, monkeypatch, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        write_jsonl(bench, [{"id": "a", "question": "question a", "answer": "7"}, {"id": "b", "question": " \n", "answer": "7"}])
        calls = []
        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
        out_dir = tmp_path / "o"
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5", "--out", str(out_dir)]
        assert main(argv) == 2
        assert f"{bench}:2: question must be non-empty" in capsys.readouterr().err
        assert calls == [] and not out_dir.exists()

    def test_two_benches_with_one_stem_are_data_error(self, tmp_path, monkeypatch, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        paths = [tmp_path / d / "mini.jsonl" for d in "ab"]
        for path in paths:
            path.parent.mkdir()
            path.write_bytes(bench.read_bytes())
        calls = []
        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", lambda self, req: calls.append(req))
        out_dir = tmp_path / "o"
        argv = ["eval", "--config", str(config), "--k", "2", "--seed", "5", "--out", str(out_dir)]
        assert main(argv + ["--bench", str(paths[0]), "--bench", str(paths[1])]) == 2
        err = capsys.readouterr().err
        assert str(paths[0]) in err and str(paths[1]) in err
        assert calls == []
        assert not out_dir.exists()

    @pytest.fixture
    def counted(self, monkeypatch):
        """The requests to one client that answers every role with a wrong answer."""
        client = ppc.clients.ScriptedClient(lambda req: WRONG)
        monkeypatch.setattr(ppc.cli, "build_client", lambda *args: client)
        return client.calls

    def test_repeated_id_in_a_later_bench_is_found_before_any_call(self, tmp_path, capsys, counted):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        dup = tmp_path / "dup.jsonl"
        write_jsonl(dup, [{"id": "x", "question": f"question {n}", "answer": "7"} for n in "xy"])
        out_dir = tmp_path / "out"
        argv = ["eval", "--config", str(config), "--k", "2", "--seed", "5", "--out", str(out_dir), "--judge-fallback"]
        assert main(argv + ["--bench", str(bench), "--bench", str(dup)]) == 2
        assert counted == []
        assert not out_dir.exists()
        assert f"{dup}:2: repeated id 'x'" in capsys.readouterr().err

    def test_missing_transcripts_of_a_later_bench_is_found_before_any_call(self, tmp_path, capsys, counted):
        bench, _ = eval_setup(tmp_path, {"a": "7"})
        other = tmp_path / "other.jsonl"
        write_jsonl(other, [{"id": "b", "question": "question b", "answer": "3"}])
        replay_dir = tmp_path / "rp"
        replay_dir.mkdir()
        # A wrong answer, so the first bench alone would ask the judge.
        write_jsonl(replay_dir / "mini.transcripts.jsonl", [{"id": "a", "samples": [WRONG]}])
        out_dir = tmp_path / "out"
        argv = ["eval", "--k", "1", "--seed", "5", "--out", str(out_dir), "--replay", str(replay_dir), "--judge-fallback"]
        assert main(argv + ["--bench", str(bench), "--bench", str(other)]) == 2
        assert counted == []
        assert not out_dir.exists()
        assert f"--replay {replay_dir} has no file other.transcripts.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["afile", "afile/sub", "link"], ids=["a-file", "under-a-file", "dangling-link"])
    def test_out_that_cannot_be_a_directory_is_found_before_any_call(self, tmp_path, capsys, counted, out):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / out)]) == 2
        assert counted == []
        assert (tmp_path / "afile").read_text() == "kept\n" and not (tmp_path / "nowhere").exists()
        blocker = tmp_path / out.split("/")[0]
        assert f"{blocker} is not a directory" in capsys.readouterr().err

    def test_repeated_transcript_id_is_data_error(self, tmp_path, capsys):
        bench, _ = eval_setup(tmp_path, {"a": "7"})
        replay_dir = tmp_path / "replay"
        replay_dir.mkdir()
        samples = [[f"<preplan>p.</preplan>\n<plan>1.</plan>\n<execute>\\boxed{{{a}}}</execute>"] for a in "73"]
        write_jsonl(replay_dir / "mini.transcripts.jsonl", [{"id": "a", "samples": s} for s in samples])
        out_dir = tmp_path / "out"
        argv = ["eval", "--bench", str(bench), "--k", "1", "--out", str(out_dir), "--seed", "5"]
        assert main(argv + ["--replay", str(replay_dir)]) == 2
        assert "mini.transcripts.jsonl:2: repeated id 'a'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_base_sample_leaves_mismatched_pool_too_small(self, tmp_path, monkeypatch, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7", "b": "7"})
        calls = []

        def generate(self, req):
            calls.append(req)
            if req.user_prompt == "question b":
                raise ppc.clients.ProtocolError("down")
            return "<preplan>analysis a.</preplan>\n<plan>1. go.</plan>\n<execute>\\boxed{7}</execute>"

        monkeypatch.setattr(ppc.clients.ScriptedClient, "generate", generate)
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "out"), "--perturb", "mismatched"]) == 2
        assert "needs >= 2 preplans" in capsys.readouterr().err
        assert [req.user_prompt for req in calls] == ["question a", "question b"]
        # the base pass returned before the error, so the preplan paid for is kept
        assert read_jsonl((tmp_path / "out" / "mini.base.jsonl").read_text()) == [{"id": "a", "preplan": "analysis a."}]

    def test_rules_only_replay_calls_no_equivalence(self, tmp_path, monkeypatch):
        bench, _ = eval_setup(tmp_path, {"a": "7", "b": "7"})
        replay_dir = tmp_path / "replay"
        replay_dir.mkdir()
        spellings = ["7", "7.0", "{7}", "3", "1/2", "0.5", "x"]
        samples = [
            f"<preplan>analysis.</preplan>\n<plan>1. go.</plan>\n<execute>\\boxed{{{s}}}</execute>"
            for s in spellings
        ]
        write_jsonl(replay_dir / "mini.transcripts.jsonl", [{"id": pid, "samples": samples} for pid in "ab"])
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return answers_equivalent(*args, **kwargs)

        monkeypatch.setattr(ppc.cli, "answers_equivalent", counting)
        monkeypatch.setattr(ppc.evaluation, "answers_equivalent", counting)
        out_dir = tmp_path / "out"
        argv = ["eval", "--bench", str(bench), "--k", "7", "--out", str(out_dir), "--seed", "5"]
        argv += ["--replay", str(replay_dir)]
        assert main(argv) == 0
        assert calls == []
        records = read_jsonl((out_dir / "mini.records.jsonl").read_text())
        assert [r["verdicts"] for r in records] == [[True] * 3 + [False] * 4] * 2
        assert [(r["maj_correct"], r["pass_correct"]) for r in records] == [(True, True)] * 2

    def test_perturb_flag_runs(self, tmp_path, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7", "b": "7"})
        code = main(
            [
                "eval",
                "--config",
                str(config),
                "--bench",
                str(bench),
                "--k",
                "2",
                "--out",
                str(tmp_path / "p"),
                "--seed",
                "5",
                "--perturb",
                "generic",
            ]
        )
        assert code == 0

    def test_perturb_with_replay_is_data_error(self, tmp_path, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7", "b": "7"})
        live = ["eval", "--config", str(config), "--bench", str(bench), "--k", "2", "--seed", "5"]
        assert main(live + ["--out", str(tmp_path / "run")]) == 0
        replayed = ["--out", str(tmp_path / "p"), "--replay", str(tmp_path / "run")]
        assert main(live + replayed + ["--perturb", "mismatched"]) == 2
        assert "replay" in capsys.readouterr().err
        assert not (tmp_path / "p" / "mini.report.json").exists()


class TestPerturbCommand:
    def test_mismatched_outputs_prefixes(self, tmp_path, capsys):
        path = tmp_path / "preplans.jsonl"
        write_jsonl(
            path,
            [{"id": f"p{i}", "preplan": f"analysis number {i}."} for i in range(4)],
        )
        assert main(["perturb", "--in", str(path), "--mode", "mismatched", "--seed", "3"]) == 0
        rows = read_jsonl(capsys.readouterr().out)
        assert len(rows) == 4
        for i, row in enumerate(rows):
            assert row["forced_prefix"].startswith("<preplan>")
            assert row["forced_prefix"].endswith("</preplan>\n<plan>")
            assert f"analysis number {i}." not in row["forced_prefix"]

    @pytest.mark.parametrize("seed", range(4))
    def test_mismatched_duplicate_ids(self, tmp_path, capsys, seed):
        # the donor is picked by row position, so a repeated id is no problem
        path = tmp_path / "preplans.jsonl"
        rows = [{"id": "a", "preplan": "x"}, {"id": "a", "preplan": "y"}, {"id": "b", "preplan": "z"}]
        write_jsonl(path, rows)
        assert main(["perturb", "--in", str(path), "--mode", "mismatched", "--seed", str(seed)]) == 0
        out = read_jsonl(capsys.readouterr().out)
        assert [r["id"] for r in out] == ["a", "a", "b"]
        donors = [r["forced_prefix"][len("<preplan>") : -len("</preplan>\n<plan>")] for r in out]
        assert sorted(donors) == ["x", "y", "z"]
        for row, donor in zip(rows, donors):
            assert donor != row["preplan"]

    @pytest.mark.parametrize(
        "mode, down",
        [("mismatched", None), ("mismatched", "b"), ("shuffled", None), ("shuffled", "a"), ("shuffled", "b")],
    )
    def test_eval_base_file_gives_the_prefixes_eval_sent(self, tmp_path, capsys, monkeypatch, mode, down):
        # `ppc perturb` over the base preplans `ppc eval --perturb` recorded
        # rebuilds the forced prefixes that run sent.
        pids = "abcd"
        bench = tmp_path / "mini.jsonl"
        write_jsonl(bench, [{"id": pid, "question": f"question {pid}", "answer": "7"} for pid in pids])

        def answer(req):
            pid = req.user_prompt.split()[-1]
            if req.forced_prefix:
                return "go.</plan>\n<execute>\\boxed{7}</execute>"
            if pid == down:
                raise ppc.clients.ProtocolError("down")
            preplan = f"First {pid}. Then {pid}. Last {pid}."
            return f"<preplan>{preplan}</preplan>\n<plan>1. go.</plan>\n<execute>\\boxed{{7}}</execute>"

        policy = ppc.clients.ScriptedClient(answer)
        monkeypatch.setattr(ppc.cli, "build_client", lambda *args: policy)
        out = tmp_path / "out"
        argv = ["eval", "--bench", str(bench), "--k", "2", "--out", str(out), "--seed", "9", "--perturb", mode]
        assert main(argv) == 0
        base = out / "mini.base.jsonl"
        assert [row["id"] for row in read_jsonl(base.read_text())] == [pid for pid in pids if pid != down]
        capsys.readouterr()
        assert main(["perturb", "--in", str(base), "--mode", mode, "--seed", "9"]) == 0
        rows = read_jsonl(capsys.readouterr().out)
        sent: dict[str, set] = {}
        for req in policy.calls:
            if req.forced_prefix:
                sent.setdefault(req.user_prompt.split()[-1], set()).add(req.forced_prefix)
        assert sent == {row["id"]: {row["forced_prefix"]} for row in rows}

    @pytest.mark.parametrize("config", [None, '{"bogus": 1'], ids=["missing", "invalid-json"])
    def test_bad_config_is_data_error(self, tmp_path, capsys, config):
        path = tmp_path / "preplans.jsonl"
        write_jsonl(path, [{"id": "a", "preplan": "x"}])
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
        argv = ["perturb", "--config", str(cfg), "--in", str(path), "--mode", "generic", "--seed", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cfg.json" in err


def run_attribute(tmp_path, responses, out=True):
    """`ppc attribute` over one row per scripted judge response (None: no rule,
    so that row's judge call fails); its exit code and the --out path."""
    rows = [{"id": str(n), "question": f"q{n}", "solution": "bad", "gold": "7"} for n in range(len(responses))]
    path = tmp_path / "wrong.jsonl"
    write_jsonl(path, rows)
    script = tmp_path / "judge.script.json"
    rules = [{"match": f"q{n}\n", "response": r} for n, r in enumerate(responses) if r is not None]
    script.write_text(json.dumps(rules))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"roles": {"judge": {"kind": "scripted", "script": script.name}}}))
    out_file = tmp_path / "verdicts.jsonl"
    argv = ["attribute", "--config", str(config), "--in", str(path)]
    return main(argv + (["--out", str(out_file)] if out else [])), out_file


WHAT = '{"what_to_solve": true, "facet": "%s"}'
HOW = '{"what_to_solve": false}'
SUMMARY_KEYS = {"total", "what_to_solve", "how_to_solve", "facets", "unparseable", "failed"}
FACETS = {"problem_type", "tools", "constraints", "pitfalls"}


class TestAttributeCommand:
    def test_aggregates(self, tmp_path, capsys):
        code, out_file = run_attribute(tmp_path, [WHAT % "PITFALLS", HOW, "hmm"])
        assert code == 0
        assert capsys.readouterr().out == (
            '{"facets": {"constraints": 0, "pitfalls": 1, "problem_type": 0, "tools": 0}, '
            '"failed": 0, "how_to_solve": 1, "total": 2, "unparseable": 1, "what_to_solve": 1}\n'
        )
        assert out_file.read_text() == (
            '{"facet": "pitfalls", "id": "0", "unparseable": false, "what_to_solve": true}\n'
            '{"facet": null, "id": "1", "unparseable": false, "what_to_solve": false}\n'
            '{"facet": null, "id": "2", "unparseable": true, "what_to_solve": null}\n'
        )

    def test_summary_keys(self, tmp_path, capsys):
        code, _ = run_attribute(tmp_path, [WHAT % "TOOLS/CONCEPTS", HOW], out=False)
        assert code == 0
        *rows, summary = read_jsonl(capsys.readouterr().out)  # the rows, then the summary
        assert [r["id"] for r in rows] == ["0", "1"]
        assert set(summary) == SUMMARY_KEYS
        assert set(summary["facets"]) == FACETS

    def test_empty_input(self, tmp_path, capsys):
        assert run_attribute(tmp_path, [])[0] == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {
            "total": 0,
            "what_to_solve": 0,
            "how_to_solve": 0,
            "facets": dict.fromkeys(FACETS, 0),
            "unparseable": 0,
            "failed": 0,
        }

    def test_facet_tallies(self, tmp_path, capsys):
        responses = [WHAT % "CONSTRAINTS", WHAT % "CONSTRAINTS", WHAT % "PITFALLS", HOW, HOW]
        assert run_attribute(tmp_path, responses)[0] == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["what_to_solve"] == 3
        assert summary["how_to_solve"] == 2
        assert summary["total"] == 5
        assert summary["facets"] == {"problem_type": 0, "tools": 0, "constraints": 2, "pitfalls": 1}

    def test_unparseable_rows_tallied_separately(self, tmp_path, capsys):
        assert run_attribute(tmp_path, [HOW, "hmm"])[0] == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["unparseable"] == 1
        assert summary["total"] == 1

    def test_failed_judge_call_fails_only_its_row(self, tmp_path, capsys):
        code, out_file = run_attribute(tmp_path, [WHAT % "PITFALLS", None, HOW, "hmm"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "row 1: no scripted response" in err
        assert out == (
            '{"facets": {"constraints": 0, "pitfalls": 1, "problem_type": 0, "tools": 0}, '
            '"failed": 1, "how_to_solve": 1, "total": 2, "unparseable": 1, "what_to_solve": 1}\n'
        )
        assert out_file.read_text() == (
            '{"facet": "pitfalls", "id": "0", "unparseable": false, "what_to_solve": true}\n'
            '{"facet": null, "id": "1", "unparseable": false, "what_to_solve": null}\n'
            '{"facet": null, "id": "2", "unparseable": false, "what_to_solve": false}\n'
            '{"facet": null, "id": "3", "unparseable": true, "what_to_solve": null}\n'
        )

    def test_every_call_failed_exits_3(self, tmp_path, capsys):
        code, out_file = run_attribute(tmp_path, [None, None])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["failed"] == 2
        assert [row["what_to_solve"] for row in read_jsonl(out_file.read_text())] == [None, None]


# One bad document or row per JSON reader: the file, its text, the command
# that reads it and where its error must begin ("<dir>" is the work dir, which
# a script path from a config file is resolved against).
JSON_CONTRACT = {
    "jsonl-id-true": (
        "rows.jsonl",
        '{"id": true, "preplan": "x"}\n',
        ["perturb", "--in", "rows.jsonl", "--mode", "generic", "--seed", "1"],
        "rows.jsonl:1",
    ),
    "config-parallelism-true": (
        "cfg.json",
        '{"parallelism": true}',
        ["lint", "--config", "cfg.json", "--in", "ok.jsonl"],
        "cfg.json",
    ),
    "config-nan": (
        "cfg.json",
        '{"temperature": NaN}',
        ["lint", "--config", "cfg.json", "--in", "ok.jsonl"],
        "cfg.json",
    ),
    "script-response-true": (
        "judge.script.json",
        '{"q": true}',
        ["attribute", "--config", "judge.cfg.json", "--in", "ok.jsonl"],
        "<dir>/judge.script.json",
    ),
    "grpo-check-reward-true": (
        "group.json",
        '{"rewards": [true, 1], "logp_new": [-1, -2], "logp_old": [-1, -2], "logp_ref": [-1, -2]}',
        ["grpo-check", "--in", "group.json"],
        "group.json",
    ),
}


@pytest.mark.parametrize("case", sorted(JSON_CONTRACT))
def test_json_error_names_its_file(tmp_path, monkeypatch, capsys, case):
    name, text, argv, where = JSON_CONTRACT[case]
    monkeypatch.chdir(tmp_path)
    write_jsonl(tmp_path / "ok.jsonl", [{"id": "a", "preplan": "x", "question": "q", "solution": "s", "gold": "7"}])
    config = {"roles": {"judge": {"kind": "scripted", "script": "judge.script.json"}}}
    (tmp_path / "judge.cfg.json").write_text(json.dumps(config))
    (tmp_path / name).write_text(text)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [message] = [json.loads(line)["msg"] for line in err.splitlines()]
    assert message.startswith(f"data error: {where.replace('<dir>', str(tmp_path.resolve()))}: "), message


VALID_ROWS = {
    "lint": ({"id": "a", "preplan": "clean analysis."}, []),
    "reward": ({"id": "x", "trajectory": GOOD_TRAJECTORY, "gold": "7", "adh": 1}, []),
    "perturb": ({"id": "a", "preplan": "some analysis."}, ["--mode", "generic", "--seed", "1"]),
}


class TestMalformedRows:
    """A malformed JSONL row is a data error (exit 2) naming its file and line."""

    @pytest.mark.parametrize("bad_line", ["[1, 2]", '{"id": "b", '], ids=["array", "bad-json"])
    @pytest.mark.parametrize("command", sorted(VALID_ROWS))
    def test_row_commands(self, tmp_path, capsys, command, bad_line):
        row, extra = VALID_ROWS[command]
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(row) + "\n" + bad_line + "\n", encoding="utf-8")
        assert main([command, "--in", str(path)] + extra) == 2
        assert "rows.jsonl:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", sorted(VALID_ROWS))
    def test_non_finite_number_is_data_error(self, tmp_path, capsys, command, number):
        row, extra = VALID_ROWS[command]
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(row)[:-1] + f', "x": {number}}}\n', encoding="utf-8")
        assert main([command, "--in", str(path)] + extra) == 2
        assert f"rows.jsonl:2: {number} is not a JSON number" in capsys.readouterr().err

    def test_eval_bench_bad_json(self, tmp_path, capsys):
        bench, config = eval_setup(tmp_path, {"a": "7"})
        bench.write_text(bench.read_text(encoding="utf-8") + "{oops\n", encoding="utf-8")
        argv = ["eval", "--config", str(config), "--bench", str(bench), "--seed", "5"]
        assert main(argv + ["--k", "1", "--out", str(tmp_path / "run")]) == 2
        assert "mini.jsonl:2: invalid JSON" in capsys.readouterr().err

    def test_eval_replay_row_without_samples(self, tmp_path, capsys):
        bench, _ = eval_setup(tmp_path, {"a": "7", "b": "7"})
        run = tmp_path / "run"
        run.mkdir()
        write_jsonl(run / "mini.transcripts.jsonl", [{"id": "a", "samples": ["x"]}, {"id": "b"}])
        argv = ["eval", "--bench", str(bench), "--k", "1", "--seed", "5", "--replay", str(run)]
        assert main(argv + ["--out", str(tmp_path / "again")]) == 2
        assert "mini.transcripts.jsonl:2: missing field 'samples'" in capsys.readouterr().err

    def test_lint_preplan_not_a_string(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [VALID_ROWS["lint"][0], {"id": "a", "preplan": 5}])
        assert main(["lint", "--in", str(path)]) == 2
        assert "rows.jsonl:2: field 'preplan' must be str, got 5" in capsys.readouterr().err

    def test_eval_replay_samples_not_a_list(self, tmp_path, capsys):
        bench, _ = eval_setup(tmp_path, {"a": "7", "b": "7"})
        run = tmp_path / "run"
        run.mkdir()
        write_jsonl(run / "mini.transcripts.jsonl", [{"id": "a", "samples": ["x"]}, {"id": "b", "samples": 5}])
        argv = ["eval", "--bench", str(bench), "--k", "1", "--seed", "5", "--replay", str(run)]
        assert main(argv + ["--out", str(tmp_path / "again")]) == 2
        assert "mini.transcripts.jsonl:2: field 'samples' must be list of str" in capsys.readouterr().err

    def test_eval_replay_row_with_a_null_slot_needs_a_client(self, tmp_path, capsys):
        bench, _ = eval_setup(tmp_path, {"a": "7", "b": "7"})
        run = tmp_path / "run"
        run.mkdir()
        write_jsonl(run / "mini.transcripts.jsonl", [{"id": "a", "samples": ["x", "y"]}, {"id": "b", "samples": ["x", None]}])
        argv = ["eval", "--bench", str(bench), "--k", "2", "--seed", "5", "--replay", str(run)]
        assert main(argv + ["--out", str(tmp_path / "again")]) == 2
        assert "replay has 1 samples for 'b', need 2" in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize(
        "row, detail",
        [
            ({"id": "b", "question": 5, "answer": "7"}, "field 'question' must be str, got 5"),
            ({"id": "b", "question": "q?", "answer": None}, "field 'answer' must be a string or a number, got None"),
            ({"id": None, "question": "q?", "answer": 7}, "field 'id' must be a non-empty string or an integer, got None"),
            ({"id": 1.5, "question": "q?", "answer": 7}, "field 'id' must be a non-empty string or an integer, got 1.5"),
            ({"id": ["b"], "question": "q?", "answer": 7}, "field 'id' must be a non-empty string or an integer, got ['b']"),
            ({"id": "", "question": "q?", "answer": 7}, "field 'id' must be a non-empty string or an integer, got ''"),
        ],
        ids=["question-not-a-string", "answer-null", "id-null", "id-float", "id-list", "id-empty"],
    )
    @pytest.mark.parametrize("command", ["synthesize", "eval"])
    def test_problem_row_types(self, tmp_path, capsys, command, row, detail):
        config = tmp_path / "config.json"
        roles = {role: {"kind": "scripted", "default_response": "\\boxed{None}"} for role in ppc.config.ROLE_NAMES}
        config.write_text(json.dumps({"roles": roles}))
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": "a", "question": "q?", "answer": 7}, row])
        argv = ["--config", str(config), "--seed", "1", "--out", str(tmp_path / "out")]
        paths = ["--in", str(path)] if command == "synthesize" else ["--bench", str(path), "--k", "1"]
        assert main([command] + paths + argv) == 2
        assert f"rows.jsonl:2: {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_id", [None, 1.5, ["a"], "", True], ids=["null", "float", "list", "empty", "true"])
    def test_perturb_bad_id(self, tmp_path, capsys, monkeypatch, bad_id):
        # Every command that copies a row's id checks it; attribute before its judge call.
        judged = []
        monkeypatch.setattr(ppc.cli, "attribute_error", lambda judge, *texts: judged.append(texts))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"roles": {"judge": {"kind": "scripted", "default_response": "{}"}}}))
        attribute = ({"id": "a", "question": "q", "solution": "s", "gold": "7"}, ["--config", str(config)])
        for command, (row, extra) in sorted({**VALID_ROWS, "attribute": attribute}.items()):
            path = tmp_path / f"{command}.jsonl"
            write_jsonl(path, [row, {**row, "id": bad_id}])
            assert main([command, "--in", str(path)] + extra) == 2, command
            err = capsys.readouterr().err
            assert f"{command}.jsonl:2: field 'id' must be a non-empty string or an integer" in err, command
        assert judged == [("q", "s", "7")]  # the good row's call only

    def test_eval_replay_null_id(self, tmp_path, capsys):
        bench, _ = eval_setup(tmp_path, {"a": "7"})
        run = tmp_path / "run"
        run.mkdir()
        write_jsonl(run / "mini.transcripts.jsonl", [{"id": None, "samples": ["x"]}])
        argv = ["eval", "--bench", str(bench), "--k", "1", "--seed", "5", "--replay", str(run)]
        assert main(argv + ["--out", str(tmp_path / "again")]) == 2
        assert "mini.transcripts.jsonl:1: field 'id' must be" in capsys.readouterr().err

    def test_integer_ids(self, tmp_path, capsys):
        bench, _ = eval_setup(tmp_path, {"a": "7"})
        run = tmp_path / "run"
        run.mkdir()
        write_jsonl(bench, [{"id": 1, "question": "q?", "answer": "7"}])
        write_jsonl(run / "mini.transcripts.jsonl", [{"id": 1, "samples": ["\\boxed{7}"]}])
        argv = ["eval", "--bench", str(bench), "--k", "1", "--seed", "5", "--replay", str(run)]
        assert main(argv + ["--out", str(tmp_path / "again")]) == 0
        assert read_jsonl((tmp_path / "again" / "mini.records.jsonl").read_text())[0]["id"] == "1"
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": 1, "preplan": "x"}])
        capsys.readouterr()
        assert main(["perturb", "--in", str(path), "--mode", "generic", "--seed", "1"]) == 0
        assert read_jsonl(capsys.readouterr().out)[0]["id"] == 1

    def test_reward_correct_not_a_bool(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        wrong = GOOD_TRAJECTORY.replace("{7}", "{3}")
        write_jsonl(path, [{"id": "x", "trajectory": wrong, "gold": "7", "correct": "false", "prox": 1, "adh": 1}])
        assert main(["reward", "--in", str(path)]) == 2
        assert "rows.jsonl:1: field 'correct' must be bool, got 'false'" in capsys.readouterr().err

    def test_attribute_question_not_a_string(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"roles": {"judge": {"kind": "scripted", "default_response": "{}"}}}))
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": "1", "question": 5, "solution": "bad", "gold": "7"}])
        assert main(["attribute", "--config", str(config), "--in", str(path)]) == 2
        assert "rows.jsonl:1: field 'question' must be str, got 5" in capsys.readouterr().err

    def test_lint_reads_stdin(self, monkeypatch, capsys):
        rows = [{"id": "a", "preplan": "clean analysis."}, {"id": "b", "preplan": "more analysis."}]
        text = "".join(json.dumps(r) + "\n" for r in rows)
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        assert main(["lint", "--in", "-"]) == 0
        assert [r["id"] for r in read_jsonl(capsys.readouterr().out)] == ["a", "b"]


class TestAtomicOutput:
    """A failed run leaves an existing --out file as it was, and no temporary file."""

    @pytest.mark.parametrize("broken", ["missing-input", "bad-line-2"])
    def test_failed_lint_keeps_existing_out(self, tmp_path, broken):
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"id": "old"}\n')
        rows = tmp_path / "rows.jsonl"
        if broken == "bad-line-2":
            rows.write_text(json.dumps(VALID_ROWS["lint"][0]) + "\n[1, 2]\n", encoding="utf-8")
        assert main(["lint", "--in", str(rows), "--out", str(out)]) == 2
        assert out.read_bytes() == b'{"id": "old"}\n'
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("out.jsonl")] == ["out.jsonl"]
