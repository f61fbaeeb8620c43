import json
import re
from dataclasses import asdict, fields

import pytest
import requests

from ppc.cli import main
from ppc.clients import GenerationRequest, HttpChatClient, ScriptedClient
from ppc.config import _FIELD_TYPES, PipelineConfig, RoleConfig, build_client
from ppc.grpo import GrpoConfig
from ppc.rewards import RewardWeights
from ppc.spoiler import SpoilerConfig


def sample_config_dict():
    return {
        "roles": {
            "judge": {
                "kind": "http",
                "endpoint": "http://file.example/v1",
                "model": "file-model",
            },
            "policy": {"kind": "scripted", "default_response": "ok"},
        },
        "temperature": 0.7,
        "grpo": {"epsilon_clip": 0.2, "beta_kl": 0.04},
    }


def eval_exit_code(tmp_path, doc) -> int:
    """`ppc eval`'s exit code on a one-problem bench under the config `doc`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    bench = tmp_path / "mini.jsonl"
    bench.write_text(json.dumps({"id": "a", "question": "q?", "answer": "7"}) + "\n")
    argv = ["eval", "--config", str(config), "--bench", str(bench), "--k", "1"]
    return main(argv + ["--out", str(tmp_path / "out"), "--seed", "1"])


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        doc = {
            **sample_config_dict(),
            "spoiler": {"digit_min": 4, "span_count_threshold": 5, "tau_s": 3},
            "weights": {"lambda_a": 0.2, "lambda_s": 0.5, "tau_s": 3},
            "grpo": {"epsilon_clip": 0.3, "beta_kl": 0.01, "std_floor": 1e-4},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = PipelineConfig.from_file(path)
        assert config.spoiler == SpoilerConfig(digit_min=4, span_count_threshold=5, tau_s=3)
        assert config.weights == RewardWeights(lambda_a=0.2, lambda_s=0.5, tau_s=3)
        assert config.grpo == GrpoConfig(epsilon_clip=0.3, beta_kl=0.01, std_floor=1e-4)
        again = PipelineConfig.from_dict(json.loads(json.dumps(asdict(config))))
        assert again == config

    def test_defaults(self):
        config = PipelineConfig()
        assert config.temperature == 1.0
        assert config.top_p == 0.95
        assert config.length_bounds == (150, 1500)
        assert config.weights.lambda_f == 0.3
        assert config.spoiler.tau_s == 2
        assert config.grpo is None


class TestValidation:
    @pytest.mark.parametrize("bounds", [(2000, 100), (-1, 100), (-5, -1)], ids=["inverted", "negative-min", "both-negative"])
    def test_filter_bounds_that_keep_nothing(self, bounds):
        doc = {"filter_min_tokens": bounds[0], "filter_max_tokens": bounds[1]}
        with pytest.raises(ValueError, match="need 0 <= filter_min_tokens <= filter_max_tokens"):
            PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize("bounds", [(150, 1500), (5, 100), (0, 0), (7, 7)])
    def test_filter_bounds_that_can_keep(self, bounds):
        doc = {"filter_min_tokens": bounds[0], "filter_max_tokens": bounds[1]}
        assert PipelineConfig.from_dict(doc).length_bounds == bounds

    @pytest.mark.parametrize(
        "doc",
        ['{"max_tokens": 0}', '{"max_tokens": 0, "top_p": 7}', '{"top_p": 0}', '{"temperature": -1}', '{"temperature": 1e999}'],
        ids=["max_tokens-0", "top_p-7", "top_p-0", "negative-temperature", "infinite-temperature"],
    )
    def test_sampling_that_no_request_can_carry(self, tmp_path, doc):
        # The config reports GenerationRequest's own message, prefixed with the file.
        with pytest.raises(ValueError) as request_error:
            GenerationRequest(user_prompt="", **json.loads(doc))
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {request_error.value}')}$"):
            PipelineConfig.from_file(path)

    def test_sampling_carries_the_settings(self):
        config = PipelineConfig.from_dict({"temperature": 0.2, "top_p": 0.5, "max_tokens": 7})
        assert config.sampling("sys") == GenerationRequest("", "sys", temperature=0.2, top_p=0.5, max_tokens=7)

    def test_unknown_role(self):
        with pytest.raises(ValueError, match=r"^unknown role 'mystery'; valid: \('preplan_gen', "):
            PipelineConfig.from_dict({"roles": {"mystery": {"kind": "http"}}})

    def test_grpo_must_be_explicit(self):
        with pytest.raises(ValueError, match="^grpo config must set 'beta_kl' explicitly$"):
            PipelineConfig.from_dict({"grpo": {"epsilon_clip": 0.2}})
        config = PipelineConfig.from_dict({"grpo": {"epsilon_clip": 0.2, "beta_kl": 0.0}})
        assert config.grpo == GrpoConfig(epsilon_clip=0.2, beta_kl=0.0)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"roles": {"judge": {"kind": "http", "modle": "m"}}}, "roles.judge: unknown key 'modle'"),
            ({"grpo": {"epsilon_clip": 0.2, "beta_kl": 0.04, "clip": 0.3}}, "grpo: unknown key 'clip'"),
            ({"temprature": 0.7}, "unknown key 'temprature'"),
            ({"weights": {"lambda_x": 0.1}}, "weights: unknown key 'lambda_x'"),
            ({"spoiler": {"tau": 2}}, "spoiler: unknown key 'tau'"),
            ({"roles": {"judge": {"kind": "http", "api_key_env": "MY_KEY"}}}, "roles.judge: unknown key 'api_key_env'"),
        ],
        ids=["role", "grpo", "top-level", "weights", "spoiler", "api_key_env"],
    )
    def test_unknown_key(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "must be a mapping, got 5"),
            ({"roles": ["judge"]}, "roles: must be a mapping, got ['judge']"),
            ({"roles": {"judge": "http"}}, "roles.judge: must be a mapping, got 'http'"),
            ({"weights": 0.1}, "weights: must be a mapping, got 0.1"),
            ({"spoiler": None}, "spoiler: must be a mapping, got None"),
            ({"roles": None}, "roles: must be a mapping, got None"),
        ],
        ids=["document", "roles", "role", "weights", "spoiler-null", "roles-null"],
    )
    def test_section_not_an_object(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_dict(doc)

    def test_tau_s_must_agree(self):
        with pytest.raises(ValueError, match="tau_s"):
            PipelineConfig.from_dict({"spoiler": {"tau_s": 3}, "weights": {"tau_s": 1}})
        with pytest.raises(ValueError, match="tau_s"):
            PipelineConfig.from_dict({"spoiler": {"tau_s": 3}})
        config = PipelineConfig.from_dict({"spoiler": {"tau_s": 3}, "weights": {"tau_s": 3}})
        assert config.spoiler.tau_s == config.weights.tau_s == 3

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "section, doc",
        [
            ("weights", '{"weights": {"lambda_a": %s}}'),
            ("weights", '{"weights": {"lambda_s": %s}}'),
            ("grpo", '{"grpo": {"epsilon_clip": %s, "beta_kl": 0.04}}'),
            ("grpo", '{"grpo": {"epsilon_clip": 0.2, "beta_kl": %s}}'),
        ],
        ids=["lambda_a", "lambda_s", "epsilon_clip", "beta_kl"],
    )
    def test_non_finite_number_names_the_section(self, tmp_path, section, doc, number):
        # A config file cannot carry the number at all (strict JSON); a parsed
        # document that does is rejected by its section.
        path = tmp_path / "config.json"
        path.write_text(doc % number)
        with pytest.raises(ValueError, match=f"config.json: {number} is not a JSON number"):
            PipelineConfig.from_file(path)
        with pytest.raises(ValueError, match=f"^{section}: .* must be finite"):
            PipelineConfig.from_dict(json.loads(doc % number))

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_must_be_positive(self, parallelism):
        with pytest.raises(ValueError, match=f"^parallelism must be >= 1, got {parallelism}$"):
            PipelineConfig.from_dict({"parallelism": parallelism})

    def test_scripted_role_needs_script_or_default(self):
        with pytest.raises(ValueError, match="^scripted role needs a script file or default_response$"):
            RoleConfig(kind="scripted")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON at line 1 column 2: "):
            PipelineConfig.from_file(path)

    def test_nesting_too_deep_names_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: JSON nested too deeply$"):
            PipelineConfig.from_file(path)

    def test_infinite_timeout(self, tmp_path):
        # 1e999 parses as infinity, which a socket timeout cannot take.
        path = tmp_path / "config.json"
        path.write_text('{"roles": {"policy": {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m", "timeout": 1e999}}}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: roles\\.policy: timeout must be finite, got inf$"):
            PipelineConfig.from_file(path)


class TestBuildClient:
    def test_file_values_used(self):
        config = PipelineConfig.from_dict(sample_config_dict())
        client = build_client(config, "judge", env={})
        assert isinstance(client, HttpChatClient)
        assert client.endpoint == "http://file.example/v1"
        assert client.model == "file-model"
        assert isinstance(client._session, requests.Session)

    def test_env_overrides_file(self):
        config = PipelineConfig.from_dict(sample_config_dict())
        env = {"PPC_ENDPOINT": "http://env.example/v1", "PPC_MODEL": "env-model"}
        client = build_client(config, "judge", env=env)
        assert client.endpoint == "http://env.example/v1"
        assert client.model == "env-model"

    def test_role_env_overrides_global_env(self):
        config = PipelineConfig()
        env = {
            "PPC_ENDPOINT": "http://global.example",
            "PPC_MODEL": "global",
            "PPC_JUDGE_ENDPOINT": "http://judge.example",
            "PPC_JUDGE_MODEL": "judge-model",
            "PPC_JUDGE_API_KEY": "jk",
        }
        judge = build_client(config, "judge", env=env)
        policy = build_client(config, "policy", env=env)
        assert judge.endpoint == "http://judge.example"
        assert judge.api_key == "jk"
        assert policy.endpoint == "http://global.example"

    def test_missing_endpoint_is_config_error(self):
        with pytest.raises(ValueError, match=r"^role 'executor' has no endpoint/model \(config file or PPC_\* env vars\)$"):
            build_client(PipelineConfig(), "executor", env={})

    def test_scripted_role_from_map_file(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"prompt-a": "answer-a"}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"roles": {"policy": {"kind": "scripted", "script": "script.json"}}}))
        client = build_client(PipelineConfig.from_file(path), "policy", env={})
        assert isinstance(client, ScriptedClient)
        assert client.generate(GenerationRequest(user_prompt="prompt-a")) == "answer-a"

    def test_from_file_document_reads_back_in_another_directory(self, tmp_path, monkeypatch):
        # from_file makes a relative script absolute, so asdict of it is a
        # document that from_dict reads back from any working directory.
        for name in ("sub", "elsewhere"):
            (tmp_path / name).mkdir()
        script = tmp_path / "sub" / "script.json"
        script.write_text(json.dumps({"prompt-a": "answer-a"}))
        (tmp_path / "sub" / "cfg.json").write_text(
            json.dumps({"roles": {"policy": {"kind": "scripted", "script": "script.json"}}})
        )
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(asdict(PipelineConfig.from_file("sub/cfg.json"))))
        assert doc["roles"]["policy"]["script"] == str(script.resolve())
        monkeypatch.chdir(tmp_path / "elsewhere")
        client = build_client(PipelineConfig.from_dict(doc), "policy", env={})
        assert client.generate(GenerationRequest(user_prompt="prompt-a")) == "answer-a"

    def test_scripted_role_from_rules_file(self, tmp_path):
        script = tmp_path / "rules.json"
        script.write_text(json.dumps([{"match": "needle", "response": "found"}]))
        config = PipelineConfig.from_dict(
            {"roles": {"policy": {"kind": "scripted", "script": str(script)}}}
        )
        client = build_client(config, "policy", env={})
        from ppc.clients import GenerationRequest

        assert client.generate(GenerationRequest(user_prompt="hay needle stack")) == "found"

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="^unknown role 'nonsense'$"):
            build_client(PipelineConfig(), "nonsense", env={})


BAD_SCRIPTS = {
    "row-not-an-object": '["a", "b"]',
    "row-without-response": '[{"match": "q"}]',
    "rule-response-not-a-string": '[{"match": "q", "response": 5}]',
    "map-response-not-a-string": '{"q?": 5}',
    "invalid-json": '[{"match": "q",',
    "non-finite-number": '[{"match": "q", "response": "a", "weight": NaN}]',
    "nested-too-deeply": "[" * 100_000,
    "neither-object-nor-array": "5",
}


@pytest.mark.parametrize("text", BAD_SCRIPTS.values(), ids=BAD_SCRIPTS.keys())
class TestBadScriptFile:
    def config(self, tmp_path, text):
        (tmp_path / "policy.script.json").write_text(text)
        return {"roles": {"policy": {"kind": "scripted", "script": "policy.script.json"}}}

    def test_build_client_names_the_file(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.config(tmp_path, text)))
        config = PipelineConfig.from_file(path)
        with pytest.raises(ValueError, match="policy.script.json"):
            build_client(config, "policy", env={})

    def test_eval_exits_2(self, tmp_path, capsys, text):
        assert eval_exit_code(tmp_path, self.config(tmp_path, text)) == 2
        assert "policy.script.json" in capsys.readouterr().err


HTTP_POLICY = {"kind": "http", "endpoint": "http://file.example/v1", "model": "m"}
SCRIPTED_POLICY = {"kind": "scripted", "default_response": "\\boxed{7}"}
WRONG_TYPES = {
    "default_response": {"roles": {"policy": {"kind": "scripted", "default_response": 5}}},
    "parallelism": {"roles": {"policy": SCRIPTED_POLICY}, "parallelism": "2"},
    "temperature": {"roles": {"policy": SCRIPTED_POLICY}, "temperature": "hot"},
    "max_tokens": {"roles": {"policy": SCRIPTED_POLICY}, "max_tokens": "9"},
    "max_attempts": {"roles": {"policy": {**HTTP_POLICY, "max_attempts": "3"}}},
    "epsilon_clip": {"grpo": {"epsilon_clip": True, "beta_kl": 0.04}},
    "lambda_a": {"weights": {"lambda_a": True}},
    "digit_min": {"spoiler": {"digit_min": 2.5}},
}


@pytest.mark.parametrize("doc", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
class TestWrongScalarType:
    def test_from_dict_names_the_field(self, request, doc):
        field = request.node.callspec.id
        with pytest.raises(ValueError, match=f"{field} must be"):
            PipelineConfig.from_dict(doc)

    def test_eval_exits_2(self, tmp_path, capsys, request, doc):
        assert eval_exit_code(tmp_path, doc) == 2
        assert f"{request.node.callspec.id} must be" in capsys.readouterr().err


PHRASE_LISTS = {
    "derivation_phrases": {"spoiler": {"derivation_phrases": "yields"}},
    "answer_phrases": {"spoiler": {"answer_phrases": [1, 2]}},
}


@pytest.mark.parametrize("doc", PHRASE_LISTS.values(), ids=PHRASE_LISTS.keys())
class TestPhraseListsAreUnknownKeys:
    """The spoiler phrase lists are fixed: setting one is an unknown key."""

    def test_from_dict_names_the_key(self, request, doc):
        with pytest.raises(ValueError, match=f"spoiler: unknown key '{request.node.callspec.id}'"):
            PipelineConfig.from_dict(doc)

    def test_eval_exits_2(self, tmp_path, capsys, request, doc):
        assert eval_exit_code(tmp_path, doc) == 2
        assert f"spoiler: unknown key '{request.node.callspec.id}'" in capsys.readouterr().err


BAD_ROLES = {
    "wrong-type": ("policy", {**HTTP_POLICY, "max_attempts": "3"}, "max_attempts must be int, got '3'"),
    "unknown-key": ("judge", {"kind": "http", "modle": "m"}, "'modle'"),
    "unknown-kind": ("cleanup", {"kind": "grpc"}, "unknown role kind 'grpc'"),
    "scripted-without-script": ("executor", {"kind": "scripted"}, "needs a script file"),
    "not-an-object": ("judge", "http", "must be a mapping"),
    "zero-timeout": ("policy", {**HTTP_POLICY, "timeout": 0}, "timeout must be > 0, got 0"),
    "negative-timeout": ("judge", {**HTTP_POLICY, "timeout": -1.5}, "timeout must be > 0, got -1.5"),
    "zero-attempts": ("executor", {**HTTP_POLICY, "max_attempts": 0}, "max_attempts must be >= 1, got 0"),
    "http-with-script": ("policy", {"script": "p.json"}, "script and default_response belong to"),
    "http-with-default-response": ("judge", {**HTTP_POLICY, "default_response": "NO"}, "script and default_response belong to"),
}


@pytest.mark.parametrize("role,entry,detail", BAD_ROLES.values(), ids=BAD_ROLES.keys())
class TestBadRoleNamesTheRole:
    def doc(self, role, entry):
        return {"roles": {"policy": SCRIPTED_POLICY, role: entry}}

    def test_from_dict(self, role, entry, detail):
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_dict(self.doc(role, entry))
        assert str(info.value).startswith(f"roles.{role}: ") and detail in str(info.value)

    def test_eval_exits_2(self, tmp_path, capsys, role, entry, detail):
        assert eval_exit_code(tmp_path, self.doc(role, entry)) == 2
        err = capsys.readouterr().err
        assert f"config.json: roles.{role}: " in err and detail in err


def test_scalar_types_accepted():
    config = PipelineConfig.from_dict(
        {"roles": {"policy": {**HTTP_POLICY, "timeout": 30}}, "temperature": 1, "top_p": 0.5}
    )
    assert config.roles["policy"].timeout == 30 and config.temperature == 1
    with pytest.raises(ValueError, match="parallelism must be int"):
        PipelineConfig.from_dict({"parallelism": True})
    with pytest.raises(ValueError, match=r"^spoiler: digit_min must be int, got 2\.5$"):
        PipelineConfig.from_dict({"spoiler": {"digit_min": 2.5}})
    with pytest.raises(ValueError, match="^spoiler: digit_min must be >= 1$"):
        PipelineConfig.from_dict({"spoiler": {"digit_min": 0}})


def test_every_field_is_type_checked():
    """A new config field cannot skip the JSON type check without notice."""
    sections = {"roles", "spoiler", "weights", "grpo"}
    for cls in (RoleConfig, PipelineConfig, SpoilerConfig, RewardWeights, GrpoConfig):
        for f in fields(cls):
            assert f.type in _FIELD_TYPES or cls is PipelineConfig and f.name in sections, (cls, f.name)
