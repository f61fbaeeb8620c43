"""Pipeline configuration: one JSON document, env overrides, role resolution.

Precedence is file < environment < command-line flags. Endpoints resolve per
role (preplan_gen, plan_gen, executor, cleanup, judge, policy) from either
the config file or PPC_* environment variables; a role may also point at a
scripted response file for fully offline runs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ._text import json_is, read_json
from .clients import GenerationRequest, HttpChatClient, LlmClient, RetryPolicy, ScriptedClient
from .grpo import GrpoConfig
from .rewards import RewardWeights
from .spoiler import DEFAULT_LENGTH_BOUNDS, SpoilerConfig

ROLE_NAMES = ("preplan_gen", "plan_gen", "executor", "cleanup", "judge", "policy")


# Annotation of a field -> the JSON value types it takes. No field takes a bool.
_FIELD_TYPES = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "float": (int, float),
}


def _object(data, at: str) -> Mapping:
    """`data` if it is a JSON object, else a ValueError prefixed with `at`."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{at}must be a mapping, got {data!r:.60}")
    return data


def _load(cls, data, where: str = ""):
    """A `cls` built from one JSON object; field defaults fill the gaps.

    An unknown key, a value that is not of its field's JSON type, or a
    ValueError from `cls` raises a ValueError prefixed with the section path
    `where`. A field whose annotation _FIELD_TYPES lacks is a section that
    the caller has already built.
    """
    at = f"{where}: " if where else ""
    types = {f.name: f.type for f in fields(cls)}
    data = _object(data, at)
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"{at}unknown key {key!r}")
        kinds = _FIELD_TYPES.get(types[key])
        if kinds and not json_is(value, *kinds):
            raise ValueError(f"{at}{key} must be {types[key]}, got {value!r:.60}")
    try:
        return cls(**data)
    except ValueError as exc:
        raise ValueError(f"{at}{exc}") from exc


@dataclass(frozen=True)
class RoleConfig:
    kind: str = "http"  # "http" or "scripted"
    endpoint: str | None = None
    model: str | None = None
    script: str | None = None
    default_response: str | None = None
    max_attempts: int = 3
    timeout: float = 120.0

    def __post_init__(self):
        if self.kind not in ("http", "scripted"):
            raise ValueError(f"unknown role kind {self.kind!r}")
        if self.kind == "http" and (self.script, self.default_response) != (None, None):
            raise ValueError('script and default_response belong to "kind": "scripted" roles')
        if self.kind == "scripted" and not self.script and self.default_response is None:
            raise ValueError("scripted role needs a script file or default_response")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be {'finite' if self.timeout > 0 else '> 0'}, got {self.timeout}")


@dataclass
class PipelineConfig:
    roles: dict[str, RoleConfig] = field(default_factory=dict)
    temperature: float = GenerationRequest.temperature
    top_p: float = GenerationRequest.top_p
    max_tokens: int = GenerationRequest.max_tokens
    spoiler: SpoilerConfig = field(default_factory=SpoilerConfig)
    weights: RewardWeights = field(default_factory=RewardWeights)
    grpo: GrpoConfig | None = None
    filter_min_tokens: int = DEFAULT_LENGTH_BOUNDS[0]
    filter_max_tokens: int = DEFAULT_LENGTH_BOUNDS[1]
    parallelism: int = 1

    def __post_init__(self):
        for name in self.roles:
            if name not in ROLE_NAMES:
                raise ValueError(f"unknown role {name!r}; valid: {ROLE_NAMES}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        self.sampling()  # GenerationRequest's checks: a setting no request can carry fails here
        if not 0 <= self.filter_min_tokens <= self.filter_max_tokens:
            raise ValueError(
                "need 0 <= filter_min_tokens <= filter_max_tokens, got "
                f"{self.filter_min_tokens} and {self.filter_max_tokens}"
            )
        # The paper has one threshold; the filter reads one copy, the reward the other.
        if self.spoiler.tau_s != self.weights.tau_s:
            raise ValueError(
                f"spoiler.tau_s ({self.spoiler.tau_s}) and weights.tau_s "
                f"({self.weights.tau_s}) must agree"
            )

    @property
    def length_bounds(self) -> tuple[int, int]:
        return (self.filter_min_tokens, self.filter_max_tokens)

    def sampling(self, system_prompt: str = "") -> GenerationRequest:
        """The request every generation of a run starts from; `user_prompt` is filled per call."""
        return GenerationRequest(
            user_prompt="",
            system_prompt=system_prompt,
            temperature=self.temperature,
            top_p=self.top_p,
            max_tokens=self.max_tokens,
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """Build from a parsed config document; field defaults fill the gaps.

        Every section goes through _load: an unknown key at any level, a
        section that is not an object, or an invalid value is a ValueError
        that names its section.
        """
        data = dict(_object(data, ""))
        roles = _object(data.get("roles", {}), "roles: ")
        data["roles"] = {name: _load(RoleConfig, rc, f"roles.{name}") for name, rc in roles.items()}
        for key, section in (("spoiler", SpoilerConfig), ("weights", RewardWeights)):
            if key in data:
                data[key] = _load(section, data[key], key)
        grpo = data.get("grpo")
        if grpo is not None:
            data["grpo"] = _load(GrpoConfig, grpo, "grpo")
            # No silent hyperparameter drift: config files must pin both.
            for key in ("epsilon_clip", "beta_kl"):
                if key not in grpo:
                    raise ValueError(f"grpo config must set {key!r} explicitly")
        return _load(cls, data)

    @classmethod
    def from_file(cls, path: Path) -> "PipelineConfig":
        """from_dict of the document at `path`; any error in it is a ValueError naming the file.

        A relative `script` is made absolute against the file's directory, so
        `asdict` of the result reads back from any working directory.
        """
        config = read_json(path, cls.from_dict)
        base = Path(path).resolve().parent
        config.roles = {
            name: replace(rc, script=str(base / rc.script)) if rc.script else rc
            for name, rc in config.roles.items()
        }
        return config


def _env_for_role(env: Mapping[str, str], role: str, suffix: str) -> str | None:
    return env.get(f"PPC_{role.upper()}_{suffix}") or env.get(f"PPC_{suffix}")


def _script(data):
    """A prompt -> response object, or an array of {"match", "response"} rules.

    Any other shape, or a response that is not a string, is a ValueError;
    read_json prefixes it with the script file's path.
    """
    if isinstance(data, dict):
        for prompt, response in data.items():
            if not isinstance(response, str):
                raise ValueError(f"response to {prompt!r:.60} must be a string")
        return data
    if isinstance(data, list):
        for i, row in enumerate(data):
            if not (
                isinstance(row, dict)
                and isinstance(row.get("match"), str)
                and isinstance(row.get("response"), str)
            ):
                raise ValueError(
                    f"rule {i} must be an object with string 'match' and 'response', got {row!r:.60}"
                )
        return [(row["match"], row["response"]) for row in data]
    raise ValueError("a script must hold a JSON object or array")


def build_client(config: PipelineConfig, role: str, env: Mapping[str, str]) -> LlmClient:
    """Resolve one role to a client; environment overrides the file.

    A scripted role reads `script` as given (from_file has made it absolute).
    PPC_<ROLE>_ENDPOINT / PPC_<ROLE>_MODEL / PPC_<ROLE>_API_KEY take
    precedence over the global PPC_ENDPOINT / PPC_MODEL / PPC_API_KEY,
    which in turn override the config file entry; a key is never in the file.
    """
    if role not in ROLE_NAMES:
        raise ValueError(f"unknown role {role!r}")
    rc = config.roles.get(role, RoleConfig())

    if rc.kind == "scripted":
        script = read_json(rc.script, _script) if rc.script else {}
        return ScriptedClient(script, default=rc.default_response, name=role)

    endpoint = _env_for_role(env, role, "ENDPOINT") or rc.endpoint
    model = _env_for_role(env, role, "MODEL") or rc.model
    api_key = _env_for_role(env, role, "API_KEY")
    if not endpoint or not model:
        raise ValueError(
            f"role {role!r} has no endpoint/model (config file or PPC_* env vars)"
        )
    return HttpChatClient(
        endpoint=endpoint,
        model=model,
        api_key=api_key,
        timeout=rc.timeout,
        retry=RetryPolicy(max_attempts=rc.max_attempts),
    )
