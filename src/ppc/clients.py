"""LLM endpoint clients and judge calls.

One `generate` surface covers every external role (stage generators,
judges, the evaluated policy). `HttpChatClient` speaks the usual
chat-completion JSON protocol with bounded exponential backoff;
`ScriptedClient` answers from canned responses so every pipeline can run
deterministic and offline. Judges are thin prompt-plus-parse wrappers on
top of `generate`.
"""

from __future__ import annotations

import json
import logging
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from . import prompts
from ._text import standalone_integers

log = logging.getLogger(__name__)


class ClientError(Exception):
    retryable = False


class Timeout(ClientError):
    retryable = True


class RateLimited(ClientError):
    retryable = True


class ProtocolError(ClientError):
    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class UnparseableVerdict(Exception):
    """A judge response that carries no usable verdict."""


@dataclass(frozen=True)
class GenerationRequest:
    user_prompt: str
    system_prompt: str = ""
    forced_prefix: str | None = None
    temperature: float = 1.0
    top_p: float = 0.95
    max_tokens: int = 4096

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    delays: tuple[float, ...] = (1.0, 4.0, 16.0)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_for(self, attempt: int) -> float:
        if not self.delays:
            return 0.0
        return self.delays[min(attempt, len(self.delays) - 1)]


class LlmClient:
    """Interface: generate(request) -> completion text."""

    def generate(self, req: GenerationRequest) -> str:
        raise NotImplementedError


def _with_retries(fn: Callable[[], str], policy: RetryPolicy, sleep=time.sleep) -> str:
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except ClientError as exc:
            if not exc.retryable or attempt == policy.max_attempts - 1:
                raise
            delay = policy.delay_for(attempt)
            log.warning("retryable client error (%s); retrying in %.1fs", exc, delay)
            sleep(delay)
    raise AssertionError("unreachable")


class HttpChatClient(LlmClient):
    """Chat-completion endpoint client.

    Request body: {model, messages, temperature, top_p, max_tokens};
    the answer is read from choices[0].message.content. A forced prefix is
    sent as an assistant prefill message and prepended to the returned text.
    Without a `session`, the client opens a `requests.Session`; `requests` is
    imported then, so offline work never loads the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 120.0,
        retry: RetryPolicy = RetryPolicy(),
        session=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retry = retry
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._sleep = sleep

    def generate(self, req: GenerationRequest) -> str:
        content = _with_retries(lambda: self._post(req), self.retry, self._sleep)
        if req.forced_prefix is not None:
            return req.forced_prefix + content
        return content

    def _post(self, req: GenerationRequest) -> str:
        messages = []
        if req.system_prompt:
            messages.append({"role": "system", "content": req.system_prompt})
        messages.append({"role": "user", "content": req.user_prompt})
        if req.forced_prefix is not None:
            messages.append({"role": "assistant", "content": req.forced_prefix})
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self._session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except OSError as exc:
            # requests' errors are OSErrors, and only a loaded requests raises them.
            requests = sys.modules.get("requests")
            if requests is None or not isinstance(exc, requests.RequestException):
                raise
            if isinstance(exc, (requests.Timeout, requests.ConnectionError)):
                raise Timeout(f"endpoint unreachable: {exc}") from exc
            raise ProtocolError(f"transport failure: {exc}", retryable=True) from exc

        if resp.status_code == 429:
            raise RateLimited(f"rate limited by {self.endpoint}")
        if resp.status_code >= 500:
            raise ProtocolError(f"server error {resp.status_code}", retryable=True)
        if resp.status_code != 200:
            raise ProtocolError(f"unexpected status {resp.status_code}")
        try:
            body = resp.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed response body: {exc}") from exc
        if not isinstance(content, str):
            raise ProtocolError(f"non-text completion content: {content!r}")
        return content


Script = Mapping[str, str] | Sequence[tuple[str, str]] | Callable[[GenerationRequest], str]


class ScriptedClient(LlmClient):
    """Deterministic offline client.

    The script is either a mapping from exact user prompt to response, an
    ordered list of (substring, response) rules where the first substring
    found in the user prompt wins, or a callable on the whole request.
    Every request is recorded on `calls` (and on the shared `trace`, tagged
    with this client's name) so tests can audit exactly what each role saw.
    """

    def __init__(
        self,
        script: Script,
        default: str | None = None,
        name: str = "scripted",
        trace: list | None = None,
    ):
        self._script = script
        self._default = default
        self.name = name
        self.calls: list[GenerationRequest] = []
        self._trace = trace
        self._lock = threading.Lock()

    def generate(self, req: GenerationRequest) -> str:
        with self._lock:
            self.calls.append(req)
            if self._trace is not None:
                self._trace.append((self.name, req))
        text = self._resolve(req)
        if text is None:
            raise ProtocolError(f"no scripted response for request to {self.name!r}")
        if req.forced_prefix is not None:
            return req.forced_prefix + text
        return text

    def _resolve(self, req: GenerationRequest) -> str | None:
        script = self._script
        if callable(script):
            return script(req)
        if isinstance(script, Mapping):
            return script.get(req.user_prompt, self._default)
        for needle, response in script:
            if needle in req.user_prompt:
                return response
        return self._default


def run_parallel(
    fn: Callable, items: Iterable, parallelism: int = 1, stop: threading.Event | None = None
) -> list:
    """Apply fn to items; the results come back in input order.

    Up to `parallelism` long-lived workers take items from one cursor in
    input order; with one worker, the loop runs in the caller's thread. An
    exception in a worker, or one that interrupts the caller while it waits
    (Ctrl-C), sets `stop` before the pool joins its workers, so no item
    starts after it; only the calls in flight finish. `fn` may read `stop`
    to end its own work early.
    """
    items = list(items)
    results: list = [None] * len(items)
    stop = threading.Event() if stop is None else stop
    cursor = enumerate(items)
    lock = threading.Lock()

    def work() -> None:
        try:
            while True:
                with lock:
                    taken = None if stop.is_set() else next(cursor, None)
                if taken is None:
                    return
                results[taken[0]] = fn(taken[1])
        except BaseException:
            stop.set()
            raise

    workers = min(parallelism, len(items))
    if workers <= 1:
        work()
        return results
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for future in as_completed([pool.submit(work) for _ in range(workers)]):
                future.result()  # a worker's exception surfaces as soon as it is raised
        except BaseException:
            stop.set()  # before the pool joins the workers
            raise
    return results


# --- judge calls -----------------------------------------------------------

_JUDGE_MAX_TOKENS = 1024


class Facet(str, Enum):
    PROBLEM_TYPE = "problem_type"
    TOOLS = "tools"
    CONSTRAINTS = "constraints"
    PITFALLS = "pitfalls"


_FACET_ALIASES = {
    "problem type": Facet.PROBLEM_TYPE,
    "problem_type": Facet.PROBLEM_TYPE,
    "tools/concepts": Facet.TOOLS,
    "tools": Facet.TOOLS,
    "constraints": Facet.CONSTRAINTS,
    "pitfalls": Facet.PITFALLS,
}

@dataclass(frozen=True)
class AttributionVerdict:
    """A parsed attribution verdict; `attribute_error` sets facet iff what-to-solve."""

    raw_response: str
    is_what_to_solve: bool
    facet: Facet | None


def _judge_request(prompt: str) -> GenerationRequest:
    # Judges are decoded greedily so the reward signal stays stationary.
    return GenerationRequest(
        user_prompt=prompt, temperature=0.0, top_p=1.0, max_tokens=_JUDGE_MAX_TOKENS
    )


def parse_grade(text: str) -> int:
    """Last standalone integer in 1..5; judges tend to prepend rationale."""
    in_range = [int(s) for s in standalone_integers(text) if 1 <= int(s) <= 5]
    if not in_range:
        raise UnparseableVerdict(f"no grade 1..5 in judge response: {text[:80]!r}")
    return in_range[-1]


def judge_proximity(client: LlmClient, question: str, attempt: str, gold: str) -> int:
    """Grade 1..5 for how close the solution path came to a correct one."""
    prompt = prompts.proximity_prompt(question, attempt, gold)
    return parse_grade(client.generate(_judge_request(prompt)))


def judge_adherence(client: LlmClient, question: str, preplan: str, plan: str) -> int:
    """Grade 1..5 for strategy alignment between preplan and plan."""
    prompt = prompts.adherence_prompt(question, preplan, plan)
    return parse_grade(client.generate(_judge_request(prompt)))


_YES_NO = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def judge_equivalence(
    client: LlmClient, pred: str, gold: str, question: str = ""
) -> bool:
    """YES/NO equivalence verdict; anything unparseable counts as NO."""
    prompt = prompts.equivalence_prompt(pred, gold, question)
    response = client.generate(_judge_request(prompt))
    m = _YES_NO.search(response)
    if m is None:
        log.warning("unparseable equivalence verdict %r; treating as NO", response[:80])
        return False
    return m.group(1).lower() == "yes"


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    for m in re.finditer(r"\{", text):
        try:
            obj, _ = decoder.raw_decode(text, m.start())
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    raise UnparseableVerdict(f"no JSON object in judge response: {text[:80]!r}")


def attribute_error(
    client: LlmClient, question: str, wrong_solution: str, gold: str
) -> AttributionVerdict:
    """Root-cause attribution for an incorrect solution.

    Expects {"what_to_solve": bool, "facet": ...} somewhere in the response;
    a what-to-solve verdict must name one of the four facets.
    """
    prompt = prompts.attribution_prompt(question, wrong_solution, gold)
    response = client.generate(_judge_request(prompt))
    obj = _first_json_object(response)
    what = obj.get("what_to_solve")
    if not isinstance(what, bool):
        raise UnparseableVerdict(f"what_to_solve missing or non-boolean: {obj!r}")
    facet = None
    if what:
        raw_facet = obj.get("facet")
        if not isinstance(raw_facet, str):
            raise UnparseableVerdict(f"what-to-solve verdict lacks a facet: {obj!r}")
        facet = _FACET_ALIASES.get(raw_facet.strip().lower())
        if facet is None:
            raise UnparseableVerdict(f"unknown facet {raw_facet!r}")
    return AttributionVerdict(raw_response=response, is_what_to_solve=what, facet=facet)

