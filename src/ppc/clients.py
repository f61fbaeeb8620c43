"""LLM endpoint clients and judge calls.

One `generate` surface covers every external role (stage generators,
judges, the evaluated policy). `HttpChatClient` speaks the usual
chat-completion JSON protocol with bounded exponential backoff;
`ScriptedClient` answers from canned responses so every pipeline can run
deterministic and offline. Judges are thin prompt-plus-parse wrappers on
top of `generate`.
"""

from __future__ import annotations

import logging
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import prompts
from ._text import decode_json

log = logging.getLogger(__name__)
T = TypeVar("T")


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
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature!r}")
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
        if not all(0 <= delay < math.inf for delay in self.delays):
            raise ValueError(f"delays must be finite and >= 0, got {self.delays}")

    def delay_for(self, attempt: int) -> float:
        if not self.delays:
            return 0.0
        return self.delays[min(attempt, len(self.delays) - 1)]


class LlmClient:
    """Interface: generate(request) -> the generated text, without the request's forced prefix."""

    def generate(self, req: GenerationRequest) -> str:
        raise NotImplementedError


def _with_retries(fn: Callable[[], str], policy: RetryPolicy, sleep=time.sleep) -> str:
    for attempt in range(policy.max_attempts - 1):
        try:
            return fn()
        except ClientError as exc:
            if not exc.retryable:
                raise
            delay = policy.delay_for(attempt)
            log.warning("retryable client error (%s); retrying in %.3gs", exc, delay)
            sleep(delay)
    return fn()


class HttpChatClient(LlmClient):
    """Chat-completion endpoint client.

    Request body: {model, messages, temperature, top_p, max_tokens};
    the answer is read from choices[0].message.content. A forced prefix is
    sent as an assistant prefill message; only the continuation is returned.
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
        return _with_retries(lambda: self._post(req), self.retry, self._sleep)

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
) -> None:
    """Call fn on each item; fn keeps whatever it makes.

    Up to `parallelism` long-lived workers take items from one cursor in
    input order; with one worker, the loop runs in the caller's thread. An
    exception in a worker, or one that interrupts the caller while it waits
    (Ctrl-C), sets `stop` before the pool joins its workers, so no item
    starts after it; only the calls in flight finish. `fn` may read `stop`
    to end its own work early.
    """
    items = list(items)
    stop = threading.Event() if stop is None else stop
    cursor = iter(items)
    lock = threading.Lock()
    done = object()

    def work() -> None:
        try:
            while True:
                with lock:
                    item = done if stop.is_set() else next(cursor, done)
                if item is done:
                    return
                fn(item)
        except BaseException:
            stop.set()
            raise

    workers = min(parallelism, len(items))
    if workers <= 1:
        work()
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for future in as_completed([pool.submit(work) for _ in range(workers)]):
                future.result()  # a worker's exception surfaces as soon as it is raised
        except BaseException:
            stop.set()  # before the pool joins the workers
            raise


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


def _judge_request(prompt: str) -> GenerationRequest:
    # Judges are decoded greedily so the same question gets the same verdict.
    return GenerationRequest(
        user_prompt=prompt, temperature=0.0, top_p=1.0, max_tokens=_JUDGE_MAX_TOKENS
    )


# One markdown code fence around the whole text, with or without a language tag.
_FENCE = re.compile(r"```(?:[\w+-]*\n)?(.*)```", re.DOTALL)


def _bare(text: str) -> str:
    """`text` without surrounding whitespace, one code fence, `*`/`_` emphasis and a final period."""
    text = text.strip()
    if fence := _FENCE.fullmatch(text):
        text = fence[1].strip()
    return text.strip("*_").strip().removesuffix(".").strip("*_").strip()


def _read_verdict(response: str, what: str, parse: Callable[[str], T]) -> T:
    """`parse` of the whole bared response, else of its last non-empty line.

    `parse` raises KeyError or ValueError on a text that is not a verdict;
    when both readings fail, the response is an UnparseableVerdict, never a
    guess from the judge's reasoning.
    """
    lines = response.strip().splitlines()
    for text in (response, lines[-1] if lines else ""):
        try:
            return parse(_bare(text))
        except (KeyError, ValueError):
            pass
    raise UnparseableVerdict(f"no {what} in judge response: {response[:80]!r}")


_YES_NO = {"yes": True, "no": False}


def judge_equivalence(
    client: LlmClient, pred: str, gold: str, question: str = ""
) -> bool:
    """YES/NO equivalence verdict, in any case (see _read_verdict); any other reply raises UnparseableVerdict."""
    prompt = prompts.fill(prompts.EQUIVALENCE_PROMPT, question=question, pred=pred, gold=gold)
    response = client.generate(_judge_request(prompt))
    return _read_verdict(response, "YES or NO", lambda text: _YES_NO[text.lower()])


def _json_object(text: str) -> dict:
    obj = decode_json(text)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def attribute_error(
    client: LlmClient, question: str, wrong_solution: str, gold: str
) -> Facet | None:
    """Root-cause attribution for an incorrect solution: the facet of a
    what-to-solve error, or None for a how-to-solve one.

    Expects {"what_to_solve": bool, "facet": ...} as the whole response or
    its last line (see _read_verdict); a what-to-solve verdict must name one
    of the four facets.
    """
    prompt = prompts.fill(prompts.ATTRIBUTION_PROMPT, question=question, solution=wrong_solution, gold=gold)
    response = client.generate(_judge_request(prompt))
    obj = _read_verdict(response, "JSON object", _json_object)
    what = obj.get("what_to_solve")
    if not isinstance(what, bool):
        raise UnparseableVerdict(f"what_to_solve missing or non-boolean: {obj!r}")
    if not what:
        return None
    raw_facet = obj.get("facet")
    if not isinstance(raw_facet, str):
        raise UnparseableVerdict(f"what-to-solve verdict lacks a facet: {obj!r}")
    facet = _FACET_ALIASES.get(raw_facet.strip().lower())
    if facet is None:
        raise UnparseableVerdict(f"unknown facet {raw_facet!r}")
    return facet
