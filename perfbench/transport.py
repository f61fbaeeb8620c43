"""In-process fake chat-completion endpoint behind ppc's real HttpChatClient.

`FakeEndpoint` stands in for the `requests.Session` a client posts to. It
plays every role (the role is the request's `model` field), so a whole
run is offline:

- The problem id sits at a fixed offset of each stage prompt (the
  question opens with it), so finding it is O(1). Judge prompts carry no
  question; their problem is found from the answer spellings, which the
  generator made problem-unique.
- Response j of a (problem, role) pair is the j-th scripted response,
  counted per pair, so what a problem receives is fixed by the seed and
  not by thread order.
- Each request sleeps a base latency plus a per-token share of the
  response, standing in for the network and the model.
- Seeded one-off 429/5xx responses and persistent 5xx responses are
  injected per (problem, role).
- Requests and responses go through JSON text, as on the wire.
- It stamps each problem's first request and last response, counts
  requests per role, and keeps its own CPU time apart so it is not
  mistaken for client time.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from json import dumps as _dumps
from json import loads as _loads

from ppc import prompts

ID_PATTERN = re.compile(r"[a-z]{3}-[0-9]{5}")
ID_LEN = 9
ALWAYS = -1  # RoleScript.fail key: every request of the pair fails

# Where the question starts inside each role's user prompt.
_TEMPLATES = {
    "preplan_gen": prompts.PREPLAN_PROMPT,
    "plan_gen": prompts.PLAN_PROMPT,
    "executor": prompts.RAW_SOLUTION_PROMPT,
    "cleanup": prompts.CLEANUP_PROMPT,
}
QUESTION_OFFSET = {role: t.index("{question}") for role, t in _TEMPLATES.items()}
QUESTION_OFFSET["policy"] = 0


@dataclass
class RoleScript:
    """What one (problem, role) pair answers, in order."""

    responses: list = field(default_factory=list)  # [(content, tokens)]
    fail: dict = field(default_factory=dict)  # request ordinal (or ALWAYS) -> status


@dataclass(frozen=True)
class Latency:
    base_s: float
    per_token_s: float
    judge_s: float


class FakeResponse:
    def __init__(self, status_code: int, text: str):
        self.status_code = status_code
        self.text = text

    def json(self):
        return _loads(self.text)


class FakeEndpoint:
    def __init__(self, scripts: dict, latency: Latency, judge_classes: dict | None = None,
                 judge_fail_once: frozenset = frozenset()):
        self.scripts = scripts  # (problem id, role) -> RoleScript
        self.latency = latency
        self.judge_classes = judge_classes or {}  # spelling -> (problem id, class id)
        self.judge_fail_once = judge_fail_once  # problem ids
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests: dict[str, int] = {}
        self.first_request: dict[str, float] = {}
        self.last_response: dict[str, float] = {}
        self.cpu_s = 0.0
        self.unplanned: list[str] = []
        self._ordinal: dict[tuple, int] = {}
        self._served: dict[tuple, int] = {}
        self._judge_failed: set[str] = set()

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    def item_latencies_ms(self) -> dict[str, float]:
        return {
            pid: 1000.0 * (self.last_response[pid] - t0)
            for pid, t0 in self.first_request.items()
        }

    # requests.Session.post signature, as HttpChatClient calls it
    def post(self, url, json=None, headers=None, timeout=None):
        started = time.perf_counter()
        cpu0 = time.thread_time()
        body = _loads(_dumps(json))
        role = body["model"]
        user = next(m["content"] for m in body["messages"] if m["role"] == "user")
        with self._lock:
            if role == "judge":
                pid, status, content, tokens = self._judge(user)
            else:
                pid, status, content, tokens = self._answer(role, user)
            self.first_request.setdefault(pid, started)
        if status == 200:
            text = _dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
            delay = self.latency.judge_s if role == "judge" else (
                self.latency.base_s + tokens * self.latency.per_token_s
            )
        else:
            text = _dumps({"error": {"code": status}})
            delay = self.latency.base_s
        cpu = time.thread_time() - cpu0
        time.sleep(delay)
        with self._lock:
            self.cpu_s += cpu
            self.requests[role] = self.requests.get(role, 0) + 1
            self.last_response[pid] = time.perf_counter()
        return FakeResponse(status, text)

    def problem_id(self, role: str, user_prompt: str) -> str:
        off = QUESTION_OFFSET.get(role)
        if off is not None:
            pid = user_prompt[off : off + ID_LEN]
            if ID_PATTERN.fullmatch(pid):
                return pid
        m = ID_PATTERN.search(user_prompt)  # prompt layout changed: slow path
        return m.group(0) if m else "?"

    def _answer(self, role, user):
        pid = self.problem_id(role, user)
        key = (pid, role)
        script = self.scripts.get(key)
        if script is None:
            self.unplanned.append(f"{role} request for {pid}")
            return pid, 500, None, 0
        ordinal = self._ordinal.get(key, 0)
        self._ordinal[key] = ordinal + 1
        status = script.fail.get(ALWAYS) or script.fail.get(ordinal)
        if status:
            return pid, status, None, 0
        served = self._served.get(key, 0)
        if served >= len(script.responses):
            self.unplanned.append(f"{role} response {served} for {pid}")
            return pid, 500, None, 0
        self._served[key] = served + 1
        content, tokens = script.responses[served]
        return pid, 200, content, tokens

    def _judge(self, user):
        a_start = user.index("Answer A: ") + len("Answer A: ")
        b_mark = user.index("\nAnswer B: ", a_start)
        b_start = b_mark + len("\nAnswer B: ")
        pred, gold = user[a_start:b_mark], user[b_start : user.index("\n", b_start)]
        a, b = self.judge_classes.get(pred), self.judge_classes.get(gold)
        if a is None or b is None or a[0] != b[0]:
            self.unplanned.append(f"judge pair {pred!r} / {gold!r}")
            return "?", 200, "NO", 1
        pid = a[0]
        if pid in self.judge_fail_once and pid not in self._judge_failed:
            self._judge_failed.add(pid)
            return pid, 429, None, 0
        return pid, 200, ("YES" if a[1] == b[1] else "NO"), 1


class BackoffSleep:
    """The `sleep=` clients back off with: an object, so the traced run can
    wrap its `nap` and time the backoff."""

    nap = staticmethod(time.sleep)

    def __call__(self, seconds: float) -> None:
        self.nap(seconds)
