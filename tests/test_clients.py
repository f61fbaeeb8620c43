import signal
import threading
import time

import pytest
import requests
from conftest import joining_workers, wait_until, waiting_for_workers

from ppc.clients import (
    Facet,
    GenerationRequest,
    HttpChatClient,
    ProtocolError,
    RateLimited,
    RetryPolicy,
    ScriptedClient,
    Timeout,
    UnparseableVerdict,
    attribute_error,
    judge_adherence,
    judge_equivalence,
    judge_proximity,
    parse_grade,
    run_parallel,
)


def req(prompt="hi", **kwargs):
    return GenerationRequest(user_prompt=prompt, **kwargs)


class TestGenerationRequest:
    def test_defaults_match_sampling_protocol(self):
        r = req()
        assert r.temperature == 1.0
        assert r.top_p == 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            req(temperature=-0.1)
        with pytest.raises(ValueError):
            req(top_p=0.0)
        with pytest.raises(ValueError):
            req(max_tokens=0)


class TestScriptedClient:
    def test_exact_map(self):
        client = ScriptedClient({"hi": "ok"})
        assert client.generate(req("hi")) == "ok"

    def test_deterministic_across_calls_and_threads(self):
        client = ScriptedClient({"hi": "ok"})
        results = []

        def call():
            results.append(client.generate(req("hi")))

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["ok"] * 8

    def test_substring_rules_first_match_wins(self):
        client = ScriptedClient([("apple", "A"), ("app", "B")])
        assert client.generate(req("grab an apple")) == "A"
        assert client.generate(req("use the app now")) == "B"

    def test_forced_prefix_prepended_byte_exactly(self):
        client = ScriptedClient({"hi": "continuation"})
        prefix = "<preplan>P</preplan>\n<plan>"
        out = client.generate(req("hi", forced_prefix=prefix))
        assert out.startswith(prefix)
        assert out == prefix + "continuation"

    def test_missing_response_raises(self):
        with pytest.raises(ProtocolError):
            ScriptedClient({}).generate(req("unknown"))

    def test_calls_recorded_and_traced(self):
        trace = []
        client = ScriptedClient({"hi": "ok"}, name="role-x", trace=trace)
        client.generate(req("hi"))
        assert client.calls[0].user_prompt == "hi"
        assert trace[0][0] == "role-x"


class FlakyClient:
    """Raises the queued errors, then returns 'done'."""

    def __init__(self, errors):
        self.errors = list(errors)
        self.attempts = 0

    def __call__(self):
        self.attempts += 1
        if self.errors:
            raise self.errors.pop(0)
        return "done"


class TestRetries:
    def test_retries_then_succeeds(self):
        from ppc.clients import _with_retries

        sleeps = []
        flaky = FlakyClient([Timeout("t"), RateLimited("r")])
        out = _with_retries(flaky, RetryPolicy(max_attempts=3), sleep=sleeps.append)
        assert out == "done"
        assert flaky.attempts == 3
        assert sleeps == [1.0, 4.0]

    def test_attempt_cap(self):
        from ppc.clients import _with_retries

        flaky = FlakyClient([Timeout("t")] * 10)
        with pytest.raises(Timeout):
            _with_retries(flaky, RetryPolicy(max_attempts=3), sleep=lambda _: None)
        assert flaky.attempts == 3

    def test_non_retryable_not_retried(self):
        from ppc.clients import _with_retries

        flaky = FlakyClient([ProtocolError("bad request", retryable=False)])
        with pytest.raises(ProtocolError):
            _with_retries(flaky, RetryPolicy(max_attempts=5), sleep=lambda _: None)
        assert flaky.attempts == 1


class FakeResponse:
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def chat_body(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def http_client(session, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3))
    return HttpChatClient(
        "http://example.test/v1/chat/completions",
        "test-model",
        api_key="secret",
        session=session,
        sleep=lambda _: None,
        **kwargs,
    )


class TestHttpChatClient:
    def test_wire_format(self):
        session = FakeSession([FakeResponse(200, chat_body("hello"))])
        client = http_client(session)
        out = client.generate(req("question", system_prompt="sys", max_tokens=64))
        assert out == "hello"
        payload = session.requests[0]["json"]
        assert payload["model"] == "test-model"
        assert payload["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "question"},
        ]
        assert payload["temperature"] == 1.0
        assert payload["top_p"] == 0.95
        assert payload["max_tokens"] == 64
        assert session.requests[0]["headers"]["Authorization"] == "Bearer secret"

    def test_forced_prefix_sent_as_assistant_prefill(self):
        session = FakeSession([FakeResponse(200, chat_body(" rest"))])
        out = http_client(session).generate(req("q", forced_prefix="<preplan>"))
        messages = session.requests[0]["json"]["messages"]
        assert messages[-1] == {"role": "assistant", "content": "<preplan>"}
        assert out == "<preplan> rest"

    def test_rate_limit_retried(self):
        session = FakeSession([FakeResponse(429), FakeResponse(200, chat_body("ok"))])
        assert http_client(session).generate(req()) == "ok"
        assert len(session.requests) == 2

    def test_server_error_retried(self):
        session = FakeSession([FakeResponse(503), FakeResponse(200, chat_body("ok"))])
        assert http_client(session).generate(req()) == "ok"

    def test_client_error_not_retried(self):
        session = FakeSession([FakeResponse(400)])
        with pytest.raises(ProtocolError):
            http_client(session).generate(req())
        assert len(session.requests) == 1

    def test_timeout_exhausts_retries(self):
        session = FakeSession([requests.Timeout("slow")] * 3)
        with pytest.raises(Timeout):
            http_client(session).generate(req())
        assert len(session.requests) == 3

    def test_connection_error_is_a_timeout(self):
        session = FakeSession([requests.ConnectionError("refused")] * 3)
        with pytest.raises(Timeout):
            http_client(session).generate(req())
        assert len(session.requests) == 3

    def test_other_transport_failure_retried(self):
        cut = requests.exceptions.ChunkedEncodingError("connection cut mid-body")
        session = FakeSession([cut, FakeResponse(200, chat_body("ok"))])
        assert http_client(session).generate(req()) == "ok"
        assert len(session.requests) == 2

    def test_non_transport_error_propagates(self):
        bug = RuntimeError("session bug")
        session = FakeSession([bug, FakeResponse(200, chat_body("ok"))])
        with pytest.raises(RuntimeError) as excinfo:
            http_client(session).generate(req())
        assert excinfo.value is bug
        assert len(session.requests) == 1

    def test_malformed_body(self):
        session = FakeSession([FakeResponse(200, {"nope": []})])
        with pytest.raises(ProtocolError):
            http_client(session).generate(req())

    def test_non_text_content(self):
        session = FakeSession([FakeResponse(200, chat_body(None))])
        with pytest.raises(ProtocolError):
            http_client(session).generate(req())


class TestGradeParsing:
    def test_bare_grade(self):
        assert parse_grade("4") == 4

    def test_rationale_prefix(self):
        assert parse_grade("Score: 3.") == 3

    def test_unparseable(self):
        with pytest.raises(UnparseableVerdict):
            parse_grade("great!")

    def test_last_in_range_wins(self):
        assert parse_grade("maybe 3, no wait 7") == 3
        assert parse_grade("2 then 4") == 4

    def test_embedded_digits_ignored(self):
        with pytest.raises(UnparseableVerdict):
            parse_grade("x5y")


class TestJudges:
    def test_proximity(self):
        assert judge_proximity(ScriptedClient([("", "4")]), "q", "attempt", "7") == 4

    def test_proximity_prompt_contains_inputs(self):
        client = ScriptedClient([("", "2")])
        judge_proximity(client, "the-question", "the-attempt", "the-gold")
        prompt = client.calls[0].user_prompt
        assert "the-question" in prompt and "the-attempt" in prompt and "the-gold" in prompt

    def test_judges_decode_greedily(self):
        client = ScriptedClient([("", "5")])
        judge_adherence(client, "q", "pp", "plan")
        assert client.calls[0].temperature == 0.0

    def test_adherence(self):
        assert judge_adherence(ScriptedClient([("", "5")]), "q", "pp", "plan") == 5
        assert judge_adherence(ScriptedClient([("", "2\n")]), "q", "pp", "plan") == 2

    def test_equivalence(self):
        assert judge_equivalence(ScriptedClient([("", "YES")]), "a", "b") is True
        assert judge_equivalence(ScriptedClient([("", "No.")]), "a", "b") is False
        assert judge_equivalence(ScriptedClient([("", "maybe")]), "a", "b") is False

    def test_attribution(self):
        client = ScriptedClient([("", '{"what_to_solve": true, "facet": "CONSTRAINTS"}')])
        verdict = attribute_error(client, "q", "bad solution", "7")
        assert verdict.is_what_to_solve is True
        assert verdict.facet == Facet.CONSTRAINTS

    def test_attribution_how_to_solve(self):
        client = ScriptedClient([("", '{"what_to_solve": false}')])
        verdict = attribute_error(client, "q", "bad", "7")
        assert verdict.is_what_to_solve is False
        assert verdict.facet is None

    def test_attribution_non_json(self):
        with pytest.raises(UnparseableVerdict):
            attribute_error(ScriptedClient([("", "it just failed")]), "q", "bad", "7")

    def test_attribution_needs_facet_when_what(self):
        client = ScriptedClient([("", '{"what_to_solve": true}')])
        with pytest.raises(UnparseableVerdict):
            attribute_error(client, "q", "bad", "7")


class TestRunParallel:
    def test_preserves_input_order(self):
        items = list(range(50))
        out = run_parallel(lambda x: x * x, items, parallelism=8)
        assert out == [x * x for x in items]

    def test_serial_path(self):
        assert run_parallel(str, [1, 2], parallelism=1) == ["1", "2"]

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_first_error_stops_the_pool(self, parallelism):
        main = threading.main_thread().ident
        deadline = time.monotonic() + 5
        stop = threading.Event()
        started, joined = [], []

        def fn(item):
            started.append(item)
            if item == 1:
                raise RuntimeError("item 1")
            # Every other item is held until the caller joins the pool.
            joining = wait_until(lambda: joining_workers(main), deadline - time.monotonic())
            joined.append(joining and stop.is_set())  # fn sees the stop while the pool joins
            return item

        with pytest.raises(RuntimeError, match="item 1"):
            run_parallel(fn, range(20), parallelism, stop)
        assert 0 in started and 1 in started
        assert set(started) <= set(range(parallelism))  # no item starts after the error
        assert all(joined)  # item 0 returned only after the error reached the caller and set stop

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupted_caller_stops_the_pool(self):
        class Interrupt(BaseException):
            pass

        main = threading.main_thread().ident
        deadline = time.monotonic() + 5
        stop = threading.Event()
        started, joined = [], []

        def fn(item):
            started.append(item)
            if item == 0:
                wait_until(lambda: waiting_for_workers(main), deadline - time.monotonic())
                signal.pthread_kill(main, signal.SIGUSR1)  # Ctrl-C while the caller waits
            joining = wait_until(lambda: joining_workers(main), deadline - time.monotonic())
            joined.append(joining and stop.is_set())  # fn sees the stop while the pool joins
            return item

        def interrupt(signum, frame):
            raise Interrupt

        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupt):
                run_parallel(fn, range(20), 4, stop)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert 0 in started and set(started) <= set(range(4))  # no item starts after the interrupt
        assert all(joined)
