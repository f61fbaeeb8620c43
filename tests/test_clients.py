import logging
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
    judge_equivalence,
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
        for temperature in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
                req(temperature=temperature)
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

    def test_forced_prefix_recorded_not_returned(self):
        client = ScriptedClient({"hi": "continuation"})
        prefix = "<preplan>P</preplan>\n<plan>"
        out = client.generate(req("hi", forced_prefix=prefix))
        assert client.calls[0].forced_prefix == prefix
        assert out == "continuation"

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

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "infinite"])
    def test_delay_that_sleep_rejects_is_refused_up_front(self, delay):
        with pytest.raises(ValueError, match="delays must be finite and >= 0"):
            RetryPolicy(delays=(1.0, delay))

    def test_fewer_than_one_attempt_is_refused(self):
        with pytest.raises(ValueError, match="^max_attempts must be >= 1$"):
            RetryPolicy(max_attempts=0)

    def test_no_delays_means_no_wait(self):
        assert RetryPolicy(delays=()).delay_for(2) == 0.0


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
        assert out == " rest"

    def test_rate_limit_retried(self):
        session = FakeSession([FakeResponse(429), FakeResponse(200, chat_body("ok"))])
        assert http_client(session).generate(req()) == "ok"
        assert len(session.requests) == 2

    def test_server_error_retried(self):
        session = FakeSession([FakeResponse(503), FakeResponse(200, chat_body("ok"))])
        assert http_client(session).generate(req()) == "ok"

    def test_short_retry_delay_is_logged_as_it_is(self, caplog):
        session = FakeSession([FakeResponse(503), FakeResponse(200, chat_body("ok"))])
        with caplog.at_level(logging.WARNING, logger="ppc.clients"):
            assert http_client(session, retry=RetryPolicy(delays=(0.002,))).generate(req()) == "ok"
        assert [r.getMessage() for r in caplog.records] == [
            "retryable client error (server error 503); retrying in 0.002s"
        ]

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
        # A plain OSError is no requests transport error either.
        for bug in (RuntimeError("session bug"), OSError("session bug")):
            session = FakeSession([bug, FakeResponse(200, chat_body("ok"))])
            with pytest.raises(type(bug)) as excinfo:
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


class TestJudges:
    def test_judges_decode_greedily(self):
        client = ScriptedClient([("", "YES")])
        judge_equivalence(client, "a", "b")
        assert client.calls[0].temperature == 0.0

    def test_equivalence(self):
        assert judge_equivalence(ScriptedClient([("", "YES")]), "a", "b") is True
        assert judge_equivalence(ScriptedClient([("", "No.")]), "a", "b") is False
        with pytest.raises(UnparseableVerdict, match="^no YES or NO in judge response: 'maybe'$"):
            judge_equivalence(ScriptedClient([("", "maybe")]), "a", "b")

    @pytest.mark.parametrize(
        "reply,verdict",
        [
            ("YES", True),
            ("no", False),
            ("No.", False),
            ("**YES**", True),
            ("_no_.", False),
            ("**Yes.**", True),
            ("  \nYES\n  ", True),
            ("```\nNO\n```", False),
            ("The forms differ only in notation.\n\n**YES**", True),
            ("Checking: 1/2 and 0.5.\nNO.", False),
            ("There is no difference between them. YES", None),
            ("Both are 1/2, so yes... wait, no: NO", None),
            ("YES\nbut on reflection they differ", None),
            ("YES NO", None),
            ("yes!", None),
            ("maybe", None),
            ("", None),
            ("```\nYES\n```\nthough I am unsure", None),
        ],
    )
    def test_equivalence_reads_the_whole_reply_or_its_last_line(self, reply, verdict):
        client = ScriptedClient([("", reply)])
        if verdict is None:
            with pytest.raises(UnparseableVerdict):
                judge_equivalence(client, "a", "b")
        else:
            assert judge_equivalence(client, "a", "b") is verdict

    @pytest.mark.parametrize(
        "reply,facet",
        [
            ('{"what_to_solve": false}', None),
            ('```json\n{"what_to_solve": true, "facet": "tools"}\n```', Facet.TOOLS),
            ('```\n{"what_to_solve": true,\n "facet": "pitfalls"}\n```', Facet.PITFALLS),
            ('The solver misread the bounds.\n{"what_to_solve": true, "facet": "constraints"}', Facet.CONSTRAINTS),
            ('**{"what_to_solve": false}**', None),
            ('Verdict: {"what_to_solve": true, "facet": "constraints"} done', UnparseableVerdict),
            ('e.g. {"what_to_solve": false} would mean how-to-solve.\nI cannot tell.', UnparseableVerdict),
            ('["what_to_solve"]', UnparseableVerdict),
            ('{"what_to_solve": true, "facet": "tools", "confidence": NaN}', UnparseableVerdict),
        ],
    )
    def test_attribution_reads_the_whole_reply_or_its_last_line(self, reply, facet):
        client = ScriptedClient([("", reply)])
        if facet is UnparseableVerdict:
            with pytest.raises(UnparseableVerdict, match="^no JSON object in judge response: "):
                attribute_error(client, "q", "bad", "7")
        else:
            assert attribute_error(client, "q", "bad", "7") is facet

    def test_attribution(self):
        client = ScriptedClient([("", '{"what_to_solve": true, "facet": "CONSTRAINTS"}')])
        assert attribute_error(client, "q", "bad solution", "7") == Facet.CONSTRAINTS

    def test_attribution_how_to_solve(self):
        client = ScriptedClient([("", '{"what_to_solve": false}')])
        assert attribute_error(client, "q", "bad", "7") is None

    def test_attribution_non_json(self):
        with pytest.raises(UnparseableVerdict):
            attribute_error(ScriptedClient([("", "it just failed")]), "q", "bad", "7")

    def test_attribution_needs_facet_when_what(self):
        client = ScriptedClient([("", '{"what_to_solve": true}')])
        with pytest.raises(UnparseableVerdict):
            attribute_error(client, "q", "bad", "7")

    @pytest.mark.parametrize(
        "reply, message",
        [
            ('{"what_to_solve": "yes"}', "what_to_solve missing or non-boolean"),
            ('{"what_to_solve": true, "facet": "luck"}', "unknown facet 'luck'"),
        ],
    )
    def test_attribution_refuses_an_unusable_verdict(self, reply, message):
        with pytest.raises(UnparseableVerdict, match=f"^{message}"):
            attribute_error(ScriptedClient([("", reply)]), "q", "bad", "7")


class TestRunParallel:
    def test_preserves_input_order(self):
        items = list(range(50))
        seen = []
        lock = threading.Lock()

        def fn(x):
            with lock:
                seen.append(x)

        assert run_parallel(fn, items, parallelism=8) is None
        assert sorted(seen) == items  # every item runs exactly once

    def test_serial_path(self):
        seen = []
        run_parallel(lambda x: seen.append((x, threading.get_ident())), [1, 2, 3], parallelism=1)
        assert seen == [(x, threading.get_ident()) for x in (1, 2, 3)]  # in order, in the caller's thread

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
