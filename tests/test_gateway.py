"""Gateway tests: digests, the transcript store, record mode against a local
HTTP fixture server, replay mode, and the retry budget."""

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import REPO_ROOT
from decisionflow import cli, gateway
from decisionflow.errors import (
    BackendError,
    ReplayMissError,
    TranscriptCorruptError,
    TransportError,
)
from decisionflow.gateway import (
    API_KEY_ENV,
    DEFAULT_MAX_TOKENS,
    MAX_ATTEMPTS,
    BackendReply,
    Completion,
    CompletionRequest,
    GatewayConfig,
    HttpTransport,
    LlmGateway,
    TranscriptStore,
    count_tokens,
    request_digest,
)

REQ = CompletionRequest(
    model="stub-reason", prompt="hello", temperature=0.0, max_tokens=4096,
    stage_tag="zero_shot", attempt=0,
)

# sha256 of the canonical field list, computed independently and frozen
FROZEN_DIGEST = "0ad30a5b00dfb4b1f5fa8db7cc68d4f0e966fbe6bef3a25515a240f3d8bdfbdd"


class TestDigest:
    def test_digest_is_stable_across_processes(self):
        assert request_digest(REQ) == FROZEN_DIGEST

    def test_every_semantic_field_changes_the_digest(self):
        variants = [
            CompletionRequest("other", "hello", 0.0, 4096, "zero_shot", 0),
            CompletionRequest("stub-reason", "hi", 0.0, 4096, "zero_shot", 0),
            CompletionRequest("stub-reason", "hello", 0.7, 4096, "zero_shot", 0),
            CompletionRequest("stub-reason", "hello", 0.0, 2048, "zero_shot", 0),
            CompletionRequest("stub-reason", "hello", 0.0, 4096, "zero_shot", 1),
        ]
        digests = {request_digest(v) for v in variants}
        assert len(digests) == len(variants)
        assert FROZEN_DIGEST not in digests

    @pytest.mark.parametrize("prompt", ['caf\xe9 "\\u00e9"\x7f\n\U0001d11e',
                                        "\ud800"])
    def test_digest_hashes_the_canonical_json_of_any_text(self, prompt):
        request = replace(REQ, prompt=prompt, temperature=0.5)
        canonical = json.dumps(["stub-reason", 0.5, 4096, prompt, 0],
                               ensure_ascii=True, separators=(",", ":"))
        assert request.digest == \
            hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def test_stage_tag_does_not_enter_the_digest(self):
        tagged = CompletionRequest("stub-reason", "hello", 0.0, 4096, "cot", 0)
        assert request_digest(tagged) == FROZEN_DIGEST

    def test_request_carries_its_digest_outside_its_fields(self):
        assert REQ.digest == FROZEN_DIGEST
        assert "digest" not in asdict(REQ)
        other = replace(REQ, prompt="hi")
        assert other.digest == request_digest(other) != FROZEN_DIGEST
        assert other != REQ and replace(other, prompt="hello") == REQ


class TestRequestValidation:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest("m", "", 0.0)

    def test_unknown_stage_tag_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest("m", "p", 0.0, stage_tag="mystery")

    def test_ceiling_enforced_by_gateway(self):
        # a request checks its own range, so no gateway call sees one past it
        for max_tokens in (0, DEFAULT_MAX_TOKENS + 1):
            with pytest.raises(ValueError, match=r"max_tokens must be in 1\.\.4096"):
                CompletionRequest("m", "p", 0.0, max_tokens=max_tokens)
        assert CompletionRequest("m", "p", 0.0).max_tokens == DEFAULT_MAX_TOKENS


class TestCountTokens:
    def test_empty_is_zero(self):
        assert count_tokens("") == 0

    def test_whitespace_split(self):
        assert count_tokens("one two   three\nfour") == 4


class TestTranscriptStore:
    def test_layout_two_level_fanout(self, tmp_path):
        store = TranscriptStore(tmp_path)
        digest = request_digest(REQ)
        assert store.path_for(digest) == tmp_path / digest[:2] / f"{digest}.json"

    def test_read_of_a_missing_digest_is_none(self, tmp_path):
        assert TranscriptStore(tmp_path).read(FROZEN_DIGEST) is None

    def test_write_leaves_no_temp_files(self, tmp_path):
        store = TranscriptStore(tmp_path)
        written, unencodable = "ab" + "0" * 62, "cd" + "0" * 62
        store.write(written, {"request": {}, "x": 1})
        with pytest.raises(TypeError):
            store.write(unencodable, {"request": {}, "x": object()})
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files == [store.path_for(written)]

    def test_verify_passes_on_genuine_entries(self, tmp_path):
        store = TranscriptStore(tmp_path)
        digest = request_digest(REQ)
        store.write(digest, _entry_for(REQ, "ok"))
        assert store.verify() == 1

    def test_verify_rejects_edited_request(self, tmp_path):
        digest = request_digest(REQ)
        for field, value, message in [
            ("prompt", "tampered", "hashes to"),
            ("model", None, "malformed request"),  # None: the field is gone
            ("temperature", "hot", "malformed request"),
        ]:
            store = TranscriptStore(tmp_path / field)
            entry = _entry_for(REQ, "ok")
            if value is None:
                del entry["request"][field]
            else:
                entry["request"][field] = value
            store.write(digest, entry)
            with pytest.raises(TranscriptCorruptError, match=message) as err:
                store.verify()
            assert str(store.path_for(digest)) in str(err.value)


def _entry_for(request, text, latency=0.25):
    return {
        "digest": request_digest(request),
        "request": {
            "model": request.model,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "stage_tag": request.stage_tag,
            "attempt": request.attempt,
        },
        "response": {"text": text},
        "usage": {"prompt_tokens": 12, "response_tokens": 7, "approximate": False},
        "latency": latency,
        "attempts": 1,
        "recorded_at": "2026-01-01T00:00:00+00:00",
    }


class CannedHandler(BaseHTTPRequestHandler):
    """Chat-completions fixture: echoes a canned completion with usage."""

    calls = 0
    include_usage = True

    def do_POST(self):
        type(self).calls += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        reply = {
            "choices": [
                {"message": {"content": f"echo: {body['messages'][0]['content']}"}}
            ],
        }
        if type(self).include_usage:
            reply["usage"] = {"prompt_tokens": 11, "completion_tokens": 5}
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def serving(handler):
    """The URL of a local ``ThreadingHTTPServer`` running ``handler``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, args=(0.01,),
                     daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


def redirecting(status, location, **fields):
    """A handler that answers a POST with ``status`` and ``location`` (filled
    in with ``fields`` and the server's port) unless it comes to ``/moved``,
    which echoes its prompt; ``seen`` collects each path, body and key."""

    class RedirectHandler(BaseHTTPRequestHandler):
        seen = []

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            self.seen.append((self.path, body, self.headers.get("Authorization")))
            data = b""
            if self.path == "/moved":
                prompt = json.loads(body)["messages"][0]["content"]
                data = json.dumps({"text": f"echo: {prompt}"}).encode()
                self.send_response(200)
            else:
                self.send_response(status)
                self.send_header("Location", location.format(
                    port=self.server.server_port, **fields))
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    return RedirectHandler


@pytest.fixture
def fixture_server():
    CannedHandler.calls = 0
    CannedHandler.include_usage = True
    with serving(CannedHandler) as url:
        yield url


class TestRecordMode:
    def test_records_then_serves_from_cache(self, tmp_path, fixture_server):
        config = GatewayConfig(
            mode="record", transcript_dir=tmp_path, base_url=fixture_server,
        )
        gw = LlmGateway(config)
        req = CompletionRequest("m1", "what now", 0.0, 64, "zero_shot")
        first = gw.complete(req)
        assert first.text == "echo: what now"
        assert (gw.cache_hits, gw.live_calls) == (0, 1)
        assert first.prompt_tokens == 11 and first.response_tokens == 5
        assert first.usage_approximate is False
        assert gw.store.has(request_digest(req))

        second = gw.complete(req)
        assert (gw.cache_hits, gw.live_calls) == (1, 1)
        assert second.text == first.text
        assert CannedHandler.calls == 1

    def test_missing_usage_falls_back_to_approximate_counts(
        self, tmp_path, fixture_server
    ):
        CannedHandler.include_usage = False
        config = GatewayConfig(
            mode="record", transcript_dir=tmp_path, base_url=fixture_server,
        )
        gw = LlmGateway(config)
        got = gw.complete(CompletionRequest("m1", "alpha beta gamma", 0.0, 64))
        assert got.usage_approximate is True
        assert got.prompt_tokens == count_tokens("alpha beta gamma")
        assert got.response_tokens == count_tokens(got.text)

    def test_transcript_entry_is_human_inspectable(self, tmp_path, fixture_server):
        config = GatewayConfig(
            mode="record", transcript_dir=tmp_path, base_url=fixture_server,
        )
        gw = LlmGateway(config)
        req = CompletionRequest("m1", "inspect me", 0.5, 64, "cot")
        gw.complete(req)
        entry = gw.store.read(request_digest(req))
        assert entry["request"]["prompt"] == "inspect me"
        assert entry["request"]["stage_tag"] == "cot"
        assert entry["response"]["text"].startswith("echo:")
        assert "recorded_at" in entry and entry["latency"] >= 0


class TestReplayMode:
    def test_replay_serves_recorded_completion(self, tmp_path):
        store = TranscriptStore(tmp_path)
        store.write(request_digest(REQ), _entry_for(REQ, "recorded text", latency=1.5))
        gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
        got = gw.complete(REQ)
        assert got == Completion(
            text="recorded text", prompt_tokens=12, response_tokens=7,
            latency=1.5, usage_approximate=False, attempts=1,
        )
        assert (gw.cache_hits, gw.live_calls) == (1, 0)

    def test_replay_is_deterministic(self, tmp_path):
        store = TranscriptStore(tmp_path)
        store.write(request_digest(REQ), _entry_for(REQ, "recorded text"))
        gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
        assert gw.complete(REQ) == gw.complete(REQ)

    def test_replay_miss_names_the_digest(self, tmp_path):
        gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
        with pytest.raises(ReplayMissError) as err:
            gw.complete(REQ)
        assert err.value.digest == FROZEN_DIGEST
        assert FROZEN_DIGEST in str(err.value)

    def test_replay_checks_each_entry_when_read(self, tmp_path):
        store = TranscriptStore(tmp_path)
        entry = _entry_for(REQ, "x")
        entry["request"]["model"] = "someone-else"
        store.write(request_digest(REQ), entry)
        gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
        with pytest.raises(TranscriptCorruptError):
            gw.complete(REQ)

    def test_concurrent_replay_reads_are_safe(self, tmp_path):
        store = TranscriptStore(tmp_path)
        requests = [
            CompletionRequest("m", f"prompt {i}", 0.0, 64, "weigh", 0)
            for i in range(8)
        ]
        for r in requests:
            store.write(request_digest(r), _entry_for(r, f"text {r.prompt}"))
        gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
        results = {}

        def worker(r):
            results[r.prompt] = gw.complete(r).text

        threads = [threading.Thread(target=worker, args=(r,)) for r in requests]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {f"prompt {i}": f"text prompt {i}" for i in range(8)}


def _tamper_request(entry):
    entry["request"]["prompt"] = "tampered"
    return entry


def _drop_usage(entry):
    del entry["usage"]
    return entry


def _drop_response(entry):
    del entry["response"]
    return entry


def _number_text(entry):
    entry["response"]["text"] = 42
    return entry


def _negative_latency(entry):
    entry["latency"] = -1.0
    return entry


def _mistyped(section, key, value):
    """A tamper setting ``entry[section][key]``, or ``entry[key]`` when
    ``section`` is None, to ``value``."""
    def tamper(entry):
        (entry if section is None else entry[section])[key] = value
        return entry
    return tamper


class NoSendTransport:
    def send(self, request):
        raise AssertionError("a stored entry must not be sent again")


@pytest.mark.parametrize("tamper", [
    _tamper_request, _drop_usage, _drop_response, _number_text,
    _negative_latency, lambda entry: None, lambda entry: [entry],
    _mistyped("usage", "prompt_tokens", 12.5),
    _mistyped("usage", "response_tokens", True),
    _mistyped("usage", "approximate", "yes"),
    _mistyped(None, "attempts", "three"),
    _mistyped(None, "latency", True),
    _mistyped(None, "latency", float("nan")),
    _mistyped(None, "latency", float("inf")),
], ids=["tampered_request", "missing_usage", "missing_response",
        "non_string_text", "negative_latency", "null", "array",
        "float_token_count", "bool_token_count", "string_approximate",
        "string_attempts", "bool_latency", "nan_latency", "infinite_latency"])
def test_malformed_entry_is_rejected_where_it_is_read(tmp_path, capsys, tamper):
    store = TranscriptStore(tmp_path)
    store.write(REQ.digest, tamper(_entry_for(REQ, "ok")))
    path = store.path_for(REQ.digest)
    stored = path.read_bytes()

    for gw in (
        LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path)),
        LlmGateway(GatewayConfig(mode="record", transcript_dir=tmp_path),
                   NoSendTransport()),
    ):
        with pytest.raises(TranscriptCorruptError) as err:
            gw.complete(REQ)
        assert str(path) in str(err.value)
        assert gw.cache_hits == 0
        assert path.read_bytes() == stored

    assert cli.main(["replay-verify", "--transcripts", str(tmp_path)]) == 1
    assert str(path) in capsys.readouterr().err


def test_missing_attempts_and_approximate_take_their_defaults(tmp_path):
    entry = _entry_for(REQ, "ok", latency=1)
    del entry["attempts"], entry["usage"]["approximate"]
    TranscriptStore(tmp_path).write(REQ.digest, entry)
    gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
    completion = gw.complete(REQ)
    assert (completion.attempts, completion.usage_approximate) == (1, False)
    assert completion.latency == 1  # an int latency is a finite number


@pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig", "latin-1"])
def test_a_transcript_not_in_utf8_is_corrupt(tmp_path, capsys, encoding):
    """A read decodes UTF-8 before it parses: json.loads of the bytes would
    take UTF-16 as well."""
    store = TranscriptStore(tmp_path)
    path = store.path_for(REQ.digest)
    path.parent.mkdir(parents=True)
    text = json.dumps(_entry_for(REQ, "café"), ensure_ascii=False)
    path.write_bytes(text.encode(encoding))
    if encoding == "utf-16":
        assert json.loads(path.read_bytes()) == json.loads(text)

    gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
    with pytest.raises(TranscriptCorruptError, match="is not valid JSON") as err:
        gw.complete(REQ)
    assert str(path) in str(err.value)
    assert cli.main(["replay-verify", "--transcripts", str(tmp_path)]) == 1
    assert str(path) in capsys.readouterr().err


class FlakyTransport:
    """Fails with transport errors a fixed number of times, then succeeds."""

    def __init__(self, failures, exc=TransportError("boom")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def send(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return BackendReply(
            text="finally", prompt_tokens=3, response_tokens=1, latency=0.1
        )


@pytest.fixture
def fast_backoff(monkeypatch):
    monkeypatch.setattr(gateway, "BACKOFF_S", 0.001)


@pytest.mark.usefixtures("fast_backoff")
class TestRetries:
    def _gateway(self, tmp_path, transport):
        config = GatewayConfig(mode="record", transcript_dir=tmp_path)
        return LlmGateway(config, transport=transport)

    def test_retries_then_succeeds_and_reports_attempts(self, tmp_path):
        transport = FlakyTransport(failures=2)
        gw = self._gateway(tmp_path, transport)
        got = gw.complete(CompletionRequest("m", "p", 0.0, 64))
        assert got.text == "finally"
        assert got.attempts == 3
        assert transport.calls == 3

    def test_budget_exhausted_raises_transport_error(self, tmp_path):
        transport = FlakyTransport(failures=10)
        gw = self._gateway(tmp_path, transport)
        with pytest.raises(TransportError):
            gw.complete(CompletionRequest("m", "p", 0.0, 64))
        assert transport.calls == 3

    def test_backend_errors_are_not_retried(self, tmp_path):
        transport = FlakyTransport(failures=1, exc=BackendError("HTTP 400", payload="no"))
        gw = self._gateway(tmp_path, transport)
        with pytest.raises(BackendError):
            gw.complete(CompletionRequest("m", "p", 0.0, 64))
        assert transport.calls == 1

    def test_refusal_text_is_data_not_an_error(self, tmp_path):
        class RefusingTransport:
            def send(self, request):
                return BackendReply(
                    text="I cannot help with that.", prompt_tokens=5,
                    response_tokens=6, latency=0.2,
                )

        gw = self._gateway(tmp_path, RefusingTransport())
        got = gw.complete(CompletionRequest("m", "p", 0.0, 64))
        assert got.text == "I cannot help with that."


class BlockingTransport:
    """Counts sends; each waits for `release`, then raises `exc` if set or
    replies."""

    def __init__(self, exc=None):
        self.release = threading.Event()
        self.exc = exc
        self.calls = 0
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.calls += 1
        if not self.release.wait(10):
            raise RuntimeError("send was never released")
        if self.exc is not None:
            raise self.exc
        return BackendReply(
            text="shared", prompt_tokens=3, response_tokens=1, latency=0.1
        )


@pytest.mark.usefixtures("fast_backoff")
class TestSingleFlight:
    N = 16

    def _gateway(self, tmp_path, transport):
        config = GatewayConfig(mode="record", transcript_dir=tmp_path)
        return LlmGateway(config, transport=transport)

    def _race(self, gw, transport):
        """Run N threads on REQ, release the send once every thread has looked
        the digest up in the store, and return each thread's result or
        exception."""
        lookups = []
        store_read = gw.store.read

        def counting_read(digest):
            found = store_read(digest)
            lookups.append(digest)
            return found

        gw.store.read = counting_read
        results = [None] * self.N

        def worker(i):
            try:
                results[i] = gw.complete(REQ)
            except Exception as err:
                results[i] = err

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(self.N)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while len(lookups) < self.N and time.monotonic() < deadline:
            time.sleep(0.001)
        transport.release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        return results

    def test_identical_requests_share_one_send(self, tmp_path):
        transport = BlockingTransport()
        gw = self._gateway(tmp_path, transport)
        results = self._race(gw, transport)
        assert transport.calls == 1
        assert gw.live_calls == 1
        assert gw.cache_hits == self.N - 1
        assert all(isinstance(r, Completion) and r.text == "shared"
                   for r in results)
        assert gw.store.digests() == [FROZEN_DIGEST]

    @pytest.mark.parametrize("exc", [
        TransportError("boom"), BackendError("HTTP 400", payload="no"),
    ], ids=["retries_exhausted", "backend_error"])
    def test_failed_flight_fails_every_waiter_then_sends_again(
            self, tmp_path, exc):
        transport = BlockingTransport(exc=exc)
        gw = self._gateway(tmp_path, transport)
        results = self._race(gw, transport)
        assert all(isinstance(r, type(exc)) for r in results)
        assert gw._in_flight == {}
        assert gw.live_calls == 0
        assert gw.store.digests() == []

        sends = transport.calls
        transport.exc = None
        assert gw.complete(REQ).text == "shared"
        assert transport.calls == sends + 1
        assert gw.live_calls == 1


def _closed_port_url() -> str:
    """The URL of a local port that was bound and then closed, so a
    connection to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestHttpTransportStatuses:
    @pytest.fixture
    def status_server(self):
        class StatusHandler(BaseHTTPRequestHandler):
            status = 500
            body = b'{"error": "nope"}'
            authorizations = []

            def do_POST(self):
                cls = type(self)
                cls.authorizations.append(self.headers.get("Authorization"))
                self.send_response(cls.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(cls.body)))
                self.end_headers()
                self.wfile.write(cls.body)

            def log_message(self, *args):
                pass

        with serving(StatusHandler) as url:
            yield StatusHandler, url

    def test_5xx_and_429_are_transport_errors(self, status_server):
        handler, url = status_server
        transport = HttpTransport(base_url=url, api_key="k")
        for status in (500, 503, 429):
            handler.status = status
            with pytest.raises(TransportError):
                transport.send(CompletionRequest("m", "p", 0.0, 64))

    def test_other_4xx_is_backend_error_with_payload(self, status_server):
        handler, url = status_server
        handler.status = 400
        transport = HttpTransport(base_url=url, api_key="k")
        with pytest.raises(BackendError) as err:
            transport.send(CompletionRequest("m", "p", 0.0, 64))
        assert "nope" in str(err.value.payload)

    def test_refused_connection_is_a_transport_error(self):
        transport = HttpTransport(base_url=_closed_port_url())
        with pytest.raises(TransportError, match="request failed"):
            transport.send(CompletionRequest("m", "p", 0.0, 64))

    @pytest.mark.usefixtures("fast_backoff")
    def test_gateway_retries_a_refused_connection_then_raises(self, tmp_path):
        gw = LlmGateway(GatewayConfig(mode="record", transcript_dir=tmp_path,
                                      base_url=_closed_port_url()))
        sends = []
        send = gw.transport.send
        gw.transport.send = lambda request: sends.append(request) or send(request)
        with pytest.raises(TransportError):
            gw.complete(REQ)
        assert len(sends) == MAX_ATTEMPTS == 3
        assert (gw.live_calls, gw.store.digests()) == (0, [])

    @pytest.mark.parametrize("body, text", [
        (b'{"choices": [{"text": "from choices"}]}', "from choices"),
        (b'{"text": "top level"}', "top level"),
        (b'{"text": "t", "usage": [1, 2]}', "t"),
    ], ids=["choices_text", "top_level_text", "usage_not_an_object"])
    def test_completion_text_fallbacks(self, status_server, body, text):
        handler, url = status_server
        handler.status, handler.body = 200, body
        reply = HttpTransport(base_url=url).send(REQ)
        assert reply.text == text
        assert (reply.prompt_tokens, reply.response_tokens) == (None, None)

    @pytest.mark.parametrize("body, message", [
        (b"<html>busy</html>", "non-JSON body"),
        (b'{"choices": [{"message": {}}], "usage": {}}', "no completion text"),
        (b"[1, 2]", "no completion text"),
        (b"null", "no completion text"),
        (b'{"text": "caf\xe9"}', "non-UTF-8"),
    ], ids=["not_json", "no_text", "json_list", "json_null", "not_utf8"])
    def test_ok_reply_without_text_is_backend_error(self, status_server,
                                                     body, message):
        handler, url = status_server
        handler.status, handler.body = 200, body
        with pytest.raises(BackendError, match=message) as err:
            HttpTransport(base_url=url).send(REQ)
        assert err.value.payload == body.decode("utf-8", "replace")

    @pytest.mark.parametrize("param, env, header", [
        ("param-key", None, "Bearer param-key"),
        (None, "env-key", "Bearer env-key"),
        ("param-key", "env-key", "Bearer param-key"),
        (None, None, None),
    ], ids=["parameter", "environment", "parameter_wins", "no_key"])
    def test_bearer_header_sent_exactly_when_a_key_is_given(
            self, status_server, monkeypatch, param, env, header):
        handler, url = status_server
        handler.status, handler.body = 200, b'{"text": "ok"}'
        if env is None:
            monkeypatch.delenv(API_KEY_ENV, raising=False)
        else:
            monkeypatch.setenv(API_KEY_ENV, env)
        HttpTransport(base_url=url, api_key=param).send(REQ)
        assert handler.authorizations == [header]

    @pytest.mark.parametrize("status", [307, 308])
    def test_redirect_without_a_location_is_backend_error(self, status_server,
                                                          status):
        handler, url = status_server
        handler.status = status
        with pytest.raises(BackendError, match=f"HTTP {status}$"):
            HttpTransport(base_url=url).send(REQ)

    @pytest.mark.parametrize("status", [307, 308])
    @pytest.mark.parametrize("host, key", [
        ("127.0.0.1", "Bearer k"),
        ("localhost", None),
    ], ids=["same_host", "other_host"])
    def test_redirect_resends_the_post(self, status, host, key):
        handler = redirecting(status, "http://{host}:{port}/moved", host=host)
        with serving(handler) as url:
            reply = HttpTransport(base_url=url, api_key="k").send(REQ)
        assert reply.text == f"echo: {REQ.prompt}"
        (path, body, _), (moved, again, authorization) = handler.seen
        assert (path, moved, again) == (gateway.HTTP_PATH, "/moved", body)
        assert authorization == key

    def test_redirect_loop_is_backend_error_naming_the_location(self):
        handler = redirecting(307, gateway.HTTP_PATH)
        with serving(handler) as url:
            with pytest.raises(BackendError, match=r"HTTP 307 \(Location: /v1/"):
                HttpTransport(base_url=url).send(REQ)

    @pytest.mark.parametrize("reply, delay", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" b'{"text": "o', 0.0),
        (b"NOT HTTP\r\n\r\n", 0.0),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n" b'{"text": "ok"}', 1.0),
    ], ids=["truncated_body", "malformed_status_line", "read_timeout"])
    def test_broken_reply_is_a_transport_error(self, monkeypatch, reply, delay):
        class RawHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                time.sleep(delay)
                self.wfile.write(reply)
                self.close_connection = True

            def log_message(self, *args):
                pass

        monkeypatch.setattr(gateway, "HTTP_TIMEOUT_S", 0.3)
        with serving(RawHandler) as url:
            with pytest.raises(TransportError, match="request failed"):
                HttpTransport(base_url=url).send(REQ)

    def test_concurrent_sends_each_get_their_own_reply(self, fixture_server):
        transport = HttpTransport(base_url=fixture_server)
        start = threading.Barrier(4)

        def sends(thread):
            start.wait()
            prompts = [f"thread {thread} send {i}" for i in range(20)]
            return [(prompt, transport.send(replace(REQ, prompt=prompt)).text)
                    for prompt in prompts]

        with ThreadPoolExecutor(4) as pool:
            pairs = [pair for done in pool.map(sends, range(4)) for pair in done]
        assert len({prompt for prompt, _ in pairs}) == 80
        assert all(text == f"echo: {prompt}" for prompt, text in pairs)


def test_the_package_needs_only_the_standard_library():
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from decisionflow import cli, testing\n"
        "from decisionflow.errors import TransportError\n"
        "from decisionflow.gateway import CompletionRequest, HttpTransport\n"
        "try:\n"
        "    HttpTransport(sys.argv[1]).send(CompletionRequest('m', 'p', 0.0))\n"
        "except TransportError:\n"
        "    pass\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - sys.stdlib_module_names - {'decisionflow'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", child, _closed_port_url()],
                          cwd=REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert project["project"]["dependencies"] == []
