"""Gateway tests: digests, the transcript store, record mode against a local
HTTP fixture server, replay mode, and the retry budget."""

import json
import threading
import time
from dataclasses import asdict, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from decisionflow.errors import (
    BackendError,
    ReplayMissError,
    TranscriptCorruptError,
    TransportError,
)
from decisionflow.gateway import (
    DEFAULT_MAX_TOKENS,
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

    def test_ceiling_enforced_by_gateway(self, tmp_path):
        gw = LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))
        big = CompletionRequest("m", "p", 0.0, max_tokens=DEFAULT_MAX_TOKENS + 1)
        with pytest.raises(ValueError):
            gw.complete(big)


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
        store.write("ab" + "0" * 62, {"request": {}, "x": 1})
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_verify_passes_on_genuine_entries(self, tmp_path):
        store = TranscriptStore(tmp_path)
        digest = request_digest(REQ)
        store.write(digest, _entry_for(REQ, "ok"))
        assert store.verify() == 1

    def test_verify_rejects_edited_request(self, tmp_path):
        store = TranscriptStore(tmp_path)
        digest = request_digest(REQ)
        entry = _entry_for(REQ, "ok")
        entry["request"]["prompt"] = "tampered"
        store.write(digest, entry)
        with pytest.raises(TranscriptCorruptError):
            store.verify()


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


@pytest.fixture
def fixture_server():
    CannedHandler.calls = 0
    CannedHandler.include_usage = True
    server = ThreadingHTTPServer(("127.0.0.1", 0), CannedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestRecordMode:
    def test_records_then_serves_from_cache(self, tmp_path, fixture_server):
        config = GatewayConfig(
            mode="record", transcript_dir=tmp_path, base_url=fixture_server,
            api_key="test-key",
        )
        gw = LlmGateway(config)
        req = CompletionRequest("m1", "what now", 0.0, 64, "zero_shot")
        first = gw.complete(req)
        assert first.text == "echo: what now"
        assert (gw.cache_hits, gw.network_operations()) == (0, 1)
        assert first.prompt_tokens == 11 and first.response_tokens == 5
        assert first.usage_approximate is False
        assert gw.store.has(request_digest(req))

        second = gw.complete(req)
        assert (gw.cache_hits, gw.network_operations()) == (1, 1)
        assert second.text == first.text
        assert CannedHandler.calls == 1
        assert gw.network_operations() == 1

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
        assert (gw.cache_hits, gw.network_operations()) == (1, 0)

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

    def test_replay_verifies_store_on_open(self, tmp_path):
        store = TranscriptStore(tmp_path)
        entry = _entry_for(REQ, "x")
        entry["request"]["model"] = "someone-else"
        store.write(request_digest(REQ), entry)
        with pytest.raises(TranscriptCorruptError):
            LlmGateway(GatewayConfig(mode="replay", transcript_dir=tmp_path))

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


class TestRetries:
    def _gateway(self, tmp_path, transport):
        config = GatewayConfig(
            mode="record", transcript_dir=tmp_path, backoff=0.001,
        )
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


class TestSingleFlight:
    N = 16

    def _gateway(self, tmp_path, transport):
        config = GatewayConfig(
            mode="record", transcript_dir=tmp_path, backoff=0.001,
        )
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


class TestHttpTransportStatuses:
    @pytest.fixture
    def status_server(self):
        class StatusHandler(BaseHTTPRequestHandler):
            status = 500

            def do_POST(self):
                data = b'{"error": "nope"}'
                self.send_response(type(self).status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), StatusHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield StatusHandler, f"http://127.0.0.1:{server.server_port}"
        server.shutdown()

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
