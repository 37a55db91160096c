"""Completion gateway with a content-addressed record/replay transcript store.

A request is identified by the SHA-256 digest of its semantic fields (model,
temperature, max_tokens, prompt, attempt index). Record mode performs live
HTTP calls and persists one JSON transcript per digest; replay mode serves
only the store and touches the network never. Stage tags ride along for audit
but do not enter the digest.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from urllib.parse import urlsplit

from .core import finite_float
from .datasets import write_json
from .errors import BackendError, ReplayMissError, TranscriptCorruptError, TransportError

log = logging.getLogger(__name__)

API_KEY_ENV = "DECISIONFLOW_API_KEY"
BASE_URL_ENV = "DECISIONFLOW_BASE_URL"
DEFAULT_MAX_TOKENS = 4096
GATEWAY_MODES = ("replay", "record")
# sends per record-mode request; transport errors are retried, nothing else is
MAX_ATTEMPTS = 3
# seconds before the first retry, doubled before each later one
BACKOFF_S = 0.5
# record-mode sends in flight at once, across every thread of one gateway
MAX_IN_FLIGHT = 4
# where HttpTransport posts, under the base URL, and how long it waits
HTTP_PATH = "/v1/chat/completions"
HTTP_TIMEOUT_S = 60.0
# the request fields a digest covers, in canonical order; a read compares a
# stored request with the live one on these instead of re-hashing it
DIGEST_FIELDS = ("model", "temperature", "max_tokens", "prompt", "attempt")
_request_fields = attrgetter(*DIGEST_FIELDS)
_stored_fields = itemgetter(*DIGEST_FIELDS)

# every stage_tag a request may carry; each has a template of the same name,
# except self_consistency, which reuses zero_shot
STAGE_TAGS = (
    "extract_info",
    "summarize_attributes",
    "weigh",
    "ground_and_decide",
    "rationale",
    "zero_shot",
    "cot",
    "joint",
    "self_consistency",
)


def count_tokens(text: str) -> int:
    """Whitespace-split token count; a flagged fallback when the backend
    reports no usage."""
    return len(text.split())


@dataclass(frozen=True)
class CompletionRequest:
    """One model call; ``digest``, not a field, is its request_digest."""

    model: str
    prompt: str
    temperature: float
    max_tokens: int = DEFAULT_MAX_TOKENS
    stage_tag: str = "zero_shot"
    attempt: int = 0

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 1 <= self.max_tokens <= DEFAULT_MAX_TOKENS:
            raise ValueError(f"max_tokens must be in 1..{DEFAULT_MAX_TOKENS}, "
                             f"not {self.max_tokens}")
        if self.attempt < 0:
            raise ValueError("attempt index must be >= 0")
        if self.stage_tag not in STAGE_TAGS:
            raise ValueError(f"unknown stage tag {self.stage_tag!r}")
        object.__setattr__(self, "digest", request_digest(self))


# the C encoder that json.dumps(..., ensure_ascii=True, separators=(",", ":"))
# would build on every call, built once
_CANONICAL = c_make_encoder(None, json.JSONEncoder().default,
                            encode_basestring_ascii, None, ":", ",", False,
                            False, True)


def request_digest(request: CompletionRequest) -> str:
    """Deterministic cache key; identical fields give identical digests in any
    process."""
    model, temperature, max_tokens, prompt, attempt = _request_fields(request)
    canonical = "".join(_CANONICAL(
        [model, float(temperature), int(max_tokens), prompt, int(attempt)], 0))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    response_tokens: int
    latency: float
    usage_approximate: bool = False
    attempts: int = 1

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.prompt_tokens < 0 or self.response_tokens < 0:
            raise ValueError("token counts must be >= 0")


@dataclass(frozen=True)
class BackendReply:
    """What a transport hands back from one successful call."""

    text: str
    prompt_tokens: int | None
    response_tokens: int | None
    latency: float


class TranscriptStore:
    """One JSON file per request digest under <root>/<digest[:2]>/<digest>.json."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return Path(self._file(digest))

    def _file(self, digest: str) -> str:
        return f"{self.root}/{digest[:2]}/{digest}.json"

    def has(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def read(self, digest: str) -> dict | None:
        """The stored entry, or None when there is none; TranscriptCorruptError
        when the file holds anything but a JSON object in UTF-8. The path
        goes to ``open`` as a plain string, not a Path."""
        return _read_entry(self._file(digest))

    def write(self, digest: str, entry: dict) -> None:
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(entry, path)

    def digests(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*/*.json"))

    def verify(self) -> int:
        """Check every ``*.json`` file under the root as a gateway read does,
        and that its request hashes to the digest that names its path;
        returns the number of files checked."""
        paths = sorted(self.root.rglob("*.json"))
        for path in paths:
            entry = _read_entry(path)
            try:
                request = CompletionRequest(**entry["request"])
            except (KeyError, TypeError, ValueError) as err:
                raise TranscriptCorruptError(
                    f"transcript {path} has a malformed request: {err}") from err
            home = self.path_for(request.digest)
            if path != home:
                raise TranscriptCorruptError(f"transcript {path} hashes to "
                                             f"{request.digest}; it belongs at {home}")
            completion_from_entry(entry, request, self)
        return len(paths)


def _read_entry(path) -> dict | None:
    """The JSON object in the file at ``path``, or None when there is none.

    The bytes are decoded before they are parsed: ``json.loads`` of bytes
    would take UTF-16 and UTF-32 too."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    try:
        entry = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise TranscriptCorruptError(
            f"transcript {Path(path)} is not valid JSON: {err}") from err
    if not isinstance(entry, dict):
        raise TranscriptCorruptError(
            f"transcript {Path(path)} holds {type(entry).__name__}, "
            "not a JSON object")
    return entry


class HttpTransport:
    """Chat-completions-style HTTP backend speaking JSON over POST. Each send
    opens its own connection: no pool (README "Install" says what that costs)."""

    def __init__(self, base_url: str | None = None, api_key: str | None = None):
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV, "")).rstrip("/")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        if not self.base_url:
            raise ValueError(f"no backend URL: set {BASE_URL_ENV} or pass base_url")
        from urllib.request import HTTPRedirectHandler, Request, build_opener

        class Redirect(HTTPRedirectHandler):  # urllib alone will not re-send a POST
            def redirect_request(self, req, fp, code, msg, headers, newurl):
                if code not in (307, 308):
                    return super().redirect_request(req, fp, code, msg, headers, newurl)
                old, new, headers = urlsplit(req.full_url), urlsplit(newurl), dict(req.headers)
                if new.hostname != old.hostname or (old.scheme, new.scheme) == ("https", "http"):
                    headers.pop("Authorization", None)  # the key stays with its host
                return Request(newurl, req.data, headers)  # the method follows the body

        self._open = build_opener(Redirect).open

    def send(self, request: CompletionRequest) -> BackendReply:
        from http.client import HTTPException  # here: replay loads none of them
        from urllib.error import HTTPError
        from urllib.request import Request

        payload = {"model": request.model,
                   "messages": [{"role": "user", "content": request.prompt}],
                   "temperature": request.temperature, "max_tokens": request.max_tokens}
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        post = Request(self.base_url + HTTP_PATH, json.dumps(payload).encode(), headers)
        started = time.perf_counter()
        try:
            try:
                resp = self._open(post, timeout=HTTP_TIMEOUT_S)
            except HTTPError as err:  # any status but 2xx: read it as a reply
                resp = err
            with resp:
                status, location, data = resp.status, resp.headers["Location"], resp.read()
        except (OSError, HTTPException) as err:
            raise TransportError(f"request failed: {err}") from err
        latency = time.perf_counter() - started

        if status == 429 or status >= 500:
            raise TransportError(f"backend returned HTTP {status}")
        if status >= 300:  # a redirect that got here had no Location, or looped
            where = f" (Location: {location})" if location else ""
            raise BackendError(f"backend rejected the request with HTTP {status}{where}",
                               payload=data.decode("utf-8", "replace"))
        try:  # strictly: a replaced character would be stored for good
            body_text = data.decode("utf-8")
            body = json.loads(body_text)
        except ValueError as err:
            raise BackendError("backend returned a non-UTF-8 or non-JSON body",
                               payload=data.decode("utf-8", "replace")) from err
        text = _extract_text(body) if isinstance(body, dict) else None
        if text is None:
            raise BackendError("no completion text in backend reply", payload=body_text)
        usage = body.get("usage")
        if not isinstance(usage, dict):  # absent or not an object: approximate
            usage = {}
        return BackendReply(
            text=text,
            prompt_tokens=_usage_int(usage, "prompt_tokens"),
            response_tokens=_usage_int(usage, "completion_tokens", "response_tokens"),
            latency=latency,
        )


def _extract_text(body: dict) -> str | None:
    choices = body.get("choices")
    if isinstance(choices, list) and choices:
        first = choices[0]
        if isinstance(first, dict):
            message = first.get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
            if isinstance(first.get("text"), str):
                return first["text"]
    if isinstance(body.get("text"), str):
        return body["text"]
    return None


def _usage_int(usage: dict, *keys: str) -> int | None:
    for key in keys:
        value = usage.get(key)
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            return value
    return None


@dataclass
class GatewayConfig:
    mode: str = "replay"  # one of GATEWAY_MODES
    transcript_dir: str | Path = "transcripts"
    base_url: str | None = None

    def __post_init__(self):
        if self.mode not in GATEWAY_MODES:
            raise ValueError(f"unknown gateway mode {self.mode!r}")


class LlmGateway:
    """Thread-safe completion frontend over a transcript store.

    In record mode an unseen request goes to the transport (with retries on
    transport-level failures only; refusal text is data, not an error) and the
    transcript is persisted before the completion is returned. Concurrent
    requests with one digest share one send: the first claims the digest, the
    others wait for its completion (or its error) and count as cache hits. In
    replay mode an unseen request is a hard error naming the digest.
    """

    def __init__(self, config: GatewayConfig, transport=None):
        self.config = config
        self.store = TranscriptStore(config.transcript_dir)
        if config.mode == "record" and transport is None:
            transport = HttpTransport(base_url=config.base_url)
        self.transport = transport
        self.live_calls = 0
        self.cache_hits = 0
        self._lock = threading.Lock()
        self._gate = threading.Semaphore(MAX_IN_FLIGHT)
        # digest -> Future of the one send in flight for it; guarded by _lock
        self._in_flight: dict[str, Future] = {}

    def complete(self, request: CompletionRequest) -> Completion:
        digest = request.digest
        completion = self._lookup(request)
        if completion is not None:
            return completion
        if self.config.mode == "replay":
            raise ReplayMissError(digest)

        with self._lock:
            flight = self._in_flight.get(digest)
            leader = flight is None
            if leader:
                flight = self._in_flight[digest] = Future()
        if not leader:
            completion = flight.result()
            with self._lock:
                self.cache_hits += 1
            return completion
        try:
            # an earlier flight may have landed between the lookup and the claim
            completion = self._lookup(request) or self._record(request)
        except BaseException as err:
            flight.set_exception(err)
            raise
        finally:
            with self._lock:
                del self._in_flight[digest]
        flight.set_result(completion)
        return completion

    def _lookup(self, request: CompletionRequest) -> Completion | None:
        """The stored completion, checked against ``request`` and counted as a
        cache hit, or None."""
        entry = self.store.read(request.digest)
        if entry is None:
            return None
        completion = completion_from_entry(entry, request, self.store)
        with self._lock:
            self.cache_hits += 1
        return completion

    def _record(self, request: CompletionRequest) -> Completion:
        """Send a request, persist its transcript and return the completion."""
        with self._gate:
            reply, attempts = self._call_with_retries(request)
        with self._lock:
            self.live_calls += 1

        prompt_tokens, response_tokens = reply.prompt_tokens, reply.response_tokens
        approximate = prompt_tokens is None or response_tokens is None
        if prompt_tokens is None:
            prompt_tokens = count_tokens(request.prompt)
        if response_tokens is None:
            response_tokens = count_tokens(reply.text)
        if approximate:
            log.warning("backend reported no usage; token counts are approximate")
        entry = {
            "digest": request.digest,
            "request": asdict(request),
            "response": {"text": reply.text},
            "usage": {
                "prompt_tokens": prompt_tokens,
                "response_tokens": response_tokens,
                "approximate": approximate,
            },
            "latency": reply.latency,
            "attempts": attempts,
            "recorded_at": datetime.now(timezone.utc).isoformat(),
        }
        self.store.write(request.digest, entry)
        return completion_from_entry(entry, request, self.store)

    def _call_with_retries(self, request: CompletionRequest) -> tuple[BackendReply, int]:
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                return self.transport.send(request), attempt
            except TransportError as err:
                if attempt == MAX_ATTEMPTS:
                    raise
                delay = BACKOFF_S * (2 ** (attempt - 1))
                log.warning("transport failure (attempt %d/%d), retrying in %.2fs: %s",
                            attempt, MAX_ATTEMPTS, delay, err)
                time.sleep(delay)


def completion_from_entry(entry: dict, request: CompletionRequest,
                          store: TranscriptStore) -> Completion:
    """The completion ``entry`` holds for ``request``; TranscriptCorruptError
    naming its file in ``store`` when its request differs on a digest field
    or its response, usage or latency is missing or mistyped. The token
    counts and ``attempts`` must be ints and ``approximate`` a bool (each of
    the last two defaults when absent), the latency a finite number."""
    try:
        if _stored_fields(entry["request"]) != _request_fields(request):
            raise ValueError(f"its request is not {request.digest}")
        text, latency, usage = (entry["response"]["text"], entry["latency"],
                                entry["usage"])
        prompt_tokens, response_tokens = usage["prompt_tokens"], usage["response_tokens"]
        approximate, attempts = usage.get("approximate", False), entry.get("attempts", 1)
        # type() is exact, so a bool is no int; straight-line, as every read runs it
        if type(text) is not str:
            raise TypeError(f"response text is {text!r}")
        if not type(prompt_tokens) is type(response_tokens) is type(attempts) is int:
            raise TypeError("token counts and attempts must be ints, not "
                            f"{prompt_tokens!r}, {response_tokens!r}, {attempts!r}")
        if type(approximate) is not bool:
            raise TypeError(f"approximate is {approximate!r}")
        if finite_float(latency) is None:
            raise TypeError(f"latency is {latency!r}")
        return Completion(text, prompt_tokens, response_tokens, latency,
                          approximate, attempts)
    except (KeyError, TypeError, ValueError) as err:
        raise TranscriptCorruptError(
            f"transcript {store.path_for(request.digest)} is corrupt: {err!r}") from err
