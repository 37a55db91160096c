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
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    BackendError,
    ReplayMissError,
    TranscriptCorruptError,
    TransportError,
)

log = logging.getLogger(__name__)

API_KEY_ENV = "DECISIONFLOW_API_KEY"
BASE_URL_ENV = "DECISIONFLOW_BASE_URL"
DEFAULT_MAX_TOKENS = 4096
# sends per record-mode request; transport errors are retried, nothing else is
MAX_ATTEMPTS = 3

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
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.attempt < 0:
            raise ValueError("attempt index must be >= 0")
        if self.stage_tag not in STAGE_TAGS:
            raise ValueError(f"unknown stage tag {self.stage_tag!r}")
        object.__setattr__(self, "digest", request_digest(self))


def request_digest(request: CompletionRequest) -> str:
    """Deterministic cache key; identical fields give identical digests in any
    process."""
    canonical = json.dumps(
        [
            request.model,
            float(request.temperature),
            int(request.max_tokens),
            request.prompt,
            int(request.attempt),
        ],
        ensure_ascii=True,
        separators=(",", ":"),
    )
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
        return self.root / digest[:2] / f"{digest}.json"

    def has(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def read(self, digest: str) -> dict | None:
        """The stored entry, or None when there is none."""
        path = self.path_for(digest)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise TranscriptCorruptError(
                f"transcript {path} is not valid JSON: {err}"
            ) from err

    def write(self, digest: str, entry: dict) -> None:
        """Atomic write: temp file in the destination directory, then rename."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, indent=2, sort_keys=True, ensure_ascii=False)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def digests(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*/*.json"))

    def verify(self) -> int:
        """Check every stored transcript hashes back to its own filename.

        Distinct requests can never share a digest file; a stored request that
        re-hashes differently means the store was edited or corrupted.
        Returns the number of entries checked.
        """
        checked = 0
        for digest in self.digests():
            entry = self.read(digest)
            try:
                req = CompletionRequest(**entry["request"])
            except (KeyError, TypeError, ValueError) as err:
                raise TranscriptCorruptError(
                    f"transcript {self.path_for(digest)} has a malformed request: {err}"
                ) from err
            if req.digest != digest:
                raise TranscriptCorruptError(
                    f"transcript {self.path_for(digest)} hashes to {req.digest}"
                )
            checked += 1
        return checked


class HttpTransport:
    """Chat-completions-style HTTP backend speaking JSON over POST."""

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        path: str = "/v1/chat/completions",
        timeout: float = 60.0,
    ):
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV, "")).rstrip("/")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        self.path = path
        self.timeout = timeout
        if not self.base_url:
            raise ValueError(f"no backend URL: set {BASE_URL_ENV} or pass base_url")
        import requests

        self._session = requests.Session()

    def send(self, request: CompletionRequest) -> BackendReply:
        import requests

        payload = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        started = time.perf_counter()
        try:
            resp = self._session.post(
                self.base_url + self.path,
                json=payload,
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as err:
            raise TransportError(f"request failed: {err}") from err
        latency = time.perf_counter() - started

        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransportError(f"backend returned HTTP {resp.status_code}")
        if resp.status_code >= 400:
            raise BackendError(
                f"backend rejected the request with HTTP {resp.status_code}",
                payload=resp.text,
            )
        try:
            body = resp.json()
        except ValueError as err:
            raise BackendError("backend returned non-JSON body", payload=resp.text) from err

        text = _extract_text(body)
        if text is None:
            raise BackendError("no completion text in backend reply", payload=body)
        usage = body.get("usage") or {}
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
    mode: str = "replay"  # "replay" | "record"
    transcript_dir: str | Path = "transcripts"
    base_url: str | None = None
    api_key: str | None = None
    backoff: float = 0.5
    max_in_flight: int = 4
    timeout: float = 60.0

    def __post_init__(self):
        if self.mode not in ("replay", "record"):
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
            transport = HttpTransport(
                base_url=config.base_url,
                api_key=config.api_key,
                timeout=config.timeout,
            )
        self.transport = transport
        self.live_calls = 0
        self.cache_hits = 0
        self._lock = threading.Lock()
        self._gate = threading.Semaphore(config.max_in_flight)
        # digest -> Future of the one send in flight for it; guarded by _lock
        self._in_flight: dict[str, Future] = {}
        # entries checked when a replay gateway opens, None in record mode
        self.verified = self.store.verify() if config.mode == "replay" else None

    def complete(self, request: CompletionRequest) -> Completion:
        if request.max_tokens > DEFAULT_MAX_TOKENS:
            raise ValueError(
                f"max_tokens {request.max_tokens} exceeds ceiling "
                f"{DEFAULT_MAX_TOKENS}"
            )
        digest = request.digest
        completion = self._lookup(digest)
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
            completion = self._lookup(digest) or self._record(request, digest)
        except BaseException as err:
            flight.set_exception(err)
            raise
        finally:
            with self._lock:
                del self._in_flight[digest]
        flight.set_result(completion)
        return completion

    def _lookup(self, digest: str) -> Completion | None:
        """The stored completion, counted as a cache hit, or None."""
        entry = self.store.read(digest)
        if entry is None:
            return None
        with self._lock:
            self.cache_hits += 1
        return _completion_from_entry(entry)

    def _record(self, request: CompletionRequest, digest: str) -> Completion:
        """Send a request, persist its transcript and return the completion."""
        with self._gate:
            reply, attempts = self._call_with_retries(request)
        with self._lock:
            self.live_calls += 1

        approximate = reply.prompt_tokens is None or reply.response_tokens is None
        prompt_tokens = (
            reply.prompt_tokens
            if reply.prompt_tokens is not None
            else count_tokens(request.prompt)
        )
        response_tokens = (
            reply.response_tokens
            if reply.response_tokens is not None
            else count_tokens(reply.text)
        )
        if approximate:
            log.warning("backend reported no usage; token counts are approximate")
        entry = {
            "digest": digest,
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
        self.store.write(digest, entry)
        return _completion_from_entry(entry)

    def _call_with_retries(self, request: CompletionRequest) -> tuple[BackendReply, int]:
        last: TransportError | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                return self.transport.send(request), attempt
            except TransportError as err:
                last = err
                if attempt < MAX_ATTEMPTS:
                    delay = self.config.backoff * (2 ** (attempt - 1))
                    log.warning(
                        "transport failure (attempt %d/%d), retrying in %.2fs: %s",
                        attempt,
                        MAX_ATTEMPTS,
                        delay,
                        err,
                    )
                    time.sleep(delay)
        raise last

    def network_operations(self) -> int:
        """Live calls issued so far; always zero under pure replay."""
        return self.live_calls


def _completion_from_entry(entry: dict) -> Completion:
    usage = entry["usage"]
    return Completion(
        text=entry["response"]["text"],
        prompt_tokens=usage["prompt_tokens"],
        response_tokens=usage["response_tokens"],
        latency=entry["latency"],
        usage_approximate=usage.get("approximate", False),
        attempts=entry.get("attempts", 1),
    )
