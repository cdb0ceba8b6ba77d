"""Chat-completion gateway with retries, caching, and live/replay transports.

Requests are hashed over (model, temperature, max_tokens, messages); the
digest keys both the in-memory response cache and the on-disk fixtures, so a
run's response cache doubles as its replay fixture.  Replay never touches the
network, which keeps pipeline runs byte-deterministic.  The digest is the
SHA-256 of the request as compact JSON with sorted keys.  The config's part
of that text, before and after the message list, is encoded once per
:class:`ModelConfig` object with :mod:`json`; each role and content goes
through the C string encoder, so no request builds a JSON encoder.  Each
request is hashed once: :class:`Gateway` hashes it, and the replay lookup
that follows in the same thread gets that digest from
:func:`request_digest`'s one-entry memo instead of encoding the request
again.

Every fixture is a JSON array of ``{digest, response}`` objects, and in a run
the :class:`Gateway` writes one, the response cache: each new reply goes in
once per digest.  A reply is appended as one line over the array's closing
bracket, so persisting n replies writes O(total reply bytes) and the file is
a valid fixture after every request.  The cache is opened once per run, at
its first append, and its tail is read and checked then; after that each
reply is one positioned write, through the same descriptor, at the end the
previous append left.  :meth:`Gateway.close` closes the descriptor.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Sequence

from .corpus import read_utf8
from .errors import (
    AuthError,
    DecodeError,
    FixtureCorrupt,
    FixtureMiss,
    MalformedResponse,
    RateLimited,
    ReplyTruncated,
    RequestRejected,
    TransportError,
)

ENV_VAR = "THEMATICA_API_KEY"
FALLBACK_ENV_VAR = "OPENAI_API_KEY"

_HEX = re.compile(r"[0-9a-f]{16,}")

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ModelConfig:
    model_id: str = "gpt-4-turbo"
    temperature: float = 0.3
    max_tokens: int = 1000
    endpoint_url: str = "https://api.openai.com/v1"
    timeout: float = 120.0
    max_attempts: int = 5
    backoff_base: float = 1.0
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if not 1 <= self.parallelism <= 8:
            raise ValueError(f"parallelism must be in 1..8, got {self.parallelism}")

    @cached_property
    def _digest_affixes(self) -> tuple[str, str]:
        """The canonical request text before and after its message list.

        Keys in sorted order, as ``json.dumps(sort_keys=True)`` writes them.
        Each config object encodes its own values, so ``temperature`` 1, 1.0
        and True encode apart, as they did when every request was dumped whole.
        """
        model = json.dumps(self.model_id, ensure_ascii=False)
        return (f'{{"max_tokens":{json.dumps(self.max_tokens)},"messages":[',
                f'],"model":{model},"temperature":{json.dumps(self.temperature)}}}')


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class Completion:
    request_digest: str
    text: str
    transport: str


def _canonical_digest(config: ModelConfig, messages: tuple[tuple[str, str], ...]) -> str:
    head, tail = config._digest_affixes
    body = ",".join(f'{{"content":{encode_basestring(content)},"role":{encode_basestring(role)}}}'
                    for role, content in messages)
    return hashlib.sha256(f"{head}{body}{tail}".encode("utf-8")).hexdigest()


# Each thread's last (config, messages, digest): a transport that hashes the
# request Gateway.complete has just hashed gets the digest without a second
# encoding.
_last_digest = threading.local()


def request_digest(config: ModelConfig, messages: Sequence[ChatMessage]) -> str:
    """Stable hash over exactly the fields that determine the model's reply.

    A repeat of the same thread's previous call returns its digest without
    hashing again.  The repeat must pass the very same ``config`` object: equal
    configs can hash differently (``temperature`` 1 and 1.0 encode apart), and
    a frozen config's identity fixes its values.  Messages are compared by
    value, so a list changed between calls is hashed again.
    """
    key = tuple((m.role, m.content) for m in messages)
    last = getattr(_last_digest, "entry", None)
    if last is not None and last[0] is config and last[1] == key:
        return last[2]
    digest = _canonical_digest(config, key)
    _last_digest.entry = (config, key, digest)
    return digest


def resolve_api_key(explicit: str | None = None) -> str:
    key = explicit or os.environ.get(ENV_VAR) or os.environ.get(FALLBACK_ENV_VAR)
    if not key:
        raise AuthError(f"no API credential: set {ENV_VAR} (or {FALLBACK_ENV_VAR})")
    return key


def load_fixture(path: str | Path) -> list[dict[str, str]]:
    """The ``{digest, response}`` entries of a fixture, read after any leading
    UTF-8 byte-order mark; anything unreadable raises FixtureCorrupt."""
    path = Path(path)
    try:
        raw = json.loads(read_utf8(path))
    except DecodeError as exc:
        raise FixtureCorrupt(str(exc)) from exc
    except (OSError, ValueError) as exc:
        raise FixtureCorrupt(f"{path}: {exc}") from exc
    if not isinstance(raw, list):
        raise FixtureCorrupt(f"{path}: fixture must be a JSON array")
    entries: list[dict[str, str]] = []
    for position, entry in enumerate(raw):
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("digest"), str)
                or not isinstance(entry.get("response"), str)):
            raise FixtureCorrupt(f"{path}: entry {position} must be {{digest, response}}")
        if not _HEX.fullmatch(entry["digest"]):
            raise FixtureCorrupt(f"{path}: entry {position} digest is not a hex string")
        entries.append({"digest": entry["digest"], "response": entry["response"]})
    return entries


def replace_file(path: str | Path, data: bytes) -> None:
    """Make ``data`` the whole of the file at ``path``, creating its directory.

    The bytes go to ``path.tmp``, which is then renamed over ``path``, so a
    write cut short by a crash or a full disk leaves ``path`` as it was, or
    absent, and never torn.  A failed write or rename removes ``path.tmp``
    and raises an OSError that names ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc


def save_fixture(path: str | Path, entries: Sequence[dict[str, str]]) -> None:
    text = json.dumps(list(entries), indent=2, ensure_ascii=False) + "\n"
    replace_file(path, text.encode("utf-8"))


# Enough to hold a fixture's closing bracket and the whitespace around it.
_TAIL_BYTES = 64
# What every append leaves at the end of a fixture, after its last entry.
_CLOSE = b"\n]\n"


def _fixture_end(fd: int, path: Path) -> tuple[int, bytes]:
    """Offset at which the next entry of the open fixture ``fd`` goes, and
    the separator before it.

    Reads at most the last ``_TAIL_BYTES`` bytes, which must close a JSON
    array: ``[`` or ``}`` before the final ``]``, else :class:`FixtureCorrupt`.
    """
    size = os.fstat(fd).st_size
    start = max(0, size - _TAIL_BYTES)
    tail = os.pread(fd, size - start, start).rstrip()
    head = tail[:-1].rstrip()
    if not tail.endswith(b"]") or not head.endswith((b"[", b"}")):
        raise FixtureCorrupt(f"{path}: fixture does not end with a JSON array")
    return start + len(head), (b"\n" if head.endswith(b"[") else b",\n")


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    while data:
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written


class _FixtureAppender:
    r"""Adds entries to one fixture, remembering where its array closes.

    The first append checks the file's tail with :func:`_fixture_end` (a
    missing file is created by :func:`replace_file`, so a cut first write
    leaves no torn fixture) and writes the entry over the closing
    bracket and the whitespace before it (with no comma when the array is
    empty), then truncates.  So it extends any fixture :func:`load_fixture`
    reads, whether :func:`save_fixture` or earlier appends wrote it.  It
    remembers the offset of the ``\n]\n`` it wrote, so every later append is
    one positioned write of ``,\n{entry}\n]\n`` there: longer than what it
    covers, so nothing is left to truncate.  Each entry is one line, as
    ``json.dumps(entry, ensure_ascii=False)`` writes it.  The file stays open
    from the first append that opens it until :meth:`close`.  The offset
    stays right only while this appender is the file's one writer; the
    caller serializes appends.  A failed append closes the file and forgets
    the offset, so the next one opens it and checks the tail again, and
    raises an OSError that names the fixture, as :func:`replace_file` does.
    """

    def __init__(self, path: str | Path) -> None:
        self._fd: int | None = None
        self._end: int | None = None
        self.path = Path(path)

    def append(self, digest: str, response: str) -> None:
        line = (f'{{"digest": {encode_basestring(digest)}, '
                f'"response": {encode_basestring(response)}}}').encode("utf-8")
        if self._end is None and not self.path.exists():
            data = b"[\n" + line + _CLOSE
            replace_file(self.path, data)
            self._end = len(data) - len(_CLOSE)
            return
        try:
            if self._fd is None:
                self._fd = os.open(self.path, os.O_RDWR)
            if self._end is None:
                at, separator = _fixture_end(self._fd, self.path)
                data = separator + line + _CLOSE
                _pwrite_all(self._fd, data, at)
                os.ftruncate(self._fd, at + len(data))
            else:
                at, data = self._end, b",\n" + line + _CLOSE
                _pwrite_all(self._fd, data, at)
        except FixtureCorrupt:
            self.close()
            raise
        except OSError as exc:
            self.close()
            raise OSError(exc.errno, exc.strerror or str(exc), str(self.path)) from exc
        self._end = at + len(data) - len(_CLOSE)

    def close(self) -> None:
        """Close the file and forget its end; a later append checks the tail again."""
        fd, self._fd, self._end = self._fd, None, None
        if fd is not None:
            os.close(fd)

    # An appender dropped without close() does not leak its descriptor.
    __del__ = close


class _NetworkFailure(Exception):
    """Internal signal: the HTTP layer failed before producing a response."""


def _requests_post(url: str, headers: dict[str, str], body: dict, timeout: float):
    # Imported here, not at the top: only live runs send over HTTP,
    # and the HTTP stack would double the start-up time of every offline command.
    import requests

    try:
        response = requests.post(url, headers=headers, json=body, timeout=timeout)
    except requests.RequestException as exc:
        raise _NetworkFailure(str(exc)) from exc
    try:
        payload = response.json()
    except ValueError:
        payload = None
    return response.status_code, payload


class LiveTransport:
    """Sends real HTTP requests with exponential backoff on transient failures."""

    kind = "live"

    def __init__(self, api_key: str | None = None,
                 http_post: Callable | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.api_key = resolve_api_key(api_key)
        self._http_post = http_post or _requests_post
        self._sleep = sleep

    def send(self, config: ModelConfig, messages: Sequence[ChatMessage],
             context: str | None = None) -> str:
        url = f"{config.endpoint_url.rstrip('/')}/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"}
        body = {
            "model": config.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "max_tokens": config.max_tokens,
            "temperature": config.temperature,
        }
        where = f" ({context})" if context else ""
        last_failure = ""
        for attempt in range(1, config.max_attempts + 1):
            try:
                status, payload = self._http_post(url, headers, body, config.timeout)
            except _NetworkFailure as exc:
                last_failure = f"network failure: {exc}"
                status = None
            else:
                if status in (401, 403):
                    raise AuthError(f"endpoint rejected credential (HTTP {status}){where}")
                if status == 429:
                    last_failure = "HTTP 429"
                elif status == 408 or status >= 500:
                    last_failure = f"HTTP {status}"
                elif status == 200:
                    return _extract_text(payload, where, config.max_tokens)
                else:
                    # A rerun sends the same request, so it is refused again.
                    raise RequestRejected(f"endpoint rejected the request (HTTP {status}){where}"
                                          f"{_error_excerpt(payload)}")
            if attempt < config.max_attempts:
                self._sleep(config.backoff_base * (2 ** (attempt - 1)))
        if last_failure == "HTTP 429":
            raise RateLimited(f"rate limited after {config.max_attempts} attempts{where}")
        raise TransportError(f"{last_failure} after {config.max_attempts} attempts{where}")


def _error_excerpt(payload) -> str:
    """``: `` and the first 200 characters of the body's ``error.message``, if any."""
    try:
        message = " ".join(payload["error"]["message"].split())
    except (TypeError, KeyError, AttributeError):
        return ""
    return f": {message[:200]}" if message else ""


def _extract_text(payload, where: str, max_tokens: int) -> str:
    """The reply's text; a reply cut at ``max_tokens`` raises ReplyTruncated,
    and one the endpoint's content filter stopped raises RequestRejected."""
    if not isinstance(payload, dict):
        raise MalformedResponse(f"response body is not a JSON object{where}")
    choices = payload.get("choices")
    if not isinstance(choices, list) or not choices:
        raise MalformedResponse(f"response has no choices{where}")
    choice = choices[0] if isinstance(choices[0], dict) else {}
    # The same request would be stopped again, so neither stop is retried,
    # and the gateway caches nothing.
    finish = choice.get("finish_reason")
    if finish == "length":
        raise ReplyTruncated(f"reply stopped at the max_tokens limit of {max_tokens}{where}")
    if finish == "content_filter":
        raise RequestRejected(f"the endpoint's content filter stopped the reply{where}")
    message = choice.get("message")
    content = message.get("content") if isinstance(message, dict) else None
    if not isinstance(content, str) or not content.strip():
        raise MalformedResponse(f"response choice has no content{where}")
    return content.strip()


class ReplayTransport:
    """Serves responses from a fixture file; never touches the network."""

    kind = "replay"

    def __init__(self, fixture_path: str | Path) -> None:
        self.fixture_path = Path(fixture_path)
        self._responses: dict[str, str] = {}
        for entry in load_fixture(self.fixture_path):
            self._responses[entry["digest"]] = entry["response"]

    def send(self, config: ModelConfig, messages: Sequence[ChatMessage],
             context: str | None = None) -> str:
        digest = request_digest(config, messages)
        try:
            return self._responses[digest]
        except KeyError:
            where = f" for {context}" if context else ""
            raise FixtureMiss(
                f"no fixture entry{where} (digest {digest[:12]}…) in {self.fixture_path.name}; "
                "prompts have drifted from the recorded session"
            ) from None


class Gateway:
    """Caching front end over a transport; safe for concurrent use.

    With a ``cache_path``, the cache starts from that fixture and every reply
    the transport returns is appended to it before ``complete`` returns, so
    a rerun after a crash gets every finished request from the cache, and a
    :class:`ReplayTransport` over the file reruns the whole analysis
    offline.  A corrupt cache is refused here, before any request is sent.
    """

    def __init__(self, config: ModelConfig, transport,
                 cache_path: str | Path | None = None) -> None:
        self.config = config
        self.transport = transport
        self.cache_path = Path(cache_path) if cache_path else None
        self._lock = threading.Lock()
        self._cache: dict[str, str] = {}
        self._cache_log = _FixtureAppender(self.cache_path) if self.cache_path else None
        if self.cache_path and self.cache_path.exists():
            for entry in load_fixture(self.cache_path):
                self._cache[entry["digest"]] = entry["response"]

    def complete(self, messages: Sequence[ChatMessage],
                 context: str | None = None) -> Completion:
        if not messages:
            raise ValueError("messages must be non-empty")
        digest = request_digest(self.config, messages)
        with self._lock:
            if digest in self._cache:
                return Completion(request_digest=digest, text=self._cache[digest],
                                  transport="cache")
        text = self.transport.send(self.config, messages, context)
        with self._lock:
            # A concurrent request for the same digest may have cached it first.
            if digest not in self._cache:
                self._cache[digest] = text
                if self._cache_log:
                    self._cache_log.append(digest, text)
        return Completion(request_digest=digest, text=text, transport=self.transport.kind)

    def close(self) -> None:
        """Close the response cache; a later append opens it again and checks
        the tail."""
        with self._lock:
            if self._cache_log:
                self._cache_log.close()
