"""Transport behavior: digests, credentials, retries, fixtures, and caching."""

from __future__ import annotations

import errno
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thematica import gateway as gateway_module
from thematica.errors import (
    AuthError,
    FixtureCorrupt,
    FixtureMiss,
    MalformedResponse,
    RateLimited,
    RequestRejected,
    TransportError,
)
from thematica.gateway import (
    ENV_VAR,
    FALLBACK_ENV_VAR,
    ROLES,
    ChatMessage,
    Gateway,
    LiveTransport,
    ModelConfig,
    ReplayTransport,
    load_fixture,
    request_digest,
    resolve_api_key,
    save_fixture,
)

CONFIG = ModelConfig()
MESSAGES = (
    ChatMessage("system", "You are a careful analyst."),
    ChatMessage("user", "Summarize page 1."),
)


def ok_payload(text: str = "fine") -> dict:
    return {"choices": [{"message": {"content": text}}]}


class StubHTTP:
    """Scripted http_post double; records calls, pops scripted responses."""

    def __init__(self, script: list) -> None:
        self.script = list(script)
        self.calls: list[tuple[str, dict, dict]] = []

    def __call__(self, url: str, headers: dict, body: dict, timeout: float):
        self.calls.append((url, headers, body))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def live(stub: StubHTTP, sleeps: list[float] | None = None, **config_kwargs) -> tuple:
    config = ModelConfig(**config_kwargs) if config_kwargs else CONFIG
    recorded: list[float] = [] if sleeps is None else sleeps
    transport = LiveTransport(api_key="k", http_post=stub, sleep=recorded.append)
    return transport, config, recorded


def test_model_config_defaults_match_run_settings() -> None:
    assert CONFIG.model_id == "gpt-4-turbo"
    assert CONFIG.temperature == 0.3
    assert CONFIG.max_tokens == 1000


def test_model_config_validates_ranges() -> None:
    with pytest.raises(ValueError):
        ModelConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(max_tokens=0)
    with pytest.raises(ValueError):
        ModelConfig(parallelism=9)
    with pytest.raises(ValueError):
        ModelConfig(max_attempts=0)
    with pytest.raises(ValueError):
        ModelConfig(backoff_base=-1.0)


def test_chat_message_validates_role_and_content() -> None:
    with pytest.raises(ValueError):
        ChatMessage("operator", "hello")
    with pytest.raises(ValueError):
        ChatMessage("user", "")


def test_request_digest_is_stable_and_sensitive() -> None:
    base = request_digest(CONFIG, MESSAGES)
    assert base == request_digest(CONFIG, MESSAGES)
    assert len(base) == 64
    assert base != request_digest(CONFIG, MESSAGES[:1])
    assert base != request_digest(ModelConfig(temperature=0.4), MESSAGES)
    assert base != request_digest(ModelConfig(max_tokens=999), MESSAGES)
    assert base != request_digest(ModelConfig(model_id="other"), MESSAGES)
    reordered = (MESSAGES[1], MESSAGES[0])
    assert base != request_digest(CONFIG, reordered)


def test_digest_ignores_endpoint_and_timeout() -> None:
    moved = ModelConfig(endpoint_url="https://example.test/v9", timeout=5.0)
    assert request_digest(moved, MESSAGES) == request_digest(CONFIG, MESSAGES)


def reference_digest(config: ModelConfig, messages) -> str:
    payload = {"model": config.model_id, "temperature": config.temperature,
               "max_tokens": config.max_tokens,
               "messages": [{"role": m.role, "content": m.content} for m in messages]}
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_equal_configs_that_encode_apart_get_their_own_digests() -> None:
    integer, real = ModelConfig(temperature=1), ModelConfig(temperature=1.0)
    assert integer == real
    for config in (integer, real, integer, real):
        assert request_digest(config, MESSAGES) == reference_digest(config, MESSAGES)
    assert request_digest(integer, MESSAGES) != request_digest(real, MESSAGES)


# Characters that JSON escapes, that JavaScript-minded encoders escape
# (U+2028, U+2029), and that UTF-8 writes in two and in four bytes.
_AWKWARD = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "ü", "\U0001f600"]
_UTF8_TEXTS = st.text(st.characters(codec="utf-8") | st.sampled_from(_AWKWARD))
# With a lone surrogate too, which no UTF-8 text can hold.
_ANY_TEXTS = st.text(st.characters() | st.sampled_from([*_AWKWARD, "\ud800"]),
                     min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(messages=st.lists(st.tuples(st.sampled_from(ROLES), _ANY_TEXTS), max_size=4),
       temperature=st.sampled_from([0, 1, 1.0, True, False, 0.3, 2.0]),
       model_id=st.sampled_from(["gpt-4-turbo", "modèle-ünï 😀"]) | _ANY_TEXTS,
       max_tokens=st.integers(1, 10 ** 6))
@example(messages=[("user", "lone \ud800 surrogate")], temperature=1, model_id="gpt-4-turbo",
         max_tokens=1000)
def test_request_digest_equals_the_digest_of_the_whole_request_dumped_at_once(
        messages, temperature, model_id: str, max_tokens: int) -> None:
    config = ModelConfig(model_id=model_id, temperature=temperature, max_tokens=max_tokens)
    chat = [ChatMessage(role, content) for role, content in messages]
    try:
        expected = reference_digest(config, chat)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            request_digest(config, chat)
        return
    assert request_digest(config, chat) == expected


def test_a_message_list_changed_between_calls_is_hashed_again() -> None:
    messages = list(MESSAGES)
    assert request_digest(CONFIG, messages) == reference_digest(CONFIG, messages)
    messages[1] = ChatMessage("user", "Summarize page 2.")
    assert request_digest(CONFIG, messages) == reference_digest(CONFIG, messages)
    messages.append(ChatMessage("assistant", "Done."))
    assert request_digest(CONFIG, messages) == reference_digest(CONFIG, messages)


def test_threads_hashing_interleaved_requests_get_their_own_digests() -> None:
    requests = [(ModelConfig(max_tokens=100 + worker),
                 (MESSAGES[0], ChatMessage("user", f"Summarize page {page}.")))
                for worker in range(6) for page in range(3)]
    expected = [reference_digest(config, messages) for config, messages in requests]

    def hash_all(offset: int) -> list[bool]:
        # Each request twice in a row: the second is answered from the memo.
        order = [(offset + step // 2) % len(requests) for step in range(200 * len(requests))]
        return [request_digest(*requests[index]) == expected[index] for index in order]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(hash_all, range(6), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert all(all(result) for result in results)


def test_resolve_api_key_prefers_primary_env(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv(ENV_VAR, "primary")
    monkeypatch.setenv(FALLBACK_ENV_VAR, "fallback")
    assert resolve_api_key() == "primary"
    monkeypatch.delenv(ENV_VAR)
    assert resolve_api_key() == "fallback"
    assert resolve_api_key("explicit") == "explicit"
    monkeypatch.delenv(FALLBACK_ENV_VAR)
    with pytest.raises(AuthError, match=ENV_VAR):
        resolve_api_key()


def test_live_transport_posts_expected_request_shape() -> None:
    stub = StubHTTP([(200, ok_payload("reply text"))])
    transport, config, _ = live(stub)
    assert transport.send(config, MESSAGES) == "reply text"
    url, headers, body = stub.calls[0]
    assert url.endswith("/chat/completions")
    assert headers["Authorization"] == "Bearer k"
    assert body["model"] == "gpt-4-turbo"
    assert body["temperature"] == 0.3
    assert body["max_tokens"] == 1000
    assert body["messages"][0] == {"role": "system", "content": "You are a careful analyst."}


def test_retry_backoff_doubles_then_succeeds() -> None:
    stub = StubHTTP([(500, None), (503, None), (200, ok_payload("eventually"))])
    transport, config, sleeps = live(stub)
    assert transport.send(config, MESSAGES) == "eventually"
    assert sleeps == [1.0, 2.0]
    assert len(stub.calls) == 3


def test_rate_limit_exhaustion_raises_rate_limited() -> None:
    stub = StubHTTP([(429, None)] * 3)
    transport, _, sleeps = live(stub)
    config = ModelConfig(max_attempts=3, backoff_base=0.5)
    with pytest.raises(RateLimited, match="after 3 attempts"):
        transport.send(config, MESSAGES, context="page 4")
    assert sleeps == [0.5, 1.0]


def test_auth_failure_is_immediate() -> None:
    stub = StubHTTP([(401, None)])
    transport, config, sleeps = live(stub)
    with pytest.raises(AuthError):
        transport.send(config, MESSAGES)
    assert sleeps == []
    assert len(stub.calls) == 1


@pytest.mark.parametrize("status, error, attempts", [
    (204, RequestRejected, 1),
    (301, RequestRejected, 1),
    (302, RequestRejected, 1),
    (400, RequestRejected, 1),
    (404, RequestRejected, 1),
    (408, TransportError, 3),
    (413, RequestRejected, 1),
    (422, RequestRejected, 1),
    (429, RateLimited, 3),
    (500, TransportError, 3),
    (503, TransportError, 3),
])
def test_each_http_status_gets_its_error_attempts_and_sleeps(
        status: int, error: type, attempts: int) -> None:
    message = "This model's maximum context length is 128000 tokens.\n" + "x" * 300
    stub = StubHTTP([(status, {"error": {"message": message}})] * 3)
    transport, _, sleeps = live(stub)
    with pytest.raises(error) as raised:
        transport.send(ModelConfig(max_attempts=3, backoff_base=0.5), MESSAGES,
                       context="page 1 code extraction")
    assert type(raised.value) is error
    assert len(stub.calls) == attempts
    assert sleeps == [0.5, 1.0][:attempts - 1]
    if error is RequestRejected:
        excerpt = " ".join(message.split())[:200]
        assert str(raised.value) == (f"endpoint rejected the request (HTTP {status}) "
                                     f"(page 1 code extraction): {excerpt}")


@pytest.mark.parametrize("body", [None, {}, {"error": "bad"}, {"error": {"message": 7}},
                                  {"error": {"message": "  "}}])
def test_a_rejection_without_an_error_message_names_only_the_status(body) -> None:
    transport, config, _ = live(StubHTTP([(400, body)]))
    with pytest.raises(RequestRejected) as raised:
        transport.send(config, MESSAGES)
    assert str(raised.value) == "endpoint rejected the request (HTTP 400)"


def test_network_failures_retry_then_raise() -> None:
    from thematica.gateway import _NetworkFailure

    stub = StubHTTP([_NetworkFailure("refused")] * 2)
    transport, _, sleeps = live(stub)
    config = ModelConfig(max_attempts=2)
    with pytest.raises(TransportError, match="network failure"):
        transport.send(config, MESSAGES)
    assert sleeps == [1.0]


def test_malformed_bodies_raise_malformed_response() -> None:
    for payload in (None, {}, {"choices": []}, {"choices": [{"message": {}}]},
                    {"choices": [{"message": {"content": "   "}}]}):
        stub = StubHTTP([(200, payload)])
        transport, config, _ = live(stub)
        with pytest.raises(MalformedResponse):
            transport.send(config, MESSAGES)


class FakePost:
    """Stands in for ``requests.post``; records calls, pops scripted outcomes."""

    def __init__(self, script: list) -> None:
        self.script = list(script)
        self.calls: list[dict] = []

    def __call__(self, url: str, **kwargs):
        import requests

        self.calls.append({"url": url, **kwargs})
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        status, body = step
        response = requests.Response()
        response.status_code = status
        response._content = body
        return response


def requests_live(monkeypatch: pytest.MonkeyPatch, script: list) -> tuple:
    """A LiveTransport without ``http_post``, so it sends through ``requests``."""
    import requests

    fake = FakePost(script)
    monkeypatch.setattr(requests, "post", fake)
    sleeps: list[float] = []
    return LiveTransport(api_key="k", sleep=sleeps.append), fake, sleeps


def test_default_http_post_returns_the_json_reply(monkeypatch: pytest.MonkeyPatch) -> None:
    transport, fake, sleeps = requests_live(
        monkeypatch, [(200, json.dumps(ok_payload("live reply")).encode())])
    config = ModelConfig(timeout=7.0)
    assert transport.send(config, MESSAGES) == "live reply"
    (call,) = fake.calls
    assert call["url"] == "https://api.openai.com/v1/chat/completions"
    assert call["headers"] == {"Authorization": "Bearer k"}
    assert call["json"]["messages"][1] == {"role": "user", "content": "Summarize page 1."}
    assert call["timeout"] == 7.0
    assert sleeps == []


def test_default_http_post_reads_a_non_json_body_as_no_payload(
        monkeypatch: pytest.MonkeyPatch) -> None:
    from thematica.gateway import _requests_post

    transport, fake, _ = requests_live(monkeypatch, [(200, b"<html>busy</html>")] * 2)
    assert _requests_post("https://example.test/chat/completions", {}, {}, 1.0) == (200, None)
    with pytest.raises(MalformedResponse, match="not a JSON object"):
        transport.send(CONFIG, MESSAGES)
    assert len(fake.calls) == 2


def test_default_http_post_retries_request_exceptions_as_network_failures(
        monkeypatch: pytest.MonkeyPatch) -> None:
    import requests

    transport, fake, sleeps = requests_live(
        monkeypatch, [requests.ConnectionError("connection refused")] * 3)
    with pytest.raises(TransportError, match="network failure: connection refused after 3"):
        transport.send(ModelConfig(max_attempts=3), MESSAGES)
    assert len(fake.calls) == 3
    assert sleeps == [1.0, 2.0]


def test_fixture_save_load_round_trip(tmp_path: Path) -> None:
    entries = [{"digest": "a" * 64, "response": "first"},
               {"digest": "b" * 64, "response": "second"}]
    path = tmp_path / "nested" / "fixture.json"
    save_fixture(path, entries)
    assert load_fixture(path) == entries


def test_fixture_corruption_cases(tmp_path: Path) -> None:
    path = tmp_path / "fixture.json"
    for payload in ('{"not": "a list"}', "[{}]", '[{"digest": "xyz", "response": "r"}]',
                    '[{"digest": "' + "a" * 64 + '"}]', "not json"):
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(FixtureCorrupt):
            load_fixture(path)
    with pytest.raises(FixtureCorrupt):
        load_fixture(tmp_path / "missing.json")


def test_replay_transport_serves_recorded_response(tmp_path: Path) -> None:
    digest = request_digest(CONFIG, MESSAGES)
    path = tmp_path / "session.json"
    save_fixture(path, [{"digest": digest, "response": "recorded reply"}])
    transport = ReplayTransport(path)
    assert transport.kind == "replay"
    assert transport.send(CONFIG, MESSAGES) == "recorded reply"


def test_replay_transport_miss_names_context_and_fixture(tmp_path: Path) -> None:
    path = tmp_path / "session.json"
    save_fixture(path, [{"digest": "c" * 64, "response": "other"}])
    transport = ReplayTransport(path)
    with pytest.raises(FixtureMiss) as err:
        transport.send(CONFIG, MESSAGES, context="page 2 code extraction")
    assert "page 2 code extraction" in str(err.value)
    assert "session.json" in str(err.value)
    assert "drifted" in str(err.value)


def test_a_live_gateways_cache_replays_what_it_sent(tmp_path: Path) -> None:
    path = tmp_path / "response_cache.json"
    stub = StubHTTP([(200, ok_payload("captured"))])
    gateway = Gateway(CONFIG, LiveTransport(api_key="k", http_post=stub), cache_path=path)
    assert gateway.complete(MESSAGES).text == "captured"
    entries = load_fixture(path)
    assert len(entries) == 1
    assert entries[0]["digest"] == request_digest(CONFIG, MESSAGES)
    replay = ReplayTransport(path)
    assert replay.send(CONFIG, MESSAGES) == "captured"


def test_a_corrupt_cache_is_refused_before_sending(tmp_path: Path) -> None:
    path = tmp_path / "response_cache.json"
    path.write_text('[{"digest": "xyz", "response": "r"}]', encoding="utf-8")
    stub = StubHTTP([])
    with pytest.raises(FixtureCorrupt):
        Gateway(CONFIG, LiveTransport(api_key="k", http_post=stub), cache_path=path)
    assert stub.calls == []


def test_gateway_caches_repeat_requests(tmp_path: Path) -> None:
    digest = request_digest(CONFIG, MESSAGES)
    fixture = tmp_path / "session.json"
    save_fixture(fixture, [{"digest": digest, "response": "from fixture"}])
    cache_path = tmp_path / "out" / "cache.json"
    gateway = Gateway(CONFIG, ReplayTransport(fixture), cache_path=cache_path)

    first = gateway.complete(MESSAGES)
    assert (first.text, first.transport) == ("from fixture", "replay")
    second = gateway.complete(MESSAGES)
    assert (second.text, second.transport) == ("from fixture", "cache")
    cached = load_fixture(cache_path)
    assert cached == [{"digest": digest, "response": "from fixture"}]


def test_gateway_preloads_cache_from_disk(tmp_path: Path) -> None:
    digest = request_digest(CONFIG, MESSAGES)
    cache_path = tmp_path / "cache.json"
    save_fixture(cache_path, [{"digest": digest, "response": "warm"}])
    empty_fixture = tmp_path / "session.json"
    save_fixture(empty_fixture, [])
    gateway = Gateway(CONFIG, ReplayTransport(empty_fixture), cache_path=cache_path)
    completion = gateway.complete(MESSAGES)
    assert (completion.text, completion.transport) == ("warm", "cache")


def test_gateway_appends_each_new_reply_to_the_cache_once(tmp_path: Path) -> None:
    other = (ChatMessage("user", "Summarize page 2."),)
    fixture = tmp_path / "session.json"
    save_fixture(fixture, [{"digest": request_digest(CONFIG, MESSAGES), "response": "one"},
                           {"digest": request_digest(CONFIG, other), "response": "two"}])
    cache_path = tmp_path / "out" / "cache.json"
    gateway = Gateway(CONFIG, ReplayTransport(fixture), cache_path=cache_path)
    gateway.complete(MESSAGES)
    first = cache_path.read_bytes()
    gateway.complete(MESSAGES)
    assert cache_path.read_bytes() == first
    gateway.complete(other)
    grown = cache_path.read_bytes()
    # Written in place: the old entries are kept byte for byte.
    assert grown.startswith(first[:first.rindex(b"}") + 1])
    assert [entry["response"] for entry in load_fixture(cache_path)] == ["one", "two"]


class EchoTransport:
    kind = "replay"

    def send(self, config, messages, context=None) -> str:
        return f"reply to {messages[-1].content}"


def test_concurrent_completions_append_every_reply_once(tmp_path: Path) -> None:
    cache_path = tmp_path / "cache.json"
    gateway = Gateway(CONFIG, EchoTransport(), cache_path=cache_path)
    prompts = [f"page {number}" for number in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            # Each prompt twice, so threads race to cache the same digest.
            list(pool.map(lambda text: gateway.complete((ChatMessage("user", text),)),
                          prompts + prompts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    entries = load_fixture(cache_path)
    assert sorted(entry["response"] for entry in entries) == sorted(
        f"reply to {text}" for text in prompts)


def append_fixture_entry(path: Path, entry: dict[str, str]) -> None:
    """One append through a fresh appender, which checks the file's tail first."""
    gateway_module._FixtureAppender(path).append(entry["digest"], entry["response"])


def test_append_extends_empty_and_indented_fixtures(tmp_path: Path) -> None:
    new = [{"digest": "1" * 64, "response": "first ünïcode"},
           {"digest": "2" * 64, "response": "second\nline ] with a bracket"}]
    empty = tmp_path / "empty.json"
    save_fixture(empty, [])
    assert empty.read_text(encoding="utf-8") == "[]\n"
    indented = tmp_path / "indented.json"
    old = [{"digest": "a" * 64, "response": "old one"}, {"digest": "b" * 64, "response": "}"}]
    save_fixture(indented, old)
    missing = tmp_path / "nested" / "missing.json"
    for path in (empty, indented, missing):
        for entry in new:
            append_fixture_entry(path, entry)
            json.loads(path.read_text(encoding="utf-8"))
    assert load_fixture(empty) == new
    assert load_fixture(indented) == old + new
    assert load_fixture(missing) == new
    # One line per appended entry.
    assert empty.read_text(encoding="utf-8").count("\n") == len(new) + 2
    # A short entry over a long run of whitespace leaves no stale bytes.
    padded = tmp_path / "padded.json"
    padded.write_text("[" + " " * 58 + "]\n", encoding="utf-8")
    append_fixture_entry(padded, {"digest": "c" * 16, "response": ""})
    assert load_fixture(padded) == [{"digest": "c" * 16, "response": ""}]


def test_gateway_appends_keep_existing_fixtures_valid_after_every_reply(tmp_path: Path) -> None:
    old = [{"digest": "a" * 64, "response": "old one"}, {"digest": "b" * 64, "response": "}"}]
    indented = tmp_path / "indented.json"
    save_fixture(indented, old)
    # Whitespace on both sides of the closing bracket, most of the 64 bytes read.
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(old, indent=1)[:-1] + " \n" * 12 + "]" + " \t\n" * 10,
                      encoding="utf-8")
    gateways = [Gateway(CONFIG, EchoTransport(), cache_path=path) for path in (indented, padded)]
    new = []
    for number in range(5):
        messages = (ChatMessage("user", f"page {number} ünïcode ] {'x' * number}"),)
        texts = [gateway.complete(messages).text for gateway in gateways]
        new.append({"digest": request_digest(CONFIG, messages), "response": texts[0]})
        for path in (indented, padded):
            assert load_fixture(path) == old + new
    # Each appended entry is one line after the old content.
    assert indented.read_text(encoding="utf-8").endswith(
        "}" + "".join(f",\n{json.dumps(entry, ensure_ascii=False)}" for entry in new) + "\n]\n")


def test_an_append_after_a_failed_write_checks_the_tail_again(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    path = tmp_path / "cache.json"
    gateway = Gateway(CONFIG, EchoTransport(), cache_path=path)
    gateway.complete((ChatMessage("user", "first"),))
    write = gateway_module._pwrite_all

    def full_disk(fd: int, data: bytes, offset: int) -> None:
        write(fd, data[:300], offset)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(gateway_module, "_pwrite_all", full_disk)
    with pytest.raises(OSError):
        gateway.complete((ChatMessage("user", "second " + "x" * 500),))
    monkeypatch.setattr(gateway_module, "_pwrite_all", write)
    damaged = path.read_bytes()
    # The half-written entry is longer than the next one, which would leave
    # its rest behind the new closing bracket; the tail check refuses it.
    with pytest.raises(FixtureCorrupt):
        gateway.complete((ChatMessage("user", "third"),))
    assert path.read_bytes() == damaged


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(_UTF8_TEXTS, _UTF8_TEXTS), min_size=1, max_size=3))
def test_each_appended_entry_is_the_line_json_dumps_writes(
        tmp_path_factory: pytest.TempPathFactory, entries) -> None:
    path = tmp_path_factory.mktemp("fixture") / "cache.json"
    appender = gateway_module._FixtureAppender(path)
    for digest, response in entries:
        appender.append(digest, response)
    appender.close()
    lines = [json.dumps({"digest": digest, "response": response}, ensure_ascii=False)
             for digest, response in entries]
    assert path.read_text(encoding="utf-8") == "[\n" + ",\n".join(lines) + "\n]\n"


def test_a_failed_append_closes_the_fixture_and_the_next_one_reopens_it(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch, fixture_opens: dict) -> None:
    path = tmp_path / "cache.json"
    tail_reads: list[Path] = []
    check = gateway_module._fixture_end

    def counting_check(fd: int, fixture: Path):
        tail_reads.append(fixture)
        return check(fd, fixture)

    monkeypatch.setattr(gateway_module, "_fixture_end", counting_check)
    gateway = Gateway(CONFIG, EchoTransport(), cache_path=path)
    for text in ("first", "second", "third"):
        gateway.complete((ChatMessage("user", text),))
    # Created by a rename, then opened once for the appends after it.
    assert [opened for opened, _ in fixture_opens["opened"]] == [path]
    assert tail_reads == []
    (_, fd), = fixture_opens["opened"]
    write = gateway_module._pwrite_all

    def full_disk(fd: int, data: bytes, offset: int) -> None:
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(gateway_module, "_pwrite_all", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        gateway.complete((ChatMessage("user", "fourth"),))
    assert fd in fixture_opens["closed"]
    monkeypatch.setattr(gateway_module, "_pwrite_all", write)
    gateway.complete((ChatMessage("user", "fifth"),))
    assert [opened for opened, _ in fixture_opens["opened"]] == [path, path]
    assert tail_reads == [path]
    gateway.complete((ChatMessage("user", "sixth"),))
    fixture_opens["closed"].clear()
    gateway.close()
    assert fixture_opens["opened"][1][1] in fixture_opens["closed"]
    assert [entry["response"] for entry in load_fixture(path)] == [
        f"reply to {text}" for text in ("first", "second", "third", "fifth", "sixth")]


def test_append_refuses_a_file_that_is_not_an_array(tmp_path: Path) -> None:
    entry = {"digest": "a" * 64, "response": "r"}
    path = tmp_path / "fixture.json"
    for payload in ('{"not": "a list"}', "]\n", "not json", "[1, 2" + " " * 80 + "]"):
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(FixtureCorrupt):
            append_fixture_entry(path, entry)
        assert path.read_text(encoding="utf-8") == payload


def test_gateway_rejects_empty_message_list(tmp_path: Path) -> None:
    fixture = tmp_path / "session.json"
    save_fixture(fixture, [])
    gateway = Gateway(CONFIG, ReplayTransport(fixture))
    with pytest.raises(ValueError):
        gateway.complete(())


def test_fixture_file_is_human_readable_json(tmp_path: Path) -> None:
    path = tmp_path / "session.json"
    save_fixture(path, [{"digest": "e" * 64, "response": "text with ünïcode"}])
    raw = path.read_text(encoding="utf-8")
    assert raw.endswith("\n")
    assert "ünïcode" in raw
    assert json.loads(raw)[0]["digest"] == "e" * 64
