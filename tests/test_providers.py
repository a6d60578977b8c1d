"""Chat and translation backends, including HTTP failure handling."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
import requests

import totsim.providers as providers_module
from totsim.errors import ConfigError, ProviderError
from totsim.providers import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    CannedResponseProvider,
    ChatTranslator,
    DeterministicMockProvider,
    HttpChatProvider,
    IdentityTranslator,
    MappingTranslator,
    ScriptedProvider,
    request_hash,
)
from totsim.util import write_json


def test_request_hash_is_stable_and_sensitive() -> None:
    first = request_hash("prompt", 0.5)
    assert first == request_hash("prompt", 0.5)
    assert first != request_hash("prompt", 0.3)
    assert first != request_hash("other", 0.5)
    canonical = json.dumps(
        {"prompt": "prompt", "temperature": 0.5}, sort_keys=True, ensure_ascii=False
    )
    assert first == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_mock_provider_is_a_pure_function() -> None:
    provider = DeterministicMockProvider()
    prompt = "Summarize the following article about rivers and their long history."
    assert provider.complete(prompt, 0.5) == provider.complete(prompt, 0.5)
    assert provider.complete(prompt, 0.5) != provider.complete(prompt, 0.3)
    assert provider.complete(prompt, 0.5) != provider.complete(prompt + "!", 0.5)
    assert (
        DeterministicMockProvider(name="other").complete(prompt, 0.5)
        != provider.complete(prompt, 0.5)
    )


def test_mock_provider_output_shape() -> None:
    provider = DeterministicMockProvider()
    prompt = "word " * 50
    response = provider.complete(prompt, 0.5)
    assert response.count("\n\n") == 1
    head, tail = response.split("\n\n")
    token = tail.rsplit(" ", 1)[1]
    assert len(token) == 10
    int(token, 16)
    # every slice comes out of the prompt itself
    normalized_prompt = " ".join(prompt.split())
    for piece in (head + " " + tail.rsplit(" ", 1)[0]).split(" "):
        assert piece in normalized_prompt


def test_scripted_provider_repeats_last_response() -> None:
    provider = ScriptedProvider(["one", "two"])
    assert [provider.complete("p", 0.0) for _ in range(4)] == ["one", "two", "two", "two"]
    assert provider.calls == 4
    with pytest.raises(ProviderError):
        ScriptedProvider([])


def test_canned_provider_replays_recorded_responses(tmp_path: Path) -> None:
    path = tmp_path / "canned.json"
    write_json(path, {request_hash("hello", 0.5): "reply", request_hash("other", 0.3): "second"})
    provider = CannedResponseProvider(path)
    assert provider.complete("hello", 0.5) == "reply"
    assert provider.complete("other", 0.3) == "second"
    with pytest.raises(ProviderError, match="no canned response"):
        provider.complete("hello", 0.31)


def test_canned_provider_rejects_non_object_file(tmp_path: Path) -> None:
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ProviderError):
        CannedResponseProvider(path)


def test_identity_translator_passthrough() -> None:
    translator = IdentityTranslator()
    assert translator.translate("こんにちは", "ja") == "こんにちは"
    assert translator.name == "identity-mt"


def test_mapping_translator_lookup() -> None:
    translator = MappingTranslator({"hello": "你好"})
    assert translator.translate("hello", "zh") == "你好"
    assert translator.translate("unmapped", "zh") == "unmapped"


def test_chat_translator_prompts_at_zero_temperature() -> None:
    seen: list[tuple[str, float]] = []

    class Capture:
        name = "cap"

        def complete(self, prompt: str, temperature: float) -> str:
            seen.append((prompt, temperature))
            return "translated"

    translator = ChatTranslator(Capture())
    assert translator.translate("some text", "ko") == "translated"
    assert translator.name == "translate-cap"
    prompt, temperature = seen[0]
    assert temperature == 0.0
    assert "some text" in prompt
    assert "'ko'" in prompt


class FakeResponse:
    def __init__(
        self, status_code: int, body: dict | None = None, headers: dict | None = None
    ):
        self.status_code = status_code
        self._body = body
        self.headers = headers or {}

    def json(self) -> dict:
        if self._body is None:
            raise ValueError("no body")
        return self._body


def chat_body(text: object) -> dict:
    return {"choices": [{"message": {"content": text}}]}


@pytest.fixture
def no_env(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    monkeypatch.delenv(API_KEY_ENV, raising=False)


def test_http_provider_requires_an_endpoint(no_env: None) -> None:
    with pytest.raises(ConfigError, match=ENDPOINT_ENV):
        HttpChatProvider("model-x")


def test_http_provider_reads_endpoint_from_environment(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv(ENDPOINT_ENV, "https://example.test/v1/chat")
    provider = HttpChatProvider("model-x")
    assert provider.endpoint == "https://example.test/v1/chat"


def test_http_provider_happy_path_sends_payload(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    calls: list[dict] = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append({"url": url, "json": json, "headers": headers})
        return FakeResponse(200, chat_body("the reply"))

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    provider = HttpChatProvider("model-x", endpoint="https://api.test", api_key="sk-123")
    assert provider.complete("ask me", 0.3) == "the reply"
    call = calls[0]
    assert call["url"] == "https://api.test"
    assert call["json"]["model"] == "model-x"
    assert call["json"]["temperature"] == 0.3
    assert call["json"]["messages"] == [{"role": "user", "content": "ask me"}]
    assert call["headers"]["Authorization"] == "Bearer sk-123"


def test_http_provider_omits_auth_without_key(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    headers_seen: list[dict] = []

    def fake_post(url, json=None, headers=None, timeout=None):
        headers_seen.append(headers)
        return FakeResponse(200, chat_body("ok"))

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    HttpChatProvider("m", endpoint="https://api.test").complete("p", 0.0)
    assert "Authorization" not in headers_seen[0]


def test_http_provider_client_errors_fail_immediately(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        return FakeResponse(404)

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.0)
    with pytest.raises(ProviderError, match="404"):
        provider.complete("p", 0.0)
    assert len(attempts) == 1


def test_http_provider_retries_server_errors(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        return FakeResponse(503)

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    provider = HttpChatProvider(
        "m", endpoint="https://api.test", max_retries=3, backoff=0.0
    )
    with pytest.raises(ProviderError, match="gave up after 3 attempts"):
        provider.complete("p", 0.0)
    assert len(attempts) == 3


def test_http_provider_recovers_after_transient_failure(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    responses = [
        requests.ConnectionError("refused"),
        FakeResponse(500),
        FakeResponse(200, chat_body("finally")),
    ]

    def fake_post(url, json=None, headers=None, timeout=None):
        result = responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    provider = HttpChatProvider(
        "m", endpoint="https://api.test", max_retries=3, backoff=0.0
    )
    assert provider.complete("p", 0.0) == "finally"


@pytest.mark.parametrize(
    ("headers", "delay"),
    [
        ({"Retry-After": "2"}, 2.0),
        ({"Retry-After": "60"}, 60.0),
        ({}, 0.5),
        ({"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, 0.5),
    ],
)
def test_http_provider_waits_out_a_rate_limit(
    no_env: None, monkeypatch: pytest.MonkeyPatch, headers: dict, delay: float
) -> None:
    responses = [FakeResponse(429, headers=headers), FakeResponse(200, chat_body("after"))]
    posts = []
    sleeps: list[float] = []

    def fake_post(url, json=None, headers=None, timeout=None):
        posts.append(1)
        return responses.pop(0)

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    monkeypatch.setattr(providers_module.time, "sleep", sleeps.append)
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.5)
    # a numeric Retry-After sets the wait; without one, the first backoff step does
    assert provider.complete("p", 0.0) == "after"
    assert len(posts) == 2
    assert sleeps == [delay]


@pytest.mark.parametrize(
    "body",
    [None, {}, {"choices": []}, {"choices": [{"message": {}}]}, chat_body(42)],
)
def test_http_provider_rejects_malformed_bodies(
    no_env: None, monkeypatch: pytest.MonkeyPatch, body: dict | None
) -> None:
    monkeypatch.setattr(
        providers_module.requests, "post", lambda *a, **k: FakeResponse(200, body)
    )
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.0)
    with pytest.raises(ProviderError):
        provider.complete("p", 0.0)


def test_http_provider_refuses_a_retry_after_over_the_cap(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    posts = []
    sleeps: list[float] = []

    def fake_post(url, json=None, headers=None, timeout=None):
        posts.append(1)
        return FakeResponse(429, headers={"Retry-After": "86400"})

    monkeypatch.setattr(providers_module.requests, "post", fake_post)
    monkeypatch.setattr(providers_module.time, "sleep", sleeps.append)
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.5)
    with pytest.raises(ProviderError, match="asked to wait 86400s"):
        provider.complete("p", 0.0)
    assert len(posts) == 1
    assert sleeps == []
