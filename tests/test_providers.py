"""Chat and translation backends, including HTTP failure handling."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest
import requests
import yaml

import totsim.providers as providers_module
from totsim.cli import main, run_stage
from totsim.config import PipelineConfig, load_config
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
    require_http_client,
)
from totsim.util import write_json

SRC = Path(__file__).resolve().parents[1] / "src"


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


Reply = FakeResponse | Exception


class FakeTransport:
    """Stands in for the network under ``requests.Session``.

    Each post gets the next of ``replies`` (the last repeats when they run
    out; an exception is raised), or ``respond(payload)`` when that is set.
    Every session opened and every post made is recorded.
    """

    def __init__(self) -> None:
        self.replies: list[Reply] = []
        self.respond: Callable[[dict], Reply] | None = None
        self.sessions: list[FakeSession] = []
        self.posts: list[dict] = []

    def session(self) -> FakeSession:
        session = FakeSession(self)
        self.sessions.append(session)
        return session

    def reply(self, payload: dict) -> Reply:
        if self.respond is not None:
            return self.respond(payload)
        return self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]


class FakeSession:
    def __init__(self, transport: FakeTransport) -> None:
        self.transport = transport
        self.posts = 0
        self.closed = False

    def post(self, url, json=None, headers=None, timeout=None) -> FakeResponse:
        assert not self.closed, "post on a closed session"
        self.posts += 1
        self.transport.posts.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        reply = self.transport.reply(json)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        self.closed = True


@pytest.fixture
def no_env(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    monkeypatch.delenv(API_KEY_ENV, raising=False)


@pytest.fixture
def transport(no_env: None, monkeypatch: pytest.MonkeyPatch) -> FakeTransport:
    """Every ``requests.Session`` is fake; ``requests.post`` may not be called."""
    fake = FakeTransport()

    def post(*args, **kwargs):
        raise AssertionError("requests.post called; calls go through a session")

    monkeypatch.setattr(requests, "Session", fake.session)
    monkeypatch.setattr(requests, "post", post)
    return fake


def test_http_provider_requires_an_endpoint(no_env: None) -> None:
    with pytest.raises(ConfigError, match=ENDPOINT_ENV):
        HttpChatProvider("model-x")


def test_http_provider_reads_endpoint_from_environment(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv(ENDPOINT_ENV, "https://example.test/v1/chat")
    provider = HttpChatProvider("model-x")
    assert provider.endpoint == "https://example.test/v1/chat"


def test_http_provider_needs_the_requests_package(
    no_env: None, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setitem(sys.modules, "requests", None)  # ``import requests`` now fails
    with pytest.raises(ConfigError, match="'requests' package"):
        HttpChatProvider("m", endpoint="https://api.test")
    with pytest.raises(ConfigError, match="'requests' package"):
        require_http_client()


def test_http_provider_happy_path_sends_payload(transport: FakeTransport) -> None:
    transport.replies = [FakeResponse(200, chat_body("the reply"))]
    provider = HttpChatProvider("model-x", endpoint="https://api.test", api_key="sk-123")
    assert provider.complete("ask me", 0.3) == "the reply"
    call = transport.posts[0]
    assert call["url"] == "https://api.test"
    assert call["json"]["model"] == "model-x"
    assert call["json"]["temperature"] == 0.3
    assert call["json"]["messages"] == [{"role": "user", "content": "ask me"}]
    assert call["headers"]["Authorization"] == "Bearer sk-123"


def test_http_provider_omits_auth_without_key(transport: FakeTransport) -> None:
    transport.replies = [FakeResponse(200, chat_body("ok"))]
    HttpChatProvider("m", endpoint="https://api.test").complete("p", 0.0)
    assert "Authorization" not in transport.posts[0]["headers"]


def test_http_provider_client_errors_fail_immediately(transport: FakeTransport) -> None:
    transport.replies = [FakeResponse(404)]
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.0)
    with pytest.raises(ProviderError, match="404"):
        provider.complete("p", 0.0)
    assert len(transport.posts) == 1


def test_http_provider_retries_server_errors(transport: FakeTransport) -> None:
    transport.replies = [FakeResponse(503)]
    provider = HttpChatProvider(
        "m", endpoint="https://api.test", max_retries=3, backoff=0.0
    )
    with pytest.raises(ProviderError, match="gave up after 3 attempts"):
        provider.complete("p", 0.0)
    assert len(transport.posts) == 3


def test_http_provider_recovers_after_transient_failure(transport: FakeTransport) -> None:
    transport.replies = [
        requests.ConnectionError("refused"),
        FakeResponse(500),
        FakeResponse(200, chat_body("finally")),
    ]
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
    transport: FakeTransport, monkeypatch: pytest.MonkeyPatch, headers: dict, delay: float
) -> None:
    transport.replies = [FakeResponse(429, headers=headers), FakeResponse(200, chat_body("after"))]
    sleeps: list[float] = []
    monkeypatch.setattr(providers_module.time, "sleep", sleeps.append)
    # the jitter draw takes the top of its range
    monkeypatch.setattr(providers_module.random, "uniform", lambda low, high: high)
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.5)
    # a numeric Retry-After sets the wait; without one, the first backoff step does
    assert provider.complete("p", 0.0) == "after"
    assert len(transport.posts) == 2
    assert sleeps == [delay]


def test_http_provider_jitters_its_backoff(
    transport: FakeTransport, monkeypatch: pytest.MonkeyPatch
) -> None:
    transport.replies = [
        FakeResponse(503),
        requests.ConnectionError("reset"),
        FakeResponse(429, headers={"Retry-After": "3"}),
        FakeResponse(503),
    ]
    sleeps: list[float] = []
    draws: list[tuple[float, float]] = []

    def draw(low: float, high: float) -> float:
        draws.append((low, high))
        return high / 4

    monkeypatch.setattr(providers_module.time, "sleep", sleeps.append)
    monkeypatch.setattr(providers_module.random, "uniform", draw)
    provider = HttpChatProvider("m", endpoint="https://api.test", max_retries=4, backoff=0.5)
    with pytest.raises(ProviderError, match="gave up after 4 attempts"):
        provider.complete("p", 0.0)
    # full jitter over [0, backoff * 2**attempt]; a numeric Retry-After is waited exactly
    assert draws == [(0.0, 0.5), (0.0, 1.0)]
    assert sleeps == [0.125, 0.25, 3.0]
    assert len(transport.posts) == 4


@pytest.mark.parametrize(
    "body",
    [None, {}, {"choices": []}, {"choices": [{"message": {}}]}, chat_body(42)],
)
def test_http_provider_rejects_malformed_bodies(
    transport: FakeTransport, body: dict | None
) -> None:
    transport.replies = [FakeResponse(200, body)]
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.0)
    with pytest.raises(ProviderError):
        provider.complete("p", 0.0)


def test_http_provider_refuses_a_retry_after_over_the_cap(
    transport: FakeTransport, monkeypatch: pytest.MonkeyPatch
) -> None:
    transport.replies = [FakeResponse(429, headers={"Retry-After": "86400"})]
    sleeps: list[float] = []
    monkeypatch.setattr(providers_module.time, "sleep", sleeps.append)
    provider = HttpChatProvider("m", endpoint="https://api.test", backoff=0.5)
    with pytest.raises(ProviderError, match="asked to wait 86400s"):
        provider.complete("p", 0.0)
    assert len(transport.posts) == 1
    assert sleeps == []


def test_http_provider_reuses_an_idle_session(transport: FakeTransport) -> None:
    transport.replies = [FakeResponse(200, chat_body("ok"))]
    provider = HttpChatProvider("m", endpoint="https://api.test")
    for _ in range(3):
        provider.complete("p", 0.0)
    assert [session.posts for session in transport.sessions] == [3]
    assert not transport.sessions[0].closed
    provider.close()
    assert transport.sessions[0].closed


def test_chat_translator_closes_its_backend(transport: FakeTransport) -> None:
    transport.replies = [FakeResponse(200, chat_body("traduit"))]
    translator = ChatTranslator(HttpChatProvider("m", endpoint="https://api.test"))
    assert translator.translate("translated", "fr") == "traduit"
    translator.close()
    assert [session.closed for session in transport.sessions] == [True]
    ChatTranslator(DeterministicMockProvider()).close()  # nothing to close


def http_toy(toy: Path, monkeypatch: pytest.MonkeyPatch, workers: int) -> PipelineConfig:
    """``toy`` configured for the HTTP backend with ``workers`` workers, up to ``sample`` run."""
    path = toy / "config.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    raw["workers"] = workers
    raw["generation"] = {"provider": "http", "model": "m"}
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    monkeypatch.setenv(ENDPOINT_ENV, "https://api.test")
    config = load_config(path)
    for stage in ("ingest", "partition", "sample"):
        run_stage(stage, config)
    return config


def mock_reply(payload: dict) -> FakeResponse:
    prompt = payload["messages"][0]["content"]
    text = DeterministicMockProvider().complete(prompt, payload["temperature"])
    return FakeResponse(200, chat_body(text))


def test_generate_reuses_at_most_one_session_per_worker(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch, transport: FakeTransport
) -> None:
    config = http_toy(toy_copy, monkeypatch, workers=2)
    transport.respond = mock_reply
    run_stage("generate", config)
    sets = sorted(config.output_dir.glob("generate/*/*.jsonl"))
    assert len(sets) == 7
    # every query set goes through the same one or two sessions, closed at the end
    assert 1 <= len(transport.sessions) <= 2
    assert sum(session.posts for session in transport.sessions) == len(transport.posts) == 509
    assert all(session.closed for session in transport.sessions)


def test_generate_closes_its_sessions_when_a_call_fails(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch, transport: FakeTransport
) -> None:
    config = http_toy(toy_copy, monkeypatch, workers=2)

    def respond(payload: dict) -> FakeResponse:
        # en/full-V1 takes 160 calls; this fails the second query set
        return FakeResponse(400) if len(transport.posts) > 200 else mock_reply(payload)

    transport.respond = respond
    with pytest.raises(ProviderError, match="rejected"):
        run_stage("generate", config)
    assert len(list(config.output_dir.glob("generate/*/*.jsonl"))) == 1
    assert 1 <= len(transport.sessions) <= 2
    assert all(session.closed for session in transport.sessions)


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_starts_no_call_after_one_has_failed(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch, transport: FakeTransport, workers: int
) -> None:
    config = http_toy(toy_copy, monkeypatch, workers=workers)

    def respond(payload: dict) -> FakeResponse:
        # the 201st post, in the second query set, and every later one are refused
        return FakeResponse(401) if len(transport.posts) > 200 else mock_reply(payload)

    transport.respond = respond
    with pytest.raises(ProviderError, match=r"rejected \(401\)"):
        run_stage("generate", config)
    # A refused post ends the call that made it, and then no call starts: past
    # the 200th, each worker posts at most once.
    assert 201 <= len(transport.posts) <= 200 + workers


def test_a_missing_requests_package_fails_the_http_config_at_load(toy_copy: Path) -> None:
    path = toy_copy / "config.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    raw["translation"] = {"provider": "http"}
    raw["generation"] = {"provider": "mock", "model": "m"}
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    code = (
        "import sys; sys.modules['requests'] = None; from totsim.cli import main; "
        f"sys.exit(main(['pipeline', '--config', {str(path)!r}]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), ENDPOINT_ENV: "https://api.test"},
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "error: pipeline: provider 'http' needs the 'requests' package" in result.stderr
    # it fails before any stage runs
    assert not (toy_copy / "out").exists()


def test_an_http_config_without_an_endpoint_fails_at_load(
    toy_copy: Path, no_env: None, capsys: pytest.CaptureFixture[str]
) -> None:
    path = toy_copy / "config.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    raw["generation"] = {"provider": "http", "model": "m"}
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["pipeline", "--config", str(path)]) == 1
    message = f"error: pipeline: no endpoint given and {ENDPOINT_ENV} is unset"
    assert message in capsys.readouterr().err
    # it fails before any stage runs
    assert not (toy_copy / "out").exists()


def test_a_mock_run_never_loads_the_http_client(toy_copy: Path) -> None:
    code = (
        "import sys; from totsim.cli import main\n"
        "for stage in ('ingest', 'partition', 'sample', 'generate'):\n"
        f"    assert main([stage, '--config', {str(toy_copy / 'config.yaml')!r}]) == 0\n"
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert (toy_copy / "out" / "generate" / "manifest.json").exists()
    assert result.stdout.strip() == "[]"
