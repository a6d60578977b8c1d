"""Text generation and translation backends.

Generation and translation are pluggable so the pipeline can run against
a hosted chat model in production and against deterministic stand-ins in
tests and desk-scale runs.  A backend is anything with a ``name`` and a
``complete(prompt, temperature)`` returning text; translators expose
``translate(text, target_language)``.

Credentials are never read from configuration files.  The HTTP backend
takes its endpoint and key from the environment (``TOTSIM_ENDPOINT`` and
``TOTSIM_API_KEY``) unless passed explicitly.  It alone imports ``requests``,
when it is built, so runs that never call it never load an HTTP client.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import logging
import os
import random
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from .errors import ConfigError, ProviderError
from .util import read_json

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

__all__ = [
    "ChatProvider",
    "Translator",
    "HttpChatProvider",
    "CannedResponseProvider",
    "DeterministicMockProvider",
    "ScriptedProvider",
    "IdentityTranslator",
    "MappingTranslator",
    "ChatTranslator",
    "request_hash",
    "read_text_table",
    "require_http_client",
    "ENDPOINT_ENV",
    "API_KEY_ENV",
    "MAX_RETRY_AFTER_S",
]

ENDPOINT_ENV = "TOTSIM_ENDPOINT"
API_KEY_ENV = "TOTSIM_API_KEY"
# The longest wait a ``Retry-After`` header may ask for; a longer one fails
# the call instead of stalling a worker for it.
MAX_RETRY_AFTER_S = 60
_NO_HTTP_CLIENT = "provider 'http' needs the 'requests' package, which is not installed"
_NO_ENDPOINT = f"no endpoint given and {ENDPOINT_ENV} is unset"


class ChatProvider(Protocol):
    name: str

    def complete(self, prompt: str, temperature: float) -> str: ...


class Translator(Protocol):
    name: str

    def translate(self, text: str, target_language: str) -> str: ...


def request_hash(prompt: str, temperature: float) -> str:
    """Stable key for one completion request, used by the canned backend."""
    canonical = json.dumps(
        {"prompt": prompt, "temperature": temperature}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def require_http_client() -> None:
    """Fail unless ``requests`` is installed (found, not loaded) and TOTSIM_ENDPOINT is set."""
    if importlib.util.find_spec("requests") is None:
        raise ConfigError(_NO_HTTP_CLIENT)
    if not os.environ.get(ENDPOINT_ENV):
        raise ConfigError(_NO_ENDPOINT)


class HttpChatProvider:
    """Chat-completion backend over a JSON HTTP API.

    Sends ``{"model", "messages", "temperature"}`` and expects the reply
    text at ``choices[0].message.content``.  Transient failures (network
    errors, 5xx and 429 rate limits) retry after the numeric
    ``Retry-After`` the response gives, or else after a uniform draw in
    ``[0, backoff * 2**attempt]`` (full jitter, so workers that failed
    together do not retry together); a ``Retry-After`` above
    :data:`MAX_RETRY_AFTER_S` and other client errors fail immediately.

    Each call borrows an idle ``requests.Session``, or opens one when none
    is idle, and hands it back after: concurrent callers never share a
    session, and no more are opened than ever ran at once.  Their
    connections stay open for the next call until :meth:`close`, which
    must not run while a call is in flight.
    """

    def __init__(
        self,
        model: str,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ):
        try:
            import requests
        except ImportError as exc:
            raise ConfigError(_NO_HTTP_CLIENT) from exc
        self._requests = requests
        self.name = model
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        if not self.endpoint:
            raise ConfigError(_NO_ENDPOINT)
        self.api_key = api_key or os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._idle: list[requests.Session] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str, temperature: float) -> str:
        with self._lock:
            session = self._idle.pop() if self._idle else self._requests.Session()
        try:
            return self._complete(session, prompt, temperature)
        finally:
            with self._lock:
                self._idle.append(session)

    def close(self) -> None:
        """Close every session this backend opened."""
        with self._lock:
            sessions, self._idle = self._idle, []
        for session in sessions:
            session.close()

    def _complete(self, session: requests.Session, prompt: str, temperature: float) -> str:
        payload = {
            "model": self.name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            retry_after = ""
            try:
                response = session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except self._requests.RequestException as exc:
                last_error = exc
            else:
                status = response.status_code
                if status < 400:
                    return self._extract(response)
                if status < 500 and status != 429:
                    raise ProviderError(f"{self.name}: request rejected ({status})")
                kind = "rate limited" if status == 429 else "server error"
                last_error = ProviderError(f"{self.name}: {kind} {status}")
                retry_after = response.headers.get("Retry-After", "").strip()
                if retry_after.isdecimal() and int(retry_after) > MAX_RETRY_AFTER_S:
                    raise ProviderError(
                        f"{last_error}: asked to wait {retry_after}s, over {MAX_RETRY_AFTER_S}s"
                    )
            if attempt + 1 < self.max_retries:
                if retry_after.isdecimal():
                    delay = float(retry_after)
                else:
                    delay = random.uniform(0.0, self.backoff * (2**attempt))
                logger.warning(
                    "%s: attempt %d failed (%s); retrying in %.1fs",
                    self.name,
                    attempt + 1,
                    last_error,
                    delay,
                )
                time.sleep(delay)
        raise ProviderError(f"{self.name}: gave up after {self.max_retries} attempts: {last_error}")

    def _extract(self, response: requests.Response) -> str:
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"{self.name}: malformed response body") from exc
        if not isinstance(text, str):
            raise ProviderError(f"{self.name}: response content is not text")
        return text


def read_text_table(path: Path | str) -> dict[str, str]:
    """The JSON object at ``path``, which must map each key to a string."""
    table = read_json(path, error=ProviderError)
    if not isinstance(table, dict):
        raise ProviderError(f"{path}: expected a JSON object of strings")
    bad = next((key for key, value in table.items() if not isinstance(value, str)), None)
    if bad is not None:
        raise ProviderError(f"{path}: the value of {bad!r} is not a string")
    return table


class CannedResponseProvider:
    """Replays recorded responses keyed by request hash.

    The backing file is JSON mapping :func:`request_hash` digests to
    response text, so recorded sessions replay offline and byte-for-byte.
    """

    name = "canned"

    def __init__(self, path: Path | str):
        self._responses = read_text_table(path)

    def complete(self, prompt: str, temperature: float) -> str:
        key = request_hash(prompt, temperature)
        try:
            return self._responses[key]
        except KeyError:
            raise ProviderError(
                f"{self.name}: no canned response for request {key[:12]}..."
            ) from None


class DeterministicMockProvider:
    """Pure function of the request, for tests and desk-scale pipelines.

    The response is a fixed number of short slices sampled from the
    prompt itself (so summaries and queries share vocabulary with the
    source article and retrieval stays meaningful) plus a hash token for
    uniqueness.  Slices are long enough to carry whole words through a
    summarize-then-generate chain.  There is no state, so concurrent use
    is safe and every run is reproducible.
    """

    SLICE_LENGTH = 24
    SLICES = 6

    def __init__(self, name: str = "mock-chat"):
        self.name = name

    def complete(self, prompt: str, temperature: float) -> str:
        digest = hashlib.sha256(
            f"{self.name}|{temperature!r}|{prompt}".encode("utf-8")
        ).digest()
        rng = random.Random(digest)
        pieces: list[str] = []
        span = max(len(prompt) - self.SLICE_LENGTH, 1)
        for _ in range(self.SLICES):
            start = rng.randrange(span)
            piece = prompt[start : start + self.SLICE_LENGTH]
            pieces.append(" ".join(piece.split()))
        token = digest.hex()[:10]
        first = " ".join(pieces[: self.SLICES // 2])
        second = " ".join(pieces[self.SLICES // 2 :])
        return f"{first}\n\n{second} {token}"


class ScriptedProvider:
    """Returns a fixed response sequence; the last entry repeats when exhausted.

    For exercising retry paths in tests.  Not thread safe.
    """

    name = "scripted"

    def __init__(self, responses: Sequence[str]):
        if not responses:
            raise ProviderError("scripted provider needs at least one response")
        self._responses = list(responses)
        self.calls = 0

    def complete(self, prompt: str, temperature: float) -> str:
        index = min(self.calls, len(self._responses) - 1)
        self.calls += 1
        return self._responses[index]


class IdentityTranslator:
    """Returns the input unchanged; stands in when no translation is wanted."""

    name = "identity-mt"

    def translate(self, text: str, target_language: str) -> str:
        return text


class MappingTranslator:
    """Dictionary lookup translator for tests; unknown text passes through."""

    name = "mapping-mt"

    def __init__(self, mapping: Mapping[str, str]):
        self._mapping = dict(mapping)

    def translate(self, text: str, target_language: str) -> str:
        return self._mapping.get(text, text)


class ChatTranslator:
    """Translation via a chat backend with a fixed instruction prompt."""

    def __init__(self, provider: ChatProvider):
        self.provider = provider
        self.name = f"translate-{provider.name}"

    def close(self) -> None:
        """Close what the chat backend holds open, if it holds anything."""
        if hasattr(self.provider, "close"):
            self.provider.close()

    def translate(self, text: str, target_language: str) -> str:
        prompt = (
            f"Translate the following text into the language with code "
            f"{target_language!r}. Output only the translation.\n\n{text}"
        )
        return self.provider.complete(prompt, temperature=0.0)
