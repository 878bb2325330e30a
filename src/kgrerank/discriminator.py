"""Candidate-selection policies standing in for a finetuned language model.

Every backend's ``select(sample)`` returns the index of one candidate in
``sample.candidate_ids``, or None to abstain; that plain value is all that
passes to evaluation. Free-text outputs (scripted fixtures, remote
completions) are grounded strictly within the sample's candidate list: exact
normalized match first, then earliest candidate whose name occurs inside the
output, otherwise abstain. Abstention keeps evaluation total: the base
ranking is simply left unchanged. A remote request that still fails after its
retries is an error, not an abstention, so a dead endpoint cannot pass for a
model that never answers.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .instructions import InstructionSample
from .kg import DataError, TextTable


class BackendError(Exception):
    """Backend setup or transport failure."""


def normalize_answer(text: str) -> str:
    return " ".join(text.split()).casefold()


def ground(output_text: str, sample: InstructionSample) -> int | None:
    """Map free text onto a candidate index; None (abstain) when nothing matches."""
    out = normalize_answer(output_text)
    names = [normalize_answer(n) for n in sample.candidate_names]
    for i, name in enumerate(names):
        if name == out:
            return i
    for i, name in enumerate(names):
        if name and name in out:
            return i
    return None


class OracleBackend:
    """Selects the gold answer whenever it appears among the candidates."""

    name = "oracle"

    def select(self, sample: InstructionSample) -> int | None:
        if sample.gold_id in sample.candidate_ids:
            return sample.candidate_ids.index(sample.gold_id)
        return None


class FirstCandidateBackend:
    """Always selects the top-ranked candidate (a no-op under reranking)."""

    name = "first_candidate"

    def select(self, sample: InstructionSample) -> int:
        return 0


class ScriptedBackend:
    """Replays fixture outputs keyed by sample id; missing ids abstain."""

    name = "scripted"

    def __init__(self, outputs: dict[str, str]):
        self.outputs = outputs

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        """The outputs of a ``<sample id><TAB><output>`` fixture, read as the
        dataset's name tables are; a fault names the file and line."""
        if not os.path.isfile(path):
            raise BackendError(f"scripted fixture file not found: {path}")
        try:
            table = TextTable.read(path)
        except DataError as exc:
            raise BackendError(str(exc)) from None
        return cls(dict(zip(table.keys().tolist(), table.texts().tolist())))

    def select(self, sample: InstructionSample) -> int | None:
        text = self.outputs.get(sample.id)
        if text is None:
            return None
        return ground(text, sample)


_BACKEND_KINDS = ("oracle", "first_candidate", "scripted", "remote")


@dataclass
class BackendConfig:
    """The ``[backend]`` config section: which backend selects, and the remote
    backend's transport settings."""

    kind: str = "oracle"
    endpoint: str = ""
    model: str = ""
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 0.5
    auth_token_env: str = "KGRERANK_API_TOKEN"
    in_flight: int = 4  # the remote backend's cap on concurrent requests
    scripted_file: str = ""

    def __post_init__(self):
        if self.kind not in _BACKEND_KINDS:
            raise ValueError(f"kind must be one of {_BACKEND_KINDS}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not 0 <= self.backoff < math.inf:
            raise ValueError("backoff must be finite and >= 0")
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and > 0")
        if self.in_flight < 1:
            raise ValueError("in_flight must be >= 1")


def remote_request(sample: InstructionSample, config: BackendConfig) -> str:
    """Single-turn chat-completion request; returns the first message text.

    Transport errors, 5xx responses, and rate limits are retried with
    exponential backoff up to ``config.retries`` extra attempts, then
    surfaced as :class:`BackendError`.
    """
    headers = {"Content-Type": "application/json", "User-Agent": "kgrerank"}
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": sample.prompt}],
    }
    request = _request(config.endpoint, json.dumps(payload).encode(), headers)
    token = os.environ.get(config.auth_token_env, "")
    if token:  # unredirected: a redirect, to any host, does not carry the token
        request.add_unredirected_header("Authorization", f"Bearer {token}")
    last_error: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(config.backoff * 2 ** (attempt - 1))
        try:
            with urllib.request.urlopen(request, timeout=config.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # a status outside 2xx; an OSError, so caught first
            status, body = exc.code, _error_body(exc)
        except (OSError, http.client.HTTPException) as exc:  # refused, reset, timed out
            last_error = exc
            continue
        if status == 429 or status >= 500:
            last_error = BackendError(f"server returned {status}")
            continue
        if status != 200:
            raise BackendError(f"server returned {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):  # null for a refusal or a tool call
            raise BackendError(f"malformed completion response: content is not text: {content!r:.80}")
        return content
    raise BackendError(
        f"request failed after {config.retries + 1} attempt(s): {last_error}"
    ) from last_error


def _request(endpoint: str, data: bytes = b"", headers: dict | None = None) -> urllib.request.Request:
    """A POST of ``data`` to ``endpoint``; a :class:`BackendError` when the
    endpoint is empty or not an http(s) URL with a host."""
    if not endpoint:
        raise BackendError("remote backend requires an endpoint URL")
    try:
        parts = urllib.parse.urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.netloc:  # urlopen also reads file: and data:
            raise ValueError(f"{endpoint!r} is not an http(s) URL")
        parts.port  # a port that is not a number in 0-65535 raises ValueError
        return urllib.request.Request(endpoint, data, headers or {})
    except ValueError as exc:
        raise BackendError(f"bad endpoint URL: {exc}") from exc


def _error_body(exc: urllib.error.HTTPError) -> bytes:
    """The body of an error response, or b"" when reading it fails."""
    try:
        return exc.read()
    except (OSError, http.client.HTTPException):
        return b""
    finally:
        exc.close()


class RemoteBackend:
    """Grounds completions from an HTTP generation service; a request that still
    fails after its retries raises :class:`BackendError`."""

    name = "remote"

    def __init__(self, config: BackendConfig):
        _request(config.endpoint)  # a bad endpoint fails here, before any stage runs
        self.config = config

    def select(self, sample: InstructionSample) -> int | None:
        return ground(remote_request(sample, self.config), sample)


def make_backend(config: BackendConfig):
    if config.kind == "scripted":
        if not config.scripted_file:
            raise BackendError("scripted backend requires a fixture file")
        return ScriptedBackend.from_file(config.scripted_file)
    if config.kind == "remote":
        return RemoteBackend(config)
    if config.kind == "first_candidate":
        return FirstCandidateBackend()
    return OracleBackend()
