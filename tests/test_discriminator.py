import contextlib
import http.server
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import serving
from kgrerank.discriminator import (
    BackendError,
    FirstCandidateBackend,
    OracleBackend,
    BackendConfig,
    RemoteBackend,
    ScriptedBackend,
    ground,
    make_backend,
    normalize_answer,
    remote_request,
)
from kgrerank.instructions import InstructionSample


def sample_with(names, gold_index=0, sample_id="test-0-tail"):
    ids = list(range(100, 100 + len(names)))
    return InstructionSample(
        id=sample_id,
        direction="tail",
        known=0,
        relation=0,
        prompt="Query: the incomplete fact (a, r, ?[QUERY]) is missing its tail entity.",
        gold_name=names[gold_index] if gold_index is not None else "missing",
        gold_id=ids[gold_index] if gold_index is not None else -1,
        candidate_ids=ids,
        candidate_names=list(names),
        candidate_ranks=list(range(1, len(names) + 1)),
        gold_rank=1,
    )


def test_oracle_selects_gold_position():
    sample = sample_with([f"c{i}" for i in range(10)], gold_index=7)
    assert OracleBackend().select(sample) == 7


def test_oracle_abstains_when_gold_missing():
    sample = sample_with(["a", "b", "c"], gold_index=None)
    assert OracleBackend().select(sample) is None


def test_first_candidate_always_picks_zero():
    sample = sample_with(["x", "y"], gold_index=1)
    assert FirstCandidateBackend().select(sample) == 0


def test_ground_exact_match_by_position():
    sample = sample_with(["Paris", "Berkeley", "New York City", "Los Angeles"], gold_index=3)
    assert ground("Los Angeles", sample) == 3


def test_ground_substring_fallback():
    sample = sample_with(["Paris", "Female"], gold_index=1)
    assert ground("the answer is Female.", sample) == 1


def test_ground_substring_earliest_candidate_wins():
    # "male" occurs inside "female", so the earlier candidate fires on wrapped
    # output; an exact copy of the later name still grounds exactly
    sample = sample_with(["Male", "Female"])
    assert ground("the answer is Female.", sample) == 0
    assert ground("Female", sample) == 1


def test_ground_exact_beats_substring():
    # substring-first would pick "b" (index 0) out of the output "a b"
    sample = sample_with(["b", "a b"])
    assert ground("a b", sample) == 1


def test_ground_unmatched_output_abstains():
    sample = sample_with(["alpha", "beta"])
    assert ground("something else entirely", sample) is None


def test_ground_duplicate_names_take_smallest_index():
    sample = sample_with(["dup", "dup", "other"])
    assert ground("dup", sample) == 0
    assert ground("answer: dup!", sample) == 0


def test_ground_empty_candidate_name_never_substring_matches():
    sample = sample_with(["", "real name"])
    assert ground("real name", sample) == 1
    assert ground("", sample) == 0  # exact match on empty output only


def test_ground_case_and_whitespace_folding():
    sample = sample_with(["Los  Angeles"])
    assert ground("  los angeles \n", sample) == 0


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=30), st.sampled_from(["", " ", "\t", "\n  "]), st.sampled_from(["", " ", "\t\t"]))
def test_ground_invariant_to_surrounding_whitespace(text, prefix, suffix):
    sample = sample_with(["anchor candidate", "other"])
    assert ground(prefix + text + suffix, sample) == ground(text, sample)


def test_scripted_backend_from_file(tmp_path):
    path = tmp_path / "outputs.tsv"
    path.write_text("test-0-tail\tbeta\ntest-1-head\tno match here\n", encoding="utf-8")
    backend = ScriptedBackend.from_file(str(path))
    assert backend.select(sample_with(["alpha", "beta"], sample_id="test-0-tail")) == 1
    assert backend.select(sample_with(["alpha", "beta"], sample_id="test-1-head")) is None
    assert backend.select(sample_with(["alpha"], sample_id="test-9-tail")) is None


def test_scripted_backend_missing_file():
    with pytest.raises(BackendError):
        ScriptedBackend.from_file("/nonexistent/fixture.tsv")


def test_make_backend_kinds():
    assert isinstance(make_backend(BackendConfig(kind="oracle")), OracleBackend)
    assert isinstance(make_backend(BackendConfig(kind="first_candidate")), FirstCandidateBackend)
    with pytest.raises(BackendError):
        make_backend(BackendConfig(kind="scripted"))
    with pytest.raises(ValueError, match="kind must be one of"):
        BackendConfig(kind="unknown-kind")
    with pytest.raises(BackendError):
        make_backend(BackendConfig(kind="remote", endpoint="", model="m"))


class _Handler(http.server.BaseHTTPRequestHandler):
    behavior = "echo"
    text = "fixed answer"
    requests_seen = 0
    last_body = b""
    last_headers = None
    location = ""

    def do_POST(self):
        type(self).requests_seen += 1
        type(self).last_headers = self.headers
        length = int(self.headers.get("Content-Length", 0))
        type(self).last_body = self.rfile.read(length)
        if type(self).behavior == "error":
            self.send_response(500)
            self.end_headers()
            return
        if type(self).behavior == "redirect":
            self.send_response(302)
            self.send_header("Location", type(self).location)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if type(self).behavior == "cut":  # a 400 whose body ends before its declared length
            self.send_response(400)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"partial")
            return
        if type(self).behavior == "slow":
            time.sleep(1.0)
        if type(self).behavior == "malformed":
            body = b"{\"unexpected\": true}"
        else:
            body = json.dumps(
                {"choices": [{"message": {"content": type(self).text}}]}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _RedirectTarget(_Handler):
    """A second server, reached by following _Handler's redirect as a GET."""

    behavior = "echo"

    def do_GET(self):
        self.do_POST()


@contextlib.contextmanager
def _serving(handler):
    with serving(http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)) as server:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


@pytest.fixture
def http_server():
    _Handler.behavior = "echo"
    _Handler.requests_seen = 0
    with _serving(_Handler) as url:
        yield url


def remote_config(endpoint, **overrides):
    defaults = dict(endpoint=endpoint, model="test-model", timeout=2.0, retries=2, backoff=0.01)
    defaults.update(overrides)
    return BackendConfig(kind="remote", **defaults)


def test_remote_request_echoes_server_text(http_server):
    _Handler.text = "Los Angeles"
    sample = sample_with(["Los Angeles"])
    out = remote_request(sample, remote_config(http_server))
    assert out == "Los Angeles"
    sent = json.loads(_Handler.last_body)
    assert sent["messages"] == [{"role": "user", "content": sample.prompt}]  # the stored prompt, verbatim


def test_remote_request_sends_the_token_only_when_it_is_set(http_server, monkeypatch):
    config = remote_config(http_server, auth_token_env="KGRERANK_TEST_TOKEN")
    monkeypatch.setenv("KGRERANK_TEST_TOKEN", "s3cret")
    remote_request(sample_with(["x"]), config)
    assert _Handler.last_headers["Authorization"] == "Bearer s3cret"
    assert _Handler.last_headers["Content-Type"] == "application/json"
    assert _Handler.last_headers["User-Agent"] == "kgrerank"
    monkeypatch.delenv("KGRERANK_TEST_TOKEN")
    remote_request(sample_with(["x"]), config)
    assert "Authorization" not in _Handler.last_headers
    assert _Handler.requests_seen == 2


def test_a_redirect_does_not_carry_the_token(http_server, monkeypatch):
    monkeypatch.setenv("KGRERANK_TEST_TOKEN", "s3cret")
    _RedirectTarget.requests_seen = 0
    _Handler.text = "beta"
    with _serving(_RedirectTarget) as target:
        _Handler.behavior, _Handler.location = "redirect", target
        out = remote_request(sample_with(["x"]), remote_config(http_server, auth_token_env="KGRERANK_TEST_TOKEN"))
    assert out == "beta"
    assert _Handler.last_headers["Authorization"] == "Bearer s3cret"
    assert _RedirectTarget.requests_seen == 1
    assert "Authorization" not in _RedirectTarget.last_headers


def test_remote_request_surfaces_repeated_server_errors(http_server):
    _Handler.behavior = "error"
    with pytest.raises(BackendError, match="after 3 attempt"):
        remote_request(sample_with(["x"]), remote_config(http_server, retries=2))
    assert _Handler.requests_seen == 3


def test_remote_request_times_out(http_server):
    _Handler.behavior = "slow"
    with pytest.raises(BackendError):
        remote_request(sample_with(["x"]), remote_config(http_server, timeout=0.2, retries=0))


def test_remote_request_rejects_malformed_body(http_server):
    _Handler.behavior = "malformed"
    with pytest.raises(BackendError, match="malformed"):
        remote_request(sample_with(["x"]), remote_config(http_server, retries=0))


def test_an_unreadable_error_body_is_a_backend_error_without_retry(http_server):
    _Handler.behavior = "cut"
    with pytest.raises(BackendError, match="server returned 400"):
        remote_request(sample_with(["x"]), remote_config(http_server, retries=2))
    assert _Handler.requests_seen == 1


def test_remote_backend_grounds_and_raises_on_failure(http_server):
    _Handler.text = "beta"
    backend = RemoteBackend(remote_config(http_server))
    assert backend.select(sample_with(["alpha", "beta"])) == 1
    _Handler.behavior = "error"
    with pytest.raises(BackendError, match="after 3 attempt"):
        backend.select(sample_with(["alpha", "beta"]))


def test_remote_request_unconfigured_endpoint():
    with pytest.raises(BackendError, match="requires an endpoint URL"):
        remote_request(sample_with(["x"]), BackendConfig(kind="remote", endpoint="", model="m"))


def test_a_malformed_endpoint_fails_when_the_backend_is_made():
    with pytest.raises(BackendError, match="requires an endpoint URL"):
        RemoteBackend(BackendConfig(kind="remote", endpoint="", model="m"))
    with pytest.raises(BackendError, match="bad endpoint URL"):  # no scheme
        RemoteBackend(BackendConfig(kind="remote", endpoint="/v1/chat", model="m"))
    for endpoint in (
        "data:,x", "file:///dev/null", "localhost:8000/v1/chat",  # not http(s)
        "http:/v1/chat",  # no host
        "http://localhost:abc/v1/chat", "http://localhost:99999/v1/chat",  # no port
    ):
        with pytest.raises(BackendError, match="bad endpoint URL"):
            RemoteBackend(BackendConfig(kind="remote", endpoint=endpoint, model="m"))
