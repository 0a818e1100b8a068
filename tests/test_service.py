"""Wire protocol: endpoint parsing, the client, and the reference server."""

import gc
import json
import re
import socket
import threading
import warnings
from contextlib import contextmanager

import pytest

from memgrep import service
from memgrep.errors import (
    ConfigError,
    PartialResponseError,
    ScorerUnavailableError,
)
from memgrep.service import ReferenceServer, ServiceClient, parse_endpoint


def test_parse_endpoint_tcp():
    assert parse_endpoint("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))


def test_parse_endpoint_unix():
    assert parse_endpoint("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")


@pytest.mark.parametrize("bad", [
    "http://x", "tcp:host", "tcp:host:notaport", "unix:", "", "tcp::80",
    # Only ASCII decimal ports from 1 to 65535: socket would take 70000 as
    # port 4464, int() refuses a superscript two, and an Arabic-Indic three
    # would be port 3.
    "tcp:127.0.0.1:70000", "tcp:h:\u00b2", "tcp:h:\u0663", "tcp:h:0",
])
def test_parse_endpoint_rejects(bad):
    with pytest.raises(ConfigError):
        parse_endpoint(bad)


def test_score_round_trip():
    def score_fn(query, items):
        return [float(len(item)) for item in items]

    with ReferenceServer(score_fn=score_fn) as server:
        client = ServiceClient(server.endpoint)
        scores = client.score("q", ["ab", "cdef"])
    assert scores == [2.0, 4.0]


def test_unix_socket_transport(tmp_path):
    def score_fn(query, items):
        return [1.0] * len(items)

    sock_path = str(tmp_path / "svc.sock")
    with ReferenceServer(score_fn=score_fn, unix_path=sock_path) as server:
        assert server.endpoint == f"unix:{sock_path}"
        client = ServiceClient(server.endpoint)
        assert client.score("q", ["a"]) == [1.0]


def test_error_record_raises_unavailable():
    def score_fn(query, items):
        raise RuntimeError("model crashed")

    with ReferenceServer(score_fn=score_fn) as server:  # answers an error record
        client = ServiceClient(server.endpoint)
        with pytest.raises(ScorerUnavailableError,
                           match="refused request: RuntimeError: model crashed"):
            client.score("q", ["a"])


def test_wrong_score_count_is_partial_response():
    def score_fn(query, items):
        return [1.0]  # always one score, whatever was asked

    with ReferenceServer(score_fn=score_fn) as server:
        client = ServiceClient(server.endpoint)
        with pytest.raises(PartialResponseError):
            client.score("q", ["a", "b"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "high", None, 10**400],
                         ids=["nan", "inf", "bool", "string", "null", "huge-int"])
def test_bad_score_is_partial_response_naming_it(bad):
    # Valid scores, then two bad ones: the message names the first.
    def score_fn(query, items):
        return [0.5, 2, bad, "later"]

    with ReferenceServer(score_fn=score_fn) as server:
        client = ServiceClient(server.endpoint)
        with pytest.raises(PartialResponseError,
                           match=f"non-finite score in response: {re.escape(repr(bad))}$"):
            client.score("q", ["a", "b", "c", "d"])


@contextmanager
def raw_server(reply):
    """A tcp endpoint that reads one request line, sends `reply` and closes."""
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]

    def serve_once():
        conn, _ = srv.accept()
        conn.settimeout(5)
        with conn, conn.makefile("rb") as request:
            request.readline()
            conn.sendall(reply)

    thread = threading.Thread(target=serve_once, daemon=True)
    thread.start()
    try:
        yield f"tcp:127.0.0.1:{port}"
    finally:
        thread.join(timeout=5)
        srv.close()


def test_malformed_json_is_partial_response(monkeypatch):
    monkeypatch.setattr(service, "CONNECT_RETRIES", 0)
    with raw_server(b"not json at all\n") as endpoint:
        with pytest.raises(PartialResponseError):
            ServiceClient(endpoint).score("q", ["a"])


def test_connection_refused_surfaces_as_unavailable(monkeypatch):
    # Grab a free port, then close it so nothing listens there.
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    monkeypatch.setattr(service, "TIMEOUT_S", 0.5)
    monkeypatch.setattr(service, "CONNECT_RETRIES", 0)
    client = ServiceClient(f"tcp:127.0.0.1:{port}")
    with pytest.raises(ScorerUnavailableError):
        client.score("q", ["a"])


def test_connection_failures_are_retried(monkeypatch):
    attempts = []

    def refuse_twice(spec, timeout):
        attempts.append(spec)
        if len(attempts) <= 2:
            raise ConnectionRefusedError("not listening yet")
        return connect(spec, timeout)

    connect = service._connect
    monkeypatch.setattr(service, "_connect", refuse_twice)
    monkeypatch.setattr(service, "CONNECT_RETRIES", 2)
    with ReferenceServer(score_fn=lambda q, i: [0.5] * len(i)) as server:
        client = ServiceClient(server.endpoint)
        assert client.score("q", ["a"]) == [0.5]
    assert len(attempts) == 3


def test_client_defaults_are_a_10_second_timeout_and_one_retry():
    # Served scorers, in rank and in the fallback alike, build their clients
    # from the endpoint alone, so these are their limits.
    assert (service.TIMEOUT_S, service.CONNECT_RETRIES) == (10.0, 1)


def test_failed_unix_connect_closes_its_socket(tmp_path):
    client = ServiceClient(f"unix:{tmp_path / 'absent.sock'}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            client.score("q", ["a"])
        except ScorerUnavailableError:
            pass
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_read_timeout_is_not_resent(monkeypatch):
    # The service accepts the request but answers after the client's
    # timeout; resending would make it score the same batch again.
    dispatches = []
    release = threading.Event()

    def slow(query, items):
        dispatches.append(query)
        release.wait(0.6)
        return [1.0] * len(items)

    monkeypatch.setattr(service, "TIMEOUT_S", 0.2)
    with ReferenceServer(score_fn=slow) as server:
        client = ServiceClient(server.endpoint)
        try:
            with pytest.raises(ScorerUnavailableError, match="did not answer"):
                client.score("q", ["a"])
        finally:
            release.set()
    assert dispatches == ["q"]


def test_server_reports_unknown_kind():
    # score is the protocol's one kind; annotate went with the served annotator.
    with ReferenceServer(score_fn=lambda q, i: [0.0] * len(i)) as server:
        _, (host, port) = parse_endpoint(server.endpoint)
        for kind in ("mystery", "annotate"):
            with socket.create_connection((host, port), timeout=2) as raw, \
                    raw.makefile() as lines:
                raw.sendall(json.dumps({"kind": kind, "items": ["a"]}).encode() + b"\n")
                reply = json.loads(lines.readline())
            assert reply == {"error": f"unknown kind {kind!r}"}


@pytest.mark.parametrize("line, error", [
    ("[1]", "request must be a JSON object"),
    ('"score"', "request must be a JSON object"),
    ("null", "request must be a JSON object"),
    # The kind is checked first, so a bad kind names itself, not its items.
    ('{"kind": "mystery", "items": 5}', "unknown kind 'mystery'"),
    ('{"kind": "score", "items": 5}', "items must be a list"),
    # The scorer sees only a string query and string items.
    ('{"kind": "score", "query": 5, "items": ["a"]}', "query must be a string"),
    ('{"kind": "score", "query": null, "items": ["a"]}', "query must be a string"),
    ('{"kind": "score", "query": "q", "items": [5]}', "items must be a list of strings"),
    ('{"kind": "score", "items": ["a", null]}', "items must be a list of strings"),
], ids=["list", "string", "null", "kind-before-items", "items-not-a-list",
        "query-a-number", "query-null", "item-a-number", "item-null"])
def test_server_answers_a_request_that_is_not_a_score_object(line, error):
    with ReferenceServer(score_fn=lambda q, i: [0.0] * len(i)) as server:
        _, (host, port) = parse_endpoint(server.endpoint)
        with socket.create_connection((host, port), timeout=2) as raw, \
                raw.makefile() as lines:
            raw.sendall(line.encode() + b"\n")
            assert json.loads(lines.readline()) == {"error": error}


def test_one_request_per_connection():
    def score_fn(query, items):
        return [0.5] * len(items)

    with ReferenceServer(score_fn=score_fn) as server:
        client = ServiceClient(server.endpoint)
        # Two sequential requests mean two connections; both succeed.
        assert client.score("a", ["x"]) == [0.5]
        assert client.score("b", ["y"]) == [0.5]


# A reply line of 230 bytes that is a valid answer to one item; the table
# caps reply lines at 50 bytes.
_LONG_REPLY = b'{"scores": [1.0]' + b" " * 213 + b"}"
# Each malformed reply a service can send: its bytes, then the error and the
# message the client raises.
CLIENT_FAULTS = {
    "dropped": (b"", PartialResponseError, "closed without responding"),
    "truncated": (b'{"scores": [1.', PartialResponseError, "sent invalid JSON"),
    "not-an-object": (b"[1]\n", PartialResponseError, "not a JSON object"),
    "over-limit-newline-in-last-chunk": (_LONG_REPLY + b"\n", PartialResponseError,
                                         "exceeds line limit"),
    "over-limit-without-newline": (_LONG_REPLY, PartialResponseError, "exceeds line limit"),
}


@pytest.mark.parametrize("fault", CLIENT_FAULTS)
def test_client_fault_table(monkeypatch, fault):
    reply, error, message = CLIENT_FAULTS[fault]
    monkeypatch.setattr(service, "_MAX_LINE", 50)
    monkeypatch.setattr(service, "CONNECT_RETRIES", 0)
    with raw_server(reply) as endpoint:
        with pytest.raises(error, match=re.escape(message)):
            ServiceClient(endpoint).score("q", ["a"])


def test_a_reply_line_at_the_limit_is_read(monkeypatch):
    line = b'{"scores": [1.0]' + b" " * 33 + b"}"
    monkeypatch.setattr(service, "_MAX_LINE", len(line))
    with raw_server(line + b"\n") as endpoint:
        assert ServiceClient(endpoint).score("q", ["a"]) == [1.0]
