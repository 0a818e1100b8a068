"""Newline-delimited JSON transport for out-of-process scorers.

One request per connection: the client sends a single JSON object on one line,
reads exactly one JSON line back, and closes. The protocol has one kind: a
request is {"kind": "score", "query", "items"} and its response
{"scores": [...]}, one finite number per item. A response with fewer entries
than items is an error, never padded; a request of any other kind is answered
with an error record.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, PartialResponseError, ScorerUnavailableError

_MAX_LINE = 64 * 1024 * 1024
# Every client's fixed limits: the socket timeout of a connect and of the
# reply, in seconds, and the extra connection attempts after the first.
TIMEOUT_S = 10.0
CONNECT_RETRIES = 1
_NUMBER_TYPES = frozenset((int, float))


def finite_number(value: object) -> bool:
    """Whether a JSON value is a number a float holds finitely: an int or a
    float, not a bool, NaN, an infinity or an int too large for a float."""
    try:
        return type(value) in _NUMBER_TYPES and math.isfinite(value)  # type: ignore[arg-type]
    except OverflowError:
        return False


# --- endpoint addressing ---

def parse_endpoint(spec: str) -> tuple[str, object]:
    """Parse "tcp:HOST:PORT" or "unix:/path" into (family, address). PORT is
    ASCII decimal from 1 to 65535: socket would wrap a larger one silently."""
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not (port.isascii() and port.isdigit()) \
                or not 1 <= int(port) <= 65535:
            raise ConfigError(f"bad tcp endpoint {spec!r}; expected tcp:HOST:PORT "
                              "with PORT from 1 to 65535")
        return "tcp", (host, int(port))
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ConfigError(f"bad unix endpoint {spec!r}; expected unix:/path")
        return "unix", path
    raise ConfigError(f"unknown endpoint scheme in {spec!r}; expected tcp: or unix:")


def _connect(spec: str, timeout: float) -> socket.socket:
    family, address = parse_endpoint(spec)
    if family == "tcp":
        host, port = address  # type: ignore[misc]
        return socket.create_connection((host, port), timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


# --- client ---

@dataclass
class ServiceClient:
    """Blocking client for the line protocol above.

    Only a failure to connect is retried, CONNECT_RETRIES times. Once
    connected, the request is sent exactly once: a timeout or a dropped
    connection after that raises ScorerUnavailableError at once, because the
    service may still be working on the request and a resend would make it
    do the work twice. A service that answers with malformed content is not
    retried either (the failure is not transient).
    """

    endpoint: str

    def request(self, payload: dict) -> dict:
        line = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
        last_error: OSError | None = None
        for _ in range(CONNECT_RETRIES + 1):
            try:
                sock = _connect(self.endpoint, TIMEOUT_S)
                break
            except OSError as exc:  # TimeoutError included
                last_error = exc
        else:
            raise ScorerUnavailableError(
                f"service at {self.endpoint} unreachable: {last_error}"
            )
        try:
            with sock:
                sock.sendall(line)
                raw = self._read_line(sock)
        except OSError as exc:
            raise ScorerUnavailableError(
                f"service at {self.endpoint} accepted the request but did not "
                f"answer: {exc}"
            ) from exc
        try:
            response = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise PartialResponseError(
                f"service at {self.endpoint} sent invalid JSON: {exc}"
            ) from exc
        if not isinstance(response, dict):
            raise PartialResponseError("service response is not a JSON object")
        if "error" in response:
            raise ScorerUnavailableError(
                f"service at {self.endpoint} refused request: {response['error']}"
            )
        return response

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        """The reply's first line, without its newline; _MAX_LINE bytes at
        most, wherever the newline falls."""
        chunks = []
        total = 0
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            line, newline, _ = chunk.partition(b"\n")
            chunks.append(line)
            total += len(line)
            if total > _MAX_LINE:
                raise PartialResponseError("service response exceeds line limit")
            if newline:
                break
        if not chunks:
            raise PartialResponseError("service closed without responding")
        return b"".join(chunks)

    def score(self, query: str, items: list[str]) -> list[float]:
        response = self.request({"kind": "score", "query": query, "items": items})
        scores = response.get("scores")
        if not isinstance(scores, list) or len(scores) != len(items):
            got = len(scores) if isinstance(scores, list) else "no"
            raise PartialResponseError(
                f"expected {len(items)} scores, got {got}"
            )
        # The whole reply in C-level passes; a loop only names a bad value.
        try:
            valid = _NUMBER_TYPES.issuperset(map(type, scores)) \
                and all(map(math.isfinite, scores))
        except OverflowError:  # an int too large for a float
            valid = False
        if not valid:
            bad = next(value for value in scores if not finite_number(value))
            raise PartialResponseError(f"non-finite score in response: {bad!r}")
        return list(map(float, scores))


# --- reference server ---

ScoreFn = Callable[[str, list[str]], list[float]]


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: ReferenceServer = self.server.owner  # type: ignore[attr-defined]
        for raw in self.rfile:
            try:
                reply = server.dispatch(raw.decode("utf-8"))
            except Exception as exc:  # surface handler bugs to the client
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            self.wfile.write(
                (json.dumps(reply, ensure_ascii=False) + "\n").encode("utf-8")
            )
            self.wfile.flush()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


class ReferenceServer:
    """In-process line-protocol server for tests and local model hosts.

    Use as a context manager; .endpoint gives the client spec string.
    """

    def __init__(
        self,
        score_fn: ScoreFn,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
    ) -> None:
        self._score_fn = score_fn
        if unix_path is not None:
            self._server: socketserver.BaseServer = _UnixServer(unix_path, _Handler)
            self.endpoint = f"unix:{unix_path}"
        else:
            self._server = _TCPServer((host, port), _Handler)
            bound_port = self._server.server_address[1]
            self.endpoint = f"tcp:{host}:{bound_port}"
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )

    def dispatch(self, raw_line: str) -> dict:
        try:
            request = json.loads(raw_line)
        except json.JSONDecodeError:
            return {"error": "invalid JSON"}
        kind = request.get("kind")
        query = request.get("query", "")
        items = request.get("items", [])
        if not isinstance(items, list):
            return {"error": "items must be a list"}
        if kind != "score":
            return {"error": f"unknown kind {kind!r}"}
        return {"scores": self._score_fn(query, list(items))}

    def __enter__(self) -> "ReferenceServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

