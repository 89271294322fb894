"""A thin synchronous client for the constraint-checking daemon.

:class:`ReproClient` speaks the line-delimited JSON protocol of
:mod:`repro.server.protocol` over one TCP connection: the constructor
performs the versioned ``hello`` handshake, every call sends one
request line and reads one response line, and ids are correlated
explicitly so a mismatched reply is an error rather than a silent
misattribution.  Every socket operation runs under a timeout — a dead
or wedged server surfaces as :class:`ClientError`, never a hang.

Typed server errors raise :class:`ServerError` carrying the protocol
error ``code`` (``overloaded`` replies also carry ``retry_after_ms``);
transport-level failures — refused connections, timeouts, mid-reply
disconnects — raise :class:`ClientError`.  Both derive from
:class:`~repro.errors.ReproError`, so CLI call sites handle them like
any other library failure.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from ..errors import ReproError
from .protocol import PROTOCOL_VERSION, encode

__all__ = ["ReproClient", "ServerError", "ClientError",
           "parse_endpoint"]

#: Default per-operation socket timeout (seconds).
DEFAULT_TIMEOUT = 30.0


class ClientError(ReproError):
    """The transport failed: connect, send, or receive."""


class ServerError(ReproError):
    """The daemon answered with a typed error response."""

    def __init__(self, code: str, message: str,
                 response: dict | None = None):
        self.code = code
        self.response = response if response is not None else {}
        super().__init__(f"{code}: {message}")

    @property
    def retry_after_ms(self) -> int | None:
        """Advisory backoff from an ``overloaded`` response."""
        value = self.response.get("retry_after_ms")
        return value if isinstance(value, int) else None


def parse_endpoint(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` with a typed error on junk."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ClientError(
            f"server endpoint must be HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ClientError(
            f"server endpoint port must be an integer, got "
            f"{port_text!r}") from exc
    if not 0 < port < 65536:
        raise ClientError(f"server endpoint port out of range: {port}")
    return host, port


class ReproClient:
    """One connection to a running daemon.

    ::

        with ReproClient(host, port) as client:
            client.implies(bundle, "Course:[cnum -> time]")
            client.closure(bundle, "Course", ["cnum"])

    *bundle* arguments are plain bundle dicts — exactly the parsed
    form of a CLI bundle file (``schema`` / ``nfds`` / optional
    ``nonempty`` / ``instance``); the helpers here do no model-object
    parsing of their own, keeping the client dependency-light.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = DEFAULT_TIMEOUT,
                 handshake: bool = True):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._next_id = 0
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        except OSError as exc:
            raise ClientError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        self._sock.settimeout(timeout)
        self._recv_file = self._sock.makefile("rb")
        self.server_info: dict = {}
        if handshake:
            try:
                self.server_info = self.hello()
            except ReproError:
                self.close()
                raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        try:
            self._recv_file.close()
        except OSError:  # pragma: no cover - best effort
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def send_raw(self, data: bytes) -> None:
        """Ship raw bytes (fault-injection tests speak junk through
        the same socket the typed API uses)."""
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ClientError(f"send failed: {exc}") from exc

    def read_response(self) -> dict:
        """One response line, decoded (no id checking)."""
        try:
            line = self._recv_file.readline()
        except (OSError, ValueError) as exc:
            raise ClientError(f"receive failed: {exc}") from exc
        if not line:
            raise ClientError("server closed the connection")
        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClientError(
                f"server sent an undecodable response: {exc}") from exc
        if not isinstance(response, dict):
            raise ClientError("server response is not an object")
        return response

    def request(self, request_type: str, **params: Any) -> dict:
        """Send one request, await its correlated response, unwrap.

        Returns the ``result`` object of an ``ok`` response; raises
        :class:`ServerError` for a typed error response.
        """
        request_id = self._next_id
        self._next_id += 1
        payload = {"id": request_id, "type": request_type}
        for name, value in params.items():
            if value is not None:
                payload[name] = value
        self.send_raw(encode(payload))
        response = self.read_response()
        if response.get("id") != request_id:
            raise ClientError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}")
        if not response.get("ok"):
            raise ServerError(response.get("error", "internal"),
                              response.get("message", ""),
                              response)
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    # -- the protocol's verbs ----------------------------------------------

    def hello(self) -> dict:
        return self.request("hello", version=PROTOCOL_VERSION)

    def ping(self, sleep_ms: int | None = None) -> dict:
        return self.request("ping", sleep_ms=sleep_ms)

    def stats(self) -> dict:
        return self.request("stats")

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def implies(self, bundle: dict, nfd: str) -> bool:
        result = self.request("implies", bundle=bundle, nfd=nfd)
        return bool(result.get("implied"))

    def closure(self, bundle: dict, base: str,
                paths: list[str]) -> list[str]:
        result = self.request("closure", bundle=bundle, base=base,
                              paths=list(paths))
        return list(result.get("closure", []))

    def closure_many(self, bundle: dict,
                     queries: list[tuple[str, list[str]]]) \
            -> list[list[str]]:
        result = self.request(
            "closure", bundle=bundle,
            queries=[[base, list(paths)] for base, paths in queries])
        return [list(item) for item in result.get("closures", [])]

    def keys(self, bundle: dict, relation: str | None = None) -> dict:
        return self.request("keys", bundle=bundle, relation=relation)

    def check(self, bundle: dict, *,
              deadline: float | None = None) -> dict:
        return self.request("check", bundle=bundle, deadline=deadline)
