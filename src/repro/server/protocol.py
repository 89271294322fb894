"""The daemon's wire protocol: line-delimited JSON with typed errors.

One request object per line, one response object per line, in order,
over a plain TCP stream.  Every request carries a client-chosen ``id``
that the matching response echoes, so a client can pipeline requests
and correlate answers; a connection starts with a versioned ``hello``
handshake and every later line is a query::

    -> {"id": 0, "type": "hello", "version": 1}
    <- {"id": 0, "ok": true, "result": {"server": "repro", ...}}
    -> {"id": 1, "type": "implies", "bundle": {...}, "nfd": "R:[a -> b]"}
    <- {"id": 1, "ok": true, "result": {"implied": true, ...}}

Responses are either ``{"id", "ok": true, "result": {...}}`` or a
*typed error* ``{"id", "ok": false, "error": CODE, "message": ...}`` —
the daemon never answers a malformed or failing request with silence,
a hang, or a stack trace.  The error codes are enumerated in
:data:`ERROR_CODES`; two deserve special mention:

* ``overloaded`` — admission control shed the request; the response
  carries ``retry_after_ms`` and the connection stays usable;
* ``deadline_exceeded`` — the request's cooperative deadline expired
  mid-computation (``check`` reuses the stream engine's
  :class:`~repro.nfd.stream_validate.ResourceBudget` cancellation);
  the response carries ``elements_seen`` so clients can reason about
  partial progress.

Queries name their constraint universe by shipping a *bundle* — the
same JSON object the CLI's bundle files hold (``schema`` / ``nfds`` /
optional ``nonempty`` and ``instance``; see :mod:`repro.io.json_io`) —
and the daemon keys its warm state on the bundle's canonical
:func:`~repro.inference.session.sigma_fingerprint`, so any client
spelling the same logical Σ shares the compiled pool.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import ReproError
from ..inference.empty_sets import NonEmptySpec
from ..io.json_io import (instance_from_dict, nfds_from_list,
                          schema_from_dict)
from ..paths.path import parse_path

__all__ = [
    "PROTOCOL_VERSION", "DEFAULT_PORT", "MAX_FRAME_BYTES",
    "ERROR_CODES", "STRATEGIES", "ProtocolError",
    "encode", "decode_line", "ok_response", "error_response",
    "parse_bundle_payload",
]

#: The handshake version this build speaks.  Bump on any change that
#: an old client could misread; the server refuses mismatched hellos
#: with a ``version_mismatch`` error naming both versions.
PROTOCOL_VERSION = 1

#: The port ``repro serve`` binds when none is given (0 = ephemeral).
DEFAULT_PORT = 7399

#: Default per-line frame bound.  A line longer than this is answered
#: with ``frame_too_large`` and the connection is closed (the stream
#: position past an oversized frame is unrecoverable).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The closure-strategy names a protocol v1 query may still carry in
#: its ``strategy`` field.  They are validated and then ignored: one
#: kernel answers every query.
STRATEGIES = ("worklist", "naive", "dense")

#: Every error code a response may carry.
ERROR_CODES = (
    "bad_json",          # the line was not valid JSON
    "bad_request",       # valid JSON, but not a usable request object
    "frame_too_large",   # the line exceeded the frame bound
    "handshake_required",  # a query arrived before hello
    "version_mismatch",  # hello named an unsupported protocol version
    "unknown_type",      # an unrecognized request type
    "invalid_bundle",    # the bundle payload failed to parse
    "invalid_query",     # query parameters failed validation / parsing
    "overloaded",        # admission control shed the request
    "deadline_exceeded",  # the cooperative deadline expired
    "shutdown_disabled",  # remote shutdown without --allow-shutdown
    "internal",          # unexpected server-side failure (no traceback
                         # crosses the wire or the daemon's stderr)
)


class ProtocolError(ReproError):
    """A request violated the wire protocol.

    Raised server-side while decoding a frame and rendered as a typed
    error response; ``code`` is one of :data:`ERROR_CODES` and
    ``close`` says whether the connection can keep serving (a JSON
    syntax error is recoverable — the stream resyncs at the next
    newline — but an oversized frame or a failed handshake is not).
    """

    def __init__(self, code: str, message: str, *, close: bool = False):
        assert code in ERROR_CODES, code
        self.code = code
        self.close = close
        super().__init__(message)


def encode(obj: dict) -> bytes:
    """One wire frame: compact JSON plus the line terminator."""
    return json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Decode one request frame, raising :class:`ProtocolError` with
    the matching error code instead of leaking decoder exceptions."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("bad_json",
                            f"frame is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "bad_json",
            f"frame is not valid JSON at column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_request",
            f"request must be a JSON object, found "
            f"{type(payload).__name__}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(
            "bad_request",
            f'"id" must be a string or integer, found '
            f"{type(request_id).__name__}")
    request_type = payload.get("type")
    if not isinstance(request_type, str):
        raise ProtocolError(
            "bad_request",
            'request is missing the required "type" string')
    return payload


def ok_response(request_id: Any, request_type: str,
                result: dict) -> dict:
    return {"id": request_id, "ok": True, "type": request_type,
            "result": result}


def error_response(request_id: Any, code: str, message: str,
                   **extra: Any) -> dict:
    assert code in ERROR_CODES, code
    response = {"id": request_id, "ok": False, "error": code,
                "message": message}
    response.update(extra)
    return response


def parse_bundle_payload(payload: Any):
    """Parse a request's ``bundle`` object into model objects.

    The payload is the parsed form of a CLI bundle file — ``schema``
    and ``nfds`` required on the wire, ``instance`` and ``nonempty``
    optional — and any shape or syntax problem surfaces as a
    :class:`ProtocolError` with code ``invalid_bundle``.  Returns
    ``(schema, sigma, instance, nonempty_spec)``.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            "invalid_bundle",
            f'"bundle" must be a JSON object, found '
            f"{type(payload).__name__}")
    if "schema" not in payload:
        raise ProtocolError(
            "invalid_bundle", 'bundle is missing the required "schema"')
    try:
        schema = schema_from_dict(payload["schema"])
        sigma = nfds_from_list(payload.get("nfds", []))
        instance = None
        if payload.get("instance") is not None:
            instance = instance_from_dict(schema, payload["instance"])
        declared = payload.get("nonempty")
        if declared is None:
            spec = None
        elif declared == "*":
            spec = NonEmptySpec.all_nonempty()
        elif isinstance(declared, list):
            spec = NonEmptySpec({parse_path(item) for item in declared})
        else:
            raise ProtocolError(
                "invalid_bundle",
                '"nonempty" must be "*" or a list of paths')
    except ProtocolError:
        raise
    except (ReproError, TypeError, AttributeError, KeyError) as exc:
        raise ProtocolError("invalid_bundle",
                            f"bundle does not parse: {exc}") from exc
    return schema, sigma, instance, spec
