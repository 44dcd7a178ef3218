"""Minimal HTTP/1.1 request/response + SSE framing over asyncio streams.

Just enough protocol for the sweep server's JSON API: parse one request
per connection, write one response (or one server-sent event stream)
and close.  ``Connection: close`` semantics keep the state machine
trivial -- a sweep job costs seconds of simulation, so per-request
connection setup is noise, and the stdlib-only constraint rules out a
framework.

Server-sent events follow the WHATWG framing: each event is an
``event:`` name line, one ``data:`` line carrying a JSON object, an
``id:`` line with the event's sequence number, and a blank line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

#: Largest accepted request body (a job spec is a few hundred bytes;
#: anything near this bound is a client bug, not a bigger sweep).
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request line or header line.
MAX_LINE_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed request; carries the HTTP status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object (empty body -> empty object)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ProtocolError(400, "body must be a JSON object")
        return data

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default


async def read_request(reader) -> Request | None:
    """Parse one request off ``reader``; None on clean EOF before any bytes.

    Raises :class:`ProtocolError` on malformed input; the server answers
    with the carried status and closes.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line {line!r}")
    method, target, _version = parts
    split = urlsplit(target)

    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(400, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as exc:
            raise ProtocolError(400, f"bad Content-Length {length!r}") from exc
        if n < 0:
            raise ProtocolError(400, f"bad Content-Length {n}")
        if n > MAX_BODY_BYTES:
            raise ProtocolError(413, f"body of {n} bytes exceeds the limit")
        if n:
            try:
                body = await reader.readexactly(n)
            except Exception as exc:
                raise ProtocolError(400, f"truncated body: {exc}") from exc

    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """One complete HTTP/1.1 response (always ``Connection: close``)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(status: int, payload: dict) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response_bytes(status, body)


def error_response(status: int, message: str) -> bytes:
    return json_response(status, {"error": message, "status": status})


def sse_preamble() -> bytes:
    """Response head opening a server-sent event stream (no length --
    the stream ends when the connection closes)."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")


def sse_event(record: dict, *, seq: int | None = None) -> bytes:
    """One server-sent event.

    ``record["kind"]`` becomes the SSE ``event:`` name; the whole record
    is the JSON ``data:`` payload (single line by construction --
    ``json.dumps`` never emits raw newlines).
    """
    kind = str(record.get("kind", "message"))
    lines = [f"event: {kind}"]
    if seq is not None:
        lines.append(f"id: {seq}")
    lines.append(f"data: {json.dumps(record, sort_keys=True, default=str)}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")
