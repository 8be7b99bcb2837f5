"""Minimal HTTP/1.1 over asyncio streams — the serving plane's front door.

The environment bakes in no web framework, and the service's needs are
narrow: parse a request line + headers, read a ``Content-Length`` body,
write a response with a handful of headers, honour keep-alive. This module
is exactly that and nothing more — no chunked transfer encoding (501), no
multipart, no TLS. Anything malformed maps to a 4xx via :class:`HTTPError`
instead of tearing the connection down mid-stream.
"""

from __future__ import annotations

#: Maximum request head (request line + headers) we will buffer.
MAX_HEAD_BYTES = 32 * 1024
#: Maximum request body (texts ride in JSON; tables can be a few MB).
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(Exception):
    """A request-level problem answered with a status code, not a raise-out."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class Request:
    """One parsed request: method, path, lowercase headers, raw body bytes."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str, headers: dict, body: bytes, keep_alive: bool):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


async def read_request(reader) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF between requests."""
    import asyncio

    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HTTPError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HTTPError(413, "request head too large") from exc
    if len(head) > MAX_HEAD_BYTES:
        raise HTTPError(413, "request head too large")
    try:
        lines = head[:-4].decode("latin-1").split("\r\n")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 never fails
        raise HTTPError(400, "undecodable request head") from exc
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, f"malformed request line {lines[0]!r}")
    method, path, version = parts
    headers: dict[str, str] = {}
    lengths: list[str] = []
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        headers[name] = value
        if name == "content-length":
            lengths.append(value)
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(501, "chunked transfer encoding is not supported")
    body = b""
    if lengths:
        # Content-Length = 1*DIGIT; repeats must agree (RFC 9110, 8.6).
        if not all(value.isascii() and value.isdigit() for value in lengths):
            raise HTTPError(400, "malformed Content-Length")
        try:
            values = {int(value) for value in lengths}
        except ValueError as exc:  # more digits than int() converts
            raise HTTPError(413, f"body exceeds the {MAX_BODY_BYTES} byte cap") from exc
        if len(values) != 1:
            raise HTTPError(400, "conflicting Content-Length headers")
        (length,) = values
        if length > MAX_BODY_BYTES:
            raise HTTPError(413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES} cap")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HTTPError(400, "connection closed mid-body") from exc
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and (version != "HTTP/1.0" or connection == "keep-alive")
    return Request(method, path, headers, body, keep_alive)


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict | None = None,
) -> bytes:
    """One full response, Content-Length framed (the only framing we emit)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
