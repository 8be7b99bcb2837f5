"""``read_request`` frames a body by one unambiguous ``Content-Length``.

``Content-Length = 1*DIGIT``, and repeated headers must agree (RFC 9110,
section 8.6). ``int()`` is more lenient than that — it takes ``1_0``, ``+2``
and ``-0`` — and a last-one-wins header dict would silently pick between
disagreeing repeats, so a request smuggled past a front proxy that framed it
differently would be read with a different body here.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.http import MAX_BODY_BYTES, HTTPError, read_request


def _read(head: str, body: bytes = b"0123456789abcdef"):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(f"POST /query HTTP/1.1\r\n{head}\r\n".encode("latin-1") + body)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "head, status",
    [
        ("Content-Length: 1_0\r\n", 400),
        ("Content-Length: +2\r\n", 400),
        ("Content-Length: -0\r\n", 400),
        ("Content-Length: \r\n", 400),
        ("Content-Length: 0x10\r\n", 400),
        ("Content-Length: ²\r\n", 400),
        ("Content-Length: 1,1\r\n", 400),
        ("Content-Length: 2\r\nContent-Length: 5\r\n", 400),
        ("Content-Length: 5\r\ncontent-length: 2\r\n", 400),
        (f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", 413),
        (f"Content-Length: {'9' * 5000}\r\n", 413),
    ],
    ids=[
        "underscore", "plus", "minus-zero", "empty", "hex", "non-ascii-digit", "list",
        "disagreeing-repeats", "disagreeing-repeats-any-case", "over-cap", "over-int-digits",
    ],
)
def test_an_ambiguous_or_oversized_content_length_is_refused(head, status):
    with pytest.raises(HTTPError) as excinfo:
        _read(head)
    assert excinfo.value.status == status


@pytest.mark.parametrize(
    "head, body",
    [
        ("Content-Length: 5\r\n", b"01234"),
        ("Content-Length: 005\r\n", b"01234"),
        ("Content-Length: 5\r\nContent-Length: 05\r\n", b"01234"),
        ("Content-Length: 0\r\n", b""),
        ("", b""),
    ],
    ids=["plain", "leading-zeros", "agreeing-repeats", "zero", "absent"],
)
def test_one_decimal_length_frames_the_body(head, body):
    request = _read(head)
    assert request.body == body
