"""Minimal multipart/related codec for DICOMweb payloads."""
from __future__ import annotations

import secrets

from ..errors import ProtocolError

CRLF = b"\r\n"


def random_boundary() -> str:
    """32 hex characters; effectively collision-proof against payload bytes."""
    return secrets.token_hex(16)


def build_multipart(parts: list[bytes], boundary: str) -> bytes:
    """multipart/related payload of application/dicom parts."""
    delimiter = b"--" + boundary.encode("ascii")
    chunks = []
    for part in parts:
        chunks.append(delimiter + CRLF)
        chunks.append(b"Content-Type: application/dicom" + CRLF)
        chunks.append(f"Content-Length: {len(part)}".encode("ascii") + CRLF)
        chunks.append(CRLF)
        chunks.append(part)  # joined once below, not copied per part
        chunks.append(CRLF)
    chunks.append(delimiter + b"--" + CRLF)
    return b"".join(chunks)


def content_type_header(boundary: str) -> str:
    return f'multipart/related; type="application/dicom"; boundary={boundary}'


def boundary_from_content_type(value: str) -> str:
    for param in value.split(";"):
        param = param.strip()
        if param.lower().startswith("boundary="):
            boundary = param.split("=", 1)[1].strip()
            return boundary.strip('"')
    raise ProtocolError(f"no boundary parameter in content type {value!r}")


def parse_multipart(body: bytes, boundary: str) -> list[tuple[dict[str, str], bytes]]:
    """Split a multipart/related payload into (headers, content) parts.

    Boundaries and part headers must be ASCII; anything else is a
    ProtocolError, like every other malformed payload.
    """
    if not boundary.isascii():
        raise ProtocolError(f"multipart boundary {boundary!r} is not ASCII")
    delimiter = b"--" + boundary.encode("ascii")
    start = body.find(delimiter)
    if start < 0:
        raise ProtocolError("multipart boundary not found in payload")
    parts = []
    pos = start
    while True:
        pos += len(delimiter)
        if body[pos:pos + 2] == b"--":
            break
        if body[pos:pos + 2] != CRLF:
            raise ProtocolError("malformed multipart delimiter")
        pos += 2
        header_end = body.find(CRLF + CRLF, pos)
        if header_end < 0:
            raise ProtocolError("unterminated multipart part headers")
        head = body[pos:header_end]
        if not head.isascii():
            raise ProtocolError("non-ASCII bytes in multipart part headers")
        headers = {}
        for line in head.split(CRLF):
            if b":" in line:
                key, _, value = line.partition(b":")
                headers[key.decode("ascii").strip().lower()] = value.decode(
                    "ascii"
                ).strip()
        content_start = header_end + 4
        next_delim = body.find(CRLF + delimiter, content_start)
        if next_delim < 0:
            raise ProtocolError("unterminated multipart part content")
        parts.append((headers, body[content_start:next_delim]))
        pos = next_delim + 2
    return parts
