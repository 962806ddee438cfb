"""Binary PGM (P5, maxval 255) reader/writer for mask and label-map I/O."""
from __future__ import annotations

import re

import numpy as np

from .errors import DicomforgeError


def pgm_bytes(array: np.ndarray) -> bytes:
    """Serialize a 2D uint8 array with the canonical 'P5\\n{w} {h}\\n255\\n' header."""
    array = np.asarray(array)
    if array.ndim != 2:
        raise ValueError("PGM images are 2D")
    if array.min() < 0 or array.max() > 255:
        raise ValueError("PGM pixel values must fit in 0..255")
    rows, cols = array.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + array.astype(np.uint8).tobytes()


def pgm_from_bytes(data: bytes) -> np.ndarray:
    """Parse P5 bytes (comments and loose whitespace tolerated); a stream
    that is not such a graymap raises DicomforgeError."""
    if not data.startswith(b"P5"):
        raise DicomforgeError("not a P5 portable graymap")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            end = data.find(b"\n", pos)
            pos = end + 1 if end >= 0 else len(data)
            continue
        match = re.match(rb"[0-9]+", data[pos:])
        if not match:
            raise DicomforgeError("malformed PGM header")
        fields.append(int(match.group(0)))
        pos += match.end()
    cols, rows, maxval = fields
    if maxval > 255:
        raise DicomforgeError("only 8-bit PGM is supported")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < rows * cols:
        raise DicomforgeError(f"PGM pixel data is shorter than {cols} x {rows}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=rows * cols, offset=pos)
    return pixels.reshape(rows, cols).copy()


def write_pgm(path, array: np.ndarray) -> None:
    with open(path, "wb") as handle:
        handle.write(pgm_bytes(array))


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as handle:
        return pgm_from_bytes(handle.read())
