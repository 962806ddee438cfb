"""Element-stream codec: implicit/explicit VR little endian (PS3.5 subset).

Reading accepts implicit and explicit VR little endian, with defined- and
undefined-length sequences. Writing emits explicit VR little endian only,
with defined-length sequences and even value lengths, so output is
canonical and byte-stable under re-encoding.

Decoding walks one ``bytes`` object: each reader takes a position and
returns the next one, and the only copies are the values themselves (a
Part 10 stream is read in place, meta group and data set alike). Every
field read is bounds-checked first, so a short or overrunning stream
raises :class:`DecodeError` with the byte offset where reading failed,
never a ``struct`` or index error. Sequences nested deeper than
``MAX_NESTING`` levels also raise :class:`DecodeError`, well before the
interpreter's recursion limit.

Each decode call keeps a memo of the defined-length sequence items of at
most ``MEMO_MAX_ITEM`` bytes it has decoded, keyed by ``(depth, the
item's bytes)``; a Part 10 meta group, always explicit VR, shares none
with its data set. An item whose bytes and depth are already in the memo
is the data set built for them, and reading skips to its end; so a
repeated item (a code item, for one, repeats in every SR content item
that names the same concept) is decoded once and shared. This keeps every
check: a defined-length item that decodes without error has read only its
own bytes, and its decoding depends otherwise only on its depth
(``MAX_NESTING``) and the transfer syntax, fixed for one memo; an item
that fails is never stored, so errors and offsets are unchanged. The keys
are copies of at most ``MEMO_MAX_ITEM`` bytes, cheaper to make, hash and
compare than a fresh view of so short an item; the size cap keeps a large
value nested deep from being copied or hashed once per enclosing item,
since no item that holds it is keyed. Items of undefined length end where
their delimiter is found, not at a known offset, and are decoded one by
one.

The same memo shares nested elements: each non-sequence element of at
most ``MEMO_MAX_ITEM`` bytes inside an item, keyed by its bytes alone, is
decoded once, so the relationship, value type and graphic type elements
repeated through an SR's content items (and the equal elements of items
that differ elsewhere) are one object each. An element's value depends on
its bytes and the transfer syntax only, and one that fails is never
stored. Top-level elements are not keyed: their tags are unique within
the data set, so none can repeat. The keys are dropped when the call
returns, and decoded values are copies, so the result holds no reference
to the input.

Encoding appends to one ``bytearray`` and back-patches sequence and item
lengths once their contents are written; a sequence item object that
occurs more than once in the data set (shared code items, for one) is
encoded once and its bytes copied for each repeat, decoded data sets
included.
"""
from __future__ import annotations

import struct

from .dataset import DataElement, DataSet
from .errors import DecodeError, EncodeError, UnsupportedTransferSyntaxError
from .tags import DICTIONARY, Tag
from .uid import (
    EXPLICIT_VR_LITTLE_ENDIAN,
    IMPLICIT_VR_LITTLE_ENDIAN,
    READ_TRANSFER_SYNTAXES,
)
from .valuerep import (
    BYTES_VRS,
    INT_VRS,
    LONG_FORM_VRS,
    MAX_VALUE_LENGTH,
    TEXT_MULTI_VRS,
    TEXT_SINGLE_VRS,
    TEXT_VRS,
    VR,
    padding_byte,
)

UNDEFINED_LENGTH = 0xFFFFFFFF

# Sequences deeper than this are rejected: each level costs the decoder
# three stack frames, so 64 levels stay far below the recursion limit.
MAX_NESTING = 64

# Only items and nested elements of at most this many bytes enter the
# decoder's memo. A code item is at most about 150 bytes and an SR CODE
# content item with two of them about 380, so every repeated item of an SR
# is shared; a large value nested n items deep is not hashed n times.
MEMO_MAX_ITEM = 512

_EXPLICIT_HEADER = struct.Struct("<HH2sH")  # tag, VR, 16-bit length
_TAG_AND_U32 = struct.Struct("<HHI")        # implicit header, item header
_U32 = struct.Struct("<I")

_VR_BY_CODE = {vr.value.encode("ascii"): vr for vr in VR}
_CODE_BY_VR = {vr: code for code, vr in _VR_BY_CODE.items()}
# (format character, value width) of the binary numeric VRs; AT values are
# read as pairs of 16-bit words.
_NUMERIC = {
    VR.US: ("H", 2), VR.SS: ("h", 2), VR.UL: ("I", 4), VR.SL: ("i", 4),
    VR.FL: ("f", 4), VR.FD: ("d", 8), VR.AT: ("H", 4),
}

_DELIMITER_GROUP = 0xFFFE
_ITEM = 0xE000
_ITEM_DELIMITER = 0xE00D
_SEQUENCE_DELIMITER = 0xE0DD
_DELIMITERS = (_ITEM, _ITEM_DELIMITER, _SEQUENCE_DELIMITER)
_ITEM_DELIMITER_BYTES = b"\xfe\xff\x0d\xe0"

# Dictionary VRs and Tag objects for dictionary and delimiter tags, keyed by
# group << 16 | element.
_IMPLICIT_VRS = {tag.group << 16 | tag.element: vr for tag, (vr, _) in DICTIONARY.items()}
_TAGS = {tag.group << 16 | tag.element: tag for tag in DICTIONARY}
for _element in _DELIMITERS:
    _TAGS[_DELIMITER_GROUP << 16 | _element] = Tag(_DELIMITER_GROUP, _element)
_new_tuple = tuple.__new__
_new_element = DataElement.__new__
# VRs the per-element paths test for, bound once (a class attribute lookup
# on the enum costs more than the test)
_SQ, _UI, _DS, _UN = VR.SQ, VR.UI, VR.DS, VR.UN


def _tag(group: int, element: int) -> Tag:
    """Tag for two unpacked u16 words (always in range, so unchecked)."""
    return _TAGS.get(group << 16 | element) or _new_tuple(Tag, (group, element))


def _truncated(data: bytes, pos: int, widths) -> None:
    """Raise the error that reading fields of `widths` bytes one after
    another from `pos` hits first."""
    for width in widths:
        if pos + width > len(data):
            raise DecodeError(
                f"truncated stream: needed {width} bytes, "
                f"{len(data) - pos} remain",
                offset=pos,
            )
        pos += width


def _short_header(data: bytes, pos: int, implicit: bool) -> None:
    """Raise the error that reading the element header at `pos` field by
    field hits, for a header cut short by the end of the stream."""
    _truncated(data, pos, (2, 2))
    tag = _tag(*struct.unpack_from("<HH", data, pos))
    if tag.group == _DELIMITER_GROUP and tag.element in _DELIMITERS:
        raise DecodeError(f"unexpected delimiter {tag} outside a sequence", offset=pos)
    if implicit:
        _truncated(data, pos + 4, (4,))
    _truncated(data, pos + 4, (2,))
    vr_code = data[pos + 4:pos + 6]
    if vr_code not in _VR_BY_CODE:
        raise DecodeError(f"unknown VR {vr_code!r} for {tag}", offset=pos)
    _truncated(data, pos + 6, (2,))


def _parse_text(vr: VR, data: bytes, offset: int):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid UTF-8 in {vr} value: {exc}", offset=offset)
    if vr in TEXT_SINGLE_VRS:
        return text.rstrip(" \x00") if text else ""
    if vr is _UI:
        text = text.rstrip("\x00")
    else:
        text = text.rstrip(" ")
    if not text:
        return ()
    parts = text.split("\\")
    if vr is _DS:
        return tuple(p.strip() for p in parts)
    return tuple(parts)


def _parse_value(vr: VR, data: bytes, pos: int, end: int, offset: int):
    """Value of a non-text element whose bytes are data[pos:end]; `offset`
    is where the element starts, for errors."""
    numeric = _NUMERIC.get(vr)
    if numeric is not None:
        char, width = numeric
        length = end - pos
        if length % width:
            raise DecodeError(f"{vr} value length not a multiple of {width}", offset=offset)
        if vr is VR.AT:
            words = struct.unpack_from(f"<{length // 2}H", data, pos)
            return tuple(_tag(words[i], words[i + 1]) for i in range(0, len(words), 2))
        return struct.unpack_from(f"<{length // width}{char}", data, pos)
    if vr in BYTES_VRS:
        return data[pos:end]
    if vr is VR.IS:
        text = data[pos:end].decode("ascii", errors="replace").strip(" \x00")
        if not text:
            return ()
        try:
            return tuple(int(p.strip()) for p in text.split("\\"))
        except ValueError as exc:
            raise DecodeError(f"bad IS value {text!r}: {exc}", offset=offset)
    raise DecodeError(f"cannot parse VR {vr}", offset=offset)


def _read_element(data: bytes, pos: int, implicit: bool, depth: int,
                  memo: dict) -> tuple[DataElement, int]:
    """Read the element at `pos`; returns it and the position after it.
    `depth` counts the sequences that enclose it; `memo` holds the nested
    elements and defined-length items decoded so far in this call.

    `memo` maps the bytes of a non-sequence element of at most
    ``MEMO_MAX_ITEM`` bytes, read at depth 1 or more, to the element built
    from them; an element met again is that same object. Its value depends
    on its bytes alone, the transfer syntax being fixed for one memo."""
    start = pos
    if pos + 8 > len(data):
        _short_header(data, pos, implicit)
    if implicit:
        group, number, length = _TAG_AND_U32.unpack_from(data, pos)
    else:
        group, number, vr_code, length = _EXPLICIT_HEADER.unpack_from(data, pos)
    word = group << 16 | number
    tag = _TAGS.get(word) or _new_tuple(Tag, (group, number))
    if group == _DELIMITER_GROUP and number in _DELIMITERS:
        raise DecodeError(f"unexpected delimiter {tag} outside a sequence", offset=start)
    pos += 8
    if implicit:
        vr = _IMPLICIT_VRS.get(word, _UN)
    else:
        vr = _VR_BY_CODE.get(vr_code)
        if vr is None:
            raise DecodeError(f"unknown VR {vr_code!r} for {tag}", offset=start)
        if vr in LONG_FORM_VRS:
            if pos + 4 > len(data):
                _truncated(data, pos, (4,))
            length = _U32.unpack_from(data, pos)[0]
            pos += 4

    if vr is _SQ:
        if depth >= MAX_NESTING:
            raise DecodeError(
                f"sequence {tag} nested deeper than {MAX_NESTING} levels",
                offset=start,
            )
        if length == UNDEFINED_LENGTH:
            value, pos = _read_items(data, pos, None, implicit, depth + 1, memo)
        else:
            end = pos + length
            if end > len(data):
                raise DecodeError(f"sequence length overruns stream for {tag}", offset=start)
            value, pos = _read_items(data, pos, end, implicit, depth + 1, memo)
            if pos != end:
                raise DecodeError(f"sequence items overran declared length for {tag}", offset=start)
        key = None  # a sequence is never stored
    else:
        if length == UNDEFINED_LENGTH:
            raise DecodeError(f"undefined length on non-sequence element {tag}", offset=start)
        end = pos + length
        if end > len(data):
            _truncated(data, pos, (length,))
        # an element nested in an item may repeat in the data set; one at
        # the top level cannot, so it is not keyed
        key = data[start:end] if depth and end - start <= MEMO_MAX_ITEM else None
        element = memo.get(key)
        if element is not None:
            return element, end
        if vr in TEXT_VRS:
            value = _parse_text(vr, data[pos:end], start)
        else:
            value = _parse_value(vr, data, pos, end, start)
        pos = end
    # decoded values skip DataElement's normalization checks, which foreign
    # streams may violate (e.g. DS length)
    element = _new_element(DataElement)
    element.tag = tag
    element.vr = vr
    element._value = value
    if key is not None:
        memo[key] = element
    return element, pos


def _read_items(data: bytes, pos: int, end: int | None, implicit: bool,
                depth: int, memo: dict) -> tuple[tuple, int]:
    """Read sequence items up to `end`, or up to the sequence delimiter
    when `end` is None.

    `memo` maps ``(depth, the item's bytes)`` to the data set
    already decoded from a defined-length item of at most ``MEMO_MAX_ITEM``
    bytes with those bytes at that depth; an item met again is that same
    object, and reading resumes after it."""
    items = []
    while True:
        if end is not None:
            if pos >= end:
                break
        elif pos >= len(data):
            raise DecodeError("unterminated undefined-length sequence", offset=pos)
        at = pos
        if pos + 8 > len(data):
            _truncated(data, pos, (2, 2, 4))
        group, number, length = _TAG_AND_U32.unpack_from(data, pos)
        pos += 8
        if group == _DELIMITER_GROUP and number == _SEQUENCE_DELIMITER:
            if end is not None:
                raise DecodeError(
                    "sequence delimiter inside defined-length sequence", offset=at
                )
            break
        if group != _DELIMITER_GROUP or number != _ITEM:
            raise DecodeError(
                f"expected sequence item, found {_tag(group, number)}", offset=at
            )
        if length == UNDEFINED_LENGTH:
            item, pos = _read_dataset(data, pos, None, True, implicit, depth, memo)
        else:
            item_end = pos + length
            if item_end > len(data):
                raise DecodeError("item length overruns stream", offset=at)
            key = ((depth, data[pos:item_end])
                   if length <= MEMO_MAX_ITEM else None)  # None is never stored
            item = memo.get(key)
            if item is None:
                item, pos = _read_dataset(data, pos, item_end, False, implicit,
                                          depth, memo)
                if key is not None:
                    memo[key] = item
            else:
                pos = item_end
        items.append(item)
    return tuple(items), pos


def _read_dataset(data: bytes, pos: int, end: int | None, in_item: bool,
                  implicit: bool, depth: int, memo: dict) -> tuple[DataSet, int]:
    """Read elements up to `end`; with no `end`, up to the item delimiter
    (`in_item`) or the end of the stream."""
    elements = {}
    while True:
        if end is not None:
            if pos > end:
                raise DecodeError("element overran enclosing length", offset=pos)
            if pos == end:
                break
        elif pos >= len(data):
            if in_item:
                raise DecodeError("unterminated undefined-length item", offset=pos)
            break
        if in_item:
            if pos + 8 > len(data):
                _truncated(data, pos, (2, 2, 4))
            if data.startswith(_ITEM_DELIMITER_BYTES, pos):
                pos += 8
                break
        element, pos = _read_element(data, pos, implicit, depth, memo)
        elements[element.tag] = element
    ds = DataSet.__new__(DataSet)
    ds._elements = elements
    return ds, pos


def _is_implicit(syntax: str) -> bool:
    """True for implicit VR; raises for syntaxes outside the read set."""
    if syntax not in READ_TRANSFER_SYNTAXES:
        raise UnsupportedTransferSyntaxError(f"unsupported transfer syntax {syntax}")
    return syntax == IMPLICIT_VR_LITTLE_ENDIAN


def decode_dataset(data: bytes, syntax: str = EXPLICIT_VR_LITTLE_ENDIAN) -> DataSet:
    """Decode a full element stream in the named transfer syntax.

    Raises
    ------
    UnsupportedTransferSyntaxError
        For syntaxes outside the supported read set.
    DecodeError
        On truncated streams, length overruns, undefined-length
        non-sequence elements, or sequences nested deeper than
        ``MAX_NESTING``; the message carries the byte offset.
    """
    implicit = _is_implicit(syntax)
    if not isinstance(data, bytes):
        data = bytes(data)
    return _read_dataset(data, 0, None, False, implicit, 0, {})[0]


def decode_file_body(data: bytes, pos: int) -> tuple[DataSet, DataSet]:
    """Decode the group-0002 file meta elements at `pos` (explicit VR), then
    the data set after them in the transfer syntax the meta group names.

    Offsets in errors count from the start of `data`.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    meta = DataSet()
    while pos + 2 <= len(data) and data[pos] == 0x02 and data[pos + 1] == 0x00:
        element, pos = _read_element(data, pos, False, 0, {})
        meta.add(element)
    syntax = meta.value("TransferSyntaxUID")
    if syntax is None:
        raise DecodeError("file meta lacks TransferSyntaxUID", offset=pos)
    implicit = _is_implicit(syntax)
    return meta, _read_dataset(data, pos, None, False, implicit, 0, {})[0]


# -- encoding ---------------------------------------------------------------


def _encode_bytes(element: DataElement) -> bytes:
    data = element._value  # padded even at construction,
    if len(data) % 2:      # but decoded foreign values may arrive odd
        data += b"\x00"
    return data


def _encode_integer_strings(element: DataElement) -> bytes:
    for v in element._value:
        if len(str(v)) > 12:
            raise EncodeError(f"{element.tag}: IS value {v} exceeds 12 characters")
    data = "\\".join(str(v) for v in element._value).encode("ascii")
    if len(data) % 2:
        data += b" "
    return data


def _encode_text(element: DataElement, text: str, parts) -> bytes:
    """UTF-8 bytes of `text`, the joined `parts`, padded to even length."""
    data = text.encode("utf-8")
    vr = element.vr
    limit = MAX_VALUE_LENGTH.get(vr)
    # no single value is longer than all of them joined
    if limit is not None and len(data) > limit:
        for part in parts:
            if len(str(part).encode("utf-8")) > limit:
                raise EncodeError(
                    f"{element.tag}: {vr} value exceeds {limit} bytes: {part!r}"
                )
    if len(data) % 2:
        data += _PADDING[vr]
    return data


def _encode_multi_text(element: DataElement) -> bytes:
    return _encode_text(element, "\\".join(element._value), element._value)


def _encode_single_text(element: DataElement) -> bytes:
    return _encode_text(element, element._value, (element._value,))


def _encode_numbers(element: DataElement) -> bytes:
    raw = element._value
    vr = element.vr
    try:
        return struct.pack(f"<{len(raw)}{_NUMERIC[vr][0]}", *raw)
    except struct.error as exc:
        raise EncodeError(f"{element.tag}: {vr} value out of range: {exc}")


def _encode_tags(element: DataElement) -> bytes:
    return b"".join(struct.pack("<HH", t.group, t.element) for t in element._value)


# Value encoder per VR; sequences are written by _encode_into itself.
_ENCODERS = {
    **dict.fromkeys(TEXT_MULTI_VRS, _encode_multi_text),
    **dict.fromkeys(TEXT_SINGLE_VRS, _encode_single_text),
    **dict.fromkeys(BYTES_VRS, _encode_bytes),
    **dict.fromkeys((*INT_VRS, VR.FL, VR.FD), _encode_numbers),
    VR.IS: _encode_integer_strings,
    VR.AT: _encode_tags,
}
_PADDING = {vr: padding_byte(vr) for vr in VR}
_LONG_HEADER = struct.Struct("<HH2s2xI")
_ITEM_HEADER = _TAG_AND_U32.pack(_DELIMITER_GROUP, _ITEM, 0)


def _encode_into(out: bytearray, ds: DataSet, encoded: dict) -> None:
    """Append the explicit VR encoding of `ds` to `out`.

    `encoded` maps ``id(item)`` of each sequence item already written in
    this call to the (start, end) of its bytes in `out`; an item object met
    again is copied from there instead of being encoded twice. (The items
    are all reachable from the data set being encoded, so their ids stay
    unique for the whole call.)
    """
    elements = ds._elements
    for tag in sorted(elements):
        element = elements[tag]
        vr = element.vr
        if vr is _SQ:
            start = len(out)
            out += _LONG_HEADER.pack(tag.group, tag.element, b"SQ", 0)
            for item in element._value:
                span = encoded.get(id(item))
                if span is not None:
                    out += out[span[0]:span[1]]
                    continue
                item_start = len(out)
                out += _ITEM_HEADER
                _encode_into(out, item, encoded)
                _U32.pack_into(out, item_start + 4, len(out) - item_start - 8)
                encoded[id(item)] = (item_start, len(out))
            _U32.pack_into(out, start + 8, len(out) - start - 12)
            continue
        encoder = _ENCODERS.get(vr)
        if encoder is None:
            raise EncodeError(f"{tag}: cannot encode VR {vr}")
        body = encoder(element)
        if vr in LONG_FORM_VRS:
            if len(body) > 0xFFFFFFFE:
                raise EncodeError(f"{tag}: value too large to encode")
            out += _LONG_HEADER.pack(tag.group, tag.element, _CODE_BY_VR[vr], len(body))
        else:
            if len(body) > 0xFFFF:
                raise EncodeError(
                    f"{tag}: {vr} value of {len(body)} bytes exceeds the "
                    "16-bit length field"
                )
            out += _EXPLICIT_HEADER.pack(tag.group, tag.element, _CODE_BY_VR[vr],
                                         len(body))
        out += body


def encode_dataset(ds: DataSet, syntax: str = EXPLICIT_VR_LITTLE_ENDIAN) -> bytes:
    """Encode `ds` as an explicit VR little endian element stream.

    Sequences are written with defined lengths and every value length is
    even, so the output decodes back to an equal data set.
    """
    if syntax != EXPLICIT_VR_LITTLE_ENDIAN:
        raise UnsupportedTransferSyntaxError(
            f"write is supported only in explicit VR little endian, not {syntax}"
        )
    out = bytearray()
    _encode_into(out, ds, {})
    return bytes(out)
