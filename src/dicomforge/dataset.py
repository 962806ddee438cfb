"""In-memory model of DICOM data sets.

A :class:`DataSet` is an ordered tag -> :class:`DataElement` container; the
element value is normalized at construction into one of a small set of
Python shapes (tuples of str/int/float, bytes, nested data sets) so that
``decode(encode(ds)) == ds`` holds element-wise. Instances are treated as
immutable once construction is finished; nothing in this package mutates a
data set it did not just build.

Built data sets may share item objects: every code-sequence item for one
:class:`~dicomforge.coding.CodedConcept` is the same data set, which
:func:`~dicomforge.coding.concept_to_items` caches on the concept; SR items
share one element object per relationship and value type; and a sequence
may hold one item object several times. Decoded data sets share items and
nested elements too: the decoder returns one data set for every
defined-length item with the same bytes at the same depth, and one element
for every short element with the same bytes inside any item (see
:mod:`dicomforge.codec`). An SR opened from such data sets shares in turn:
``open_sr`` builds one concept per code item and one content item per
content-item data set. Mutating a data set that ``concept_to_items``
returned, or an item reachable from a built SR or SEG or from a decoded
data set, is unsupported: the change would show up everywhere the item is
shared. (Elements are never changed in place: ``put`` and ``add`` replace
them.)
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from .errors import NotASequenceError, UsageError
from .tags import KEYWORD_TO_TAG_VR, Tag, TagKey, keyword_of, resolve_key, vr_of
from .valuerep import (
    BYTES_VRS,
    INT_VRS,
    TEXT_MULTI_VRS,
    TEXT_SINGLE_VRS,
    VR,
    float32_round_trip,
    format_ds,
    is_valid_ds,
)


def _as_tuple(value: Any) -> tuple:
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


# Normalizers: each coerces `value` into the canonical in-memory shape for
# its VR, raising TypeError (a value of the wrong type) or UsageError (a
# value the VR forbids) naming `tag` when it cannot.


def _sequence(tag: Tag, vr: VR, value: Any) -> tuple:
    items = _as_tuple(value)
    for item in items:
        if not isinstance(item, DataSet):
            raise TypeError(f"{tag}: sequence items must be DataSet")
    return items


def _bytes(tag: Tag, vr: VR, value: Any) -> bytes:
    if value is None:
        value = b""
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise TypeError(f"{tag}: VR {vr} requires bytes")
    data = bytes(value)
    if len(data) % 2:
        data += b"\x00"  # construction-time padding keeps round trips exact
    return data


def _single_text(tag: Tag, vr: VR, value: Any) -> str:
    if value is None:
        return ""
    if not isinstance(value, str):
        raise TypeError(f"{tag}: VR {vr} requires str")
    return value


def _decimals(tag: Tag, vr: VR, value: Any) -> tuple:
    parts = []
    for v in _as_tuple(value):
        if isinstance(v, str):
            v = v.strip()
            if not is_valid_ds(v):
                raise UsageError(f"{tag}: {v!r} is not a valid decimal string")
            parts.append(v)
        else:
            parts.append(format_ds(v))
    return tuple(parts)


def _multi_text(tag: Tag, vr: VR, value: Any) -> tuple:
    out = _as_tuple(value)
    for v in out:
        if not isinstance(v, str):
            raise TypeError(f"{tag}: VR {vr} requires str values")
        if "\\" in v:
            raise UsageError(f"{tag}: backslash not allowed inside a {vr} value")
    if out == ("",):
        return ()
    return out


def _integers(tag: Tag, vr: VR, value: Any) -> tuple:
    return tuple(map(int, _as_tuple(value)))


def _doubles(tag: Tag, vr: VR, value: Any) -> tuple:
    return tuple(map(float, _as_tuple(value)))


def _singles(tag: Tag, vr: VR, value: Any) -> tuple:
    return float32_round_trip(tuple(map(float, _as_tuple(value))))


def _tags(tag: Tag, vr: VR, value: Any) -> tuple:
    out = []
    for v in _as_tuple(value):
        if isinstance(v, Tag):
            out.append(v)
        elif isinstance(v, tuple) and len(v) == 2:
            out.append(Tag(*v))
        else:
            raise TypeError(f"{tag}: VR AT requires Tag values")
    return tuple(out)


_NORMALIZERS = {
    **dict.fromkeys(TEXT_MULTI_VRS, _multi_text),
    **dict.fromkeys(TEXT_SINGLE_VRS, _single_text),
    **dict.fromkeys(BYTES_VRS, _bytes),
    **dict.fromkeys((VR.IS, *INT_VRS), _integers),
    VR.DS: _decimals,
    VR.FD: _doubles,
    VR.FL: _singles,
    VR.AT: _tags,
    VR.SQ: _sequence,
}


class DataElement:
    """One tag/VR/value triple."""

    __slots__ = ("tag", "vr", "_value")

    def __init__(self, tag: Tag, vr: VR, value: Any = None):
        if type(vr) is not VR:
            vr = VR(vr)
        self.tag = tag
        self.vr = vr
        self._value = _NORMALIZERS[vr](tag, vr, value)

    @property
    def values(self) -> tuple:
        """All values as a tuple; bytes and single-text values wrapped."""
        if isinstance(self._value, tuple):
            return self._value
        return (self._value,)

    @property
    def value(self):
        """The single value: first entry for multi-valued VRs, None if empty."""
        if isinstance(self._value, tuple):
            return self._value[0] if self._value else None
        return self._value

    @property
    def raw(self):
        return self._value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DataElement)
            and self.tag == other.tag
            and self.vr == other.vr
            and self._value == other._value
        )

    def __hash__(self):
        raise TypeError("DataElement is not hashable")

    def __repr__(self) -> str:
        kw = keyword_of(self.tag)
        label = f" {kw}" if kw else ""
        if self.vr is VR.SQ:
            summary = f"<{len(self.values)} item(s)>"
        elif isinstance(self._value, bytes):
            summary = f"<{len(self._value)} bytes>"
        else:
            summary = repr(self._value)
        return f"{self.tag} {self.vr}{label}: {summary}"


class DataSet:
    """Ordered collection of data elements, at most one per tag.

    Iteration and encoding always proceed in ascending tag order regardless
    of insertion order.
    """

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[DataElement] = ()):
        self._elements: dict[Tag, DataElement] = {}
        for element in elements:
            self.add(element)

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, **attributes: Any) -> "DataSet":
        """A data set holding the given attributes, keyed by keyword."""
        ds = cls()
        for keyword, value in attributes.items():
            ds.put(keyword, value)
        return ds

    def add(self, element: DataElement) -> None:
        self._elements[element.tag] = element

    def put(self, key: TagKey, value: Any, vr: VR | str | None = None) -> None:
        """Set an element, taking the VR from the dictionary when omitted."""
        entry = KEYWORD_TO_TAG_VR.get(key) if isinstance(key, str) else None
        if entry is None:
            tag = resolve_key(key)
            entry = tag, vr_of(tag)
        tag, dictionary_vr = entry
        if vr is None:
            vr = dictionary_vr
            if vr is VR.UN and not isinstance(value, (bytes, bytearray)):
                raise ValueError(f"{tag}: VR required for tags outside the dictionary")
        self._elements[tag] = DataElement(tag, vr, value)

    def remove(self, key: TagKey) -> None:
        self._elements.pop(resolve_key(key), None)

    # -- access ------------------------------------------------------------

    def element(self, key: TagKey) -> DataElement | None:
        # a Tag is looked up as it is; other keys are resolved first
        return self._elements.get(key if key.__class__ is Tag else resolve_key(key))

    def __getitem__(self, key: TagKey) -> DataElement:
        tag = resolve_key(key)
        try:
            return self._elements[tag]
        except KeyError:
            raise KeyError(f"no element {tag}") from None

    def __contains__(self, key: TagKey) -> bool:
        try:
            return resolve_key(key) in self._elements
        except KeyError:
            return False

    def value(self, key: TagKey, default: Any = None) -> Any:
        element = self.element(key)
        if element is None:
            return default
        value = element._value
        if isinstance(value, tuple):
            value = value[0] if value else None
        return default if value is None else value

    def values(self, key: TagKey) -> tuple:
        element = self.element(key)
        return element.values if element is not None else ()

    def floats(self, key: TagKey) -> tuple[float, ...]:
        """Values of a numeric-string element (DS/IS) converted to float."""
        return tuple(float(v) for v in self.values(key))

    def items_of(self, key: TagKey) -> tuple["DataSet", ...]:
        """Items of a sequence element; empty tuple when absent.

        Raises NotASequenceError when the element has another VR.
        """
        element = self.element(key)
        if element is None:
            return ()
        if element.vr is not VR.SQ:
            raise NotASequenceError(f"{element.tag} is {element.vr}, not a sequence")
        return element._value

    # -- iteration / comparison --------------------------------------------

    def tags(self) -> list[Tag]:
        return sorted(self._elements)

    def __iter__(self) -> Iterator[DataElement]:
        for tag in sorted(self._elements):
            yield self._elements[tag]

    def __len__(self) -> int:
        return len(self._elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataSet):
            return NotImplemented
        if set(self._elements) != set(other._elements):
            return False
        return all(self._elements[t] == other._elements[t] for t in self._elements)

    def __hash__(self):
        raise TypeError("DataSet is not hashable")

    def __repr__(self) -> str:
        return f"DataSet({len(self)} elements)"


def copy_attributes(source: DataSet, target: DataSet, keys: Iterable[TagKey]) -> None:
    """Copy the listed elements from `source` into `target` when present."""
    for key in keys:
        element = source.element(key)
        if element is not None:
            target.add(element)
