"""SR content items: the node types of a structured report tree.

Each item is a name/value pair; the value shape is fixed by the item's
value type (CODE, NUM, SCOORD, ...). Items form trees through `children`;
every non-root item carries exactly one relationship to its parent, and
only CONTAINER items may hold children related by CONTAINS. Items are
immutable: assigning to a field raises AttributeError, and
`with_relationship` and `with_children` return modified copies. So one item
may sit in a tree several times; a tree that :func:`item_from_dataset` reads
holds one item for each distinct data set.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..coding import DCM, CodedConcept, concept_from_items, concept_to_items
from ..dataset import DataElement, DataSet
from ..derived import sop_reference
from ..errors import InvalidGraphicError, InvalidUnitError, MissingContentError, UsageError
from ..tags import KEYWORD_TO_TAG_VR, TAGS, keyword_of
from ..uid import is_valid_uid, new_uid
from ..valuerep import VR, format_ds, is_valid_ds


class ValueType(str, enum.Enum):
    CONTAINER = "CONTAINER"
    CODE = "CODE"
    NUM = "NUM"
    TEXT = "TEXT"
    UIDREF = "UIDREF"
    PNAME = "PNAME"
    DATETIME = "DATETIME"
    IMAGE = "IMAGE"
    COMPOSITE = "COMPOSITE"
    SCOORD = "SCOORD"
    SCOORD3D = "SCOORD3D"


class RelationshipType(str, enum.Enum):
    CONTAINS = "CONTAINS"
    HAS_OBS_CONTEXT = "HAS OBS CONTEXT"
    HAS_CONCEPT_MOD = "HAS CONCEPT MOD"
    HAS_ACQ_CONTEXT = "HAS ACQ CONTEXT"
    INFERRED_FROM = "INFERRED FROM"
    SELECTED_FROM = "SELECTED FROM"
    HAS_PROPERTIES = "HAS PROPERTIES"


class GraphicType2D(str, enum.Enum):
    POINT = "POINT"
    MULTIPOINT = "MULTIPOINT"
    POLYLINE = "POLYLINE"
    CIRCLE = "CIRCLE"
    ELLIPSE = "ELLIPSE"


class GraphicType3D(str, enum.Enum):
    POINT = "POINT"
    MULTIPOINT = "MULTIPOINT"
    POLYLINE = "POLYLINE"
    POLYGON = "POLYGON"
    ELLIPSE = "ELLIPSE"
    ELLIPSOID = "ELLIPSOID"


class ContinuityOfContent(str, enum.Enum):
    SEPARATE = "SEPARATE"
    CONTINUOUS = "CONTINUOUS"


def _member(cls: type[enum.Enum], value):
    """``cls(value)``: a member passes through and a member's value maps to
    it by one lookup; anything else raises as the enum call does."""
    try:
        return cls._value2member_map_[value]
    except (KeyError, TypeError):
        return cls(value)


# -- data-set helpers of the item classes' writers and readers ---------------


def _member_elements(keyword: str, *enums: type[enum.Enum]) -> dict:
    """One element per enum member, valued by the member, for `keyword`."""
    tag, vr = KEYWORD_TO_TAG_VR[keyword]
    return {m: DataElement(tag, vr, m.value) for cls in enums for m in cls}


# Elements valued by an enum member recur in every item, so items share one
# element object per member.
_RELATIONSHIP_ELEMENTS = _member_elements("RelationshipType", RelationshipType)
_VALUE_TYPE_ELEMENTS = _member_elements("ValueType", ValueType)
_CONTINUITY_ELEMENTS = _member_elements("ContinuityOfContent", ContinuityOfContent)
_GRAPHIC_TYPE_ELEMENTS = _member_elements("GraphicType", GraphicType2D, GraphicType3D)


def _first_item(ds: DataSet, tag, value_type: ValueType) -> DataSet:
    """First item of a sequence that a `value_type` item must carry."""
    items = ds.items_of(tag)
    if not items:
        raise MissingContentError(f"{value_type.value} item lacks {keyword_of(tag)}")
    return items[0]


def _concept(items: DataSet, built: dict) -> CodedConcept:
    """The concept of one code item, built once per item object: `built` is
    the read's memo (see `_item_from_dataset`)."""
    concept = built.get(id(items))
    if type(concept) is not CodedConcept:
        concept = built[id(items)] = concept_from_items(items)
    return concept


_set = object.__setattr__


def _rebuild(cls, values) -> "ContentItem":
    """An item of `cls` holding `values`, one per field of ``cls._fields``,
    which come from an item of that class and so are valid already: the
    one way clones, copies and unpickled items are made."""
    item = object.__new__(cls)
    for field, value in zip(cls._fields, values):
        _set(item, field, value)
    return item


@dataclass(frozen=True)
class TrackingIdentifier:
    """Stable identity for an ROI: a UID plus an optional readable label.
    An empty label is held as None, as neither an SR nor a SEG writes one."""

    uid: str
    identifier: str | None = None

    def __post_init__(self):
        if not is_valid_uid(self.uid):
            raise ValueError(f"not a well-formed tracking UID: {self.uid!r}")
        object.__setattr__(self, "identifier", self.identifier or None)

    @classmethod
    def generate(cls, identifier: str | None = None) -> "TrackingIdentifier":
        return cls(uid=new_uid(), identifier=identifier)


@dataclass(frozen=True)
class AlgorithmIdentification:
    """Name and version of the algorithm that produced an annotation."""

    name: str
    version: str
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name or not self.version:
            raise UsageError("algorithm name and version must be non-empty")
        object.__setattr__(self, "parameters", tuple(self.parameters))


class ContentItem:
    """Abstract base for all content item variants.

    Each variant writes and reads the attributes of its value type
    (`_put_value`, `_read`) and renders its value as text (`summary`);
    :func:`item_to_dataset` and :func:`item_from_dataset` handle the
    attributes all items share.
    """

    value_type: ValueType  # set on subclasses

    __slots__ = ("name", "relationship", "children")
    # every slot of the class and its bases, which a clone copies
    _fields = __slots__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__base__._fields + cls.__dict__.get("__slots__", ())

    def __init__(
        self,
        name: CodedConcept | None,
        relationship: RelationshipType | str | None = None,
        children: Iterable["ContentItem"] = (),
    ):
        _set(self, "name", name)
        _set(self, "relationship",
             None if relationship is None else _member(RelationshipType, relationship))
        _set(self, "children", tuple(children))
        self._validate_children()

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), [getattr(self, field) for field in self._fields])

    def _validate_children(self) -> None:
        for child in self.children:
            if child.relationship is None:
                raise ValueError("every child item needs a relationship")
            if (
                child.relationship is RelationshipType.CONTAINS
                and self.value_type is not ValueType.CONTAINER
            ):
                raise ValueError(
                    "only CONTAINER items may hold CONTAINS children"
                )

    def _payload(self) -> tuple:
        """The fields after name, relationship and children: the item's
        value, which equality compares."""
        return tuple(getattr(self, field) for field in self._fields[3:])

    def _put_value(self, ds: DataSet) -> None:
        """Write the attributes of this item's value type into `ds`."""
        raise NotImplementedError

    def summary(self) -> str:
        """This item's value on one line, as ``dicomforge dump-sr`` prints it."""
        raise NotImplementedError

    @classmethod
    def _read(cls, ds: DataSet, built: dict, name, relationship,
              children) -> "ContentItem":
        """An item of this class valued by the attributes of `ds`; the
        constructor validates them. `built` is the read's memo (see
        `_item_from_dataset`)."""
        raise NotImplementedError

    def _clone(self, **changes) -> "ContentItem":
        """A copy of this item with the fields named in `changes` replaced."""
        return _rebuild(type(self), [changes.get(field, getattr(self, field))
                                     for field in self._fields])

    def with_relationship(self, relationship) -> "ContentItem":
        return self._clone(relationship=_member(RelationshipType, relationship))

    def with_children(self, children: Iterable["ContentItem"]) -> "ContentItem":
        clone = self._clone(children=tuple(children))
        clone._validate_children()
        return clone

    def iter(self) -> Iterator["ContentItem"]:
        """Depth-first, document order, self first."""
        stack = [self]
        while stack:
            item = stack.pop()
            yield item
            stack.extend(reversed(item.children))

    def find(
        self,
        name: CodedConcept | None = None,
        value_type: ValueType | str | None = None,
        relationship: RelationshipType | str | None = None,
        recursive: bool = True,
    ) -> list["ContentItem"]:
        """All items matching every supplied filter, in document order."""
        if value_type is not None:
            value_type = _member(ValueType, value_type)
        if relationship is not None:
            relationship = _member(RelationshipType, relationship)
        candidates = self.iter() if recursive else iter((self, *self.children))
        out = []
        for item in candidates:
            # identity tests first: they are cheaper than concept equality
            if value_type is not None and item.value_type is not value_type:
                continue
            if relationship is not None and item.relationship is not relationship:
                continue
            if name is not None and (item.name is None or item.name != name):
                continue
            out.append(item)
        return out

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        if (self.name, self.relationship) != (other.name, other.relationship):
            return False
        for a, b in zip(self._payload(), other._payload()):
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return self.children == other.children

    def __repr__(self) -> str:
        label = self.name.meaning if self.name else "<unnamed>"
        return f"{type(self).__name__}({label!r})"


class ContainerItem(ContentItem):
    value_type = ValueType.CONTAINER
    __slots__ = ("continuity", "template_id")

    def __init__(
        self,
        name: CodedConcept,
        children: Iterable[ContentItem] = (),
        continuity: ContinuityOfContent = ContinuityOfContent.SEPARATE,
        relationship=None,
        template_id: str | None = None,
    ):
        super().__init__(name, relationship, children)
        _set(self, "continuity", _member(ContinuityOfContent, continuity))
        _set(self, "template_id", template_id)

    def summary(self):
        template = f" [TID {self.template_id}]" if self.template_id else ""
        return f"({self.continuity.value}){template}"

    def _put_value(self, ds):
        ds.add(_CONTINUITY_ELEMENTS[self.continuity])
        if self.template_id:
            template = DataSet()
            template.put("MappingResource", "DCMR")
            template.put("TemplateIdentifier", self.template_id)
            ds.put("ContentTemplateSequence", (template,))

    @classmethod
    def _read(cls, ds, built, name, relationship, children):
        template_items = ds.items_of(TAGS.ContentTemplateSequence)
        template_id = (template_items[0].value(TAGS.TemplateIdentifier)
                       if template_items else None)
        return cls(name, children, ds.value(TAGS.ContinuityOfContent, "SEPARATE"),
                   relationship, template_id)


class CodeItem(ContentItem):
    value_type = ValueType.CODE
    __slots__ = ("value",)

    def __init__(self, name, value: CodedConcept, relationship=None, children=()):
        super().__init__(name, relationship, children)
        if not isinstance(value, CodedConcept):
            raise TypeError("CODE items are valued by a CodedConcept")
        _set(self, "value", value)

    def _payload(self):
        # a code's meaning is not part of its equality, but an item's value is
        return (self.value, self.value.meaning)

    def summary(self):
        return f"= {self.value.meaning} ({self.value.scheme} {self.value.value})"

    def _put_value(self, ds):
        ds.put("ConceptCodeSequence", (concept_to_items(self.value),))

    @classmethod
    def _read(cls, ds, built, name, relationship, children):
        value = _first_item(ds, TAGS.ConceptCodeSequence, cls.value_type)
        return cls(name, _concept(value, built), relationship, children)


class NumItem(ContentItem):
    """Measurement: decimal value plus a UCUM unit.

    The numeric value is carried as a decimal string (max 16 characters) so
    that encoding is drift-free; floats are formatted on construction.
    """

    value_type = ValueType.NUM
    __slots__ = ("value", "unit", "qualifier")

    def __init__(self, name, value, unit: CodedConcept,
                 qualifier: CodedConcept | None = None,
                 relationship=None, children=()):
        super().__init__(name, relationship, children)
        if isinstance(value, str):
            if not is_valid_ds(value):
                raise ValueError(f"not a valid decimal string: {value!r}")
        else:
            value = format_ds(value)
        if not isinstance(unit, CodedConcept) or unit.scheme != "UCUM":
            raise InvalidUnitError(
                f"measurement units must be UCUM-coded, got {unit!r}"
            )
        _set(self, "value", value)
        _set(self, "unit", unit)
        _set(self, "qualifier", qualifier)

    @property
    def numeric(self) -> float:
        return float(self.value)

    def summary(self):
        return f"= {self.value} {self.unit.value}"

    def _put_value(self, ds):
        measured = DataSet()
        measured.put("NumericValue", self.value)
        measured.put("MeasurementUnitsCodeSequence", (concept_to_items(self.unit),))
        ds.put("MeasuredValueSequence", (measured,))
        if self.qualifier is not None:
            ds.put("NumericValueQualifierCodeSequence",
                   (concept_to_items(self.qualifier),))

    @classmethod
    def _read(cls, ds, built, name, relationship, children):
        measured = _first_item(ds, TAGS.MeasuredValueSequence, cls.value_type)
        unit = _first_item(measured, TAGS.MeasurementUnitsCodeSequence, cls.value_type)
        qualifier = ds.items_of(TAGS.NumericValueQualifierCodeSequence)
        return cls(name, measured.value(TAGS.NumericValue, ""), _concept(unit, built),
                   _concept(qualifier[0], built) if qualifier else None,
                   relationship, children)


class _StringItem(ContentItem):
    """An item valued by one string, in the attribute that `_keyword` names."""

    _keyword: str  # set on subclasses
    __slots__ = ("value",)

    def __init__(self, name, value: str, relationship=None, children=()):
        super().__init__(name, relationship, children)
        if not isinstance(value, str):
            raise TypeError(f"{type(self).__name__} is valued by a string")
        _set(self, "value", value)

    def summary(self):
        return f"= {self.value}"

    def _put_value(self, ds):
        ds.put(self._keyword, self.value)

    @classmethod
    def _read(cls, ds, built, name, relationship, children):
        return cls(name, ds.value(cls._keyword, ""), relationship, children)


class TextItem(_StringItem):
    value_type = ValueType.TEXT
    _keyword = "TextValue"
    __slots__ = ()


class UIDRefItem(_StringItem):
    value_type = ValueType.UIDREF
    _keyword = "UID"
    __slots__ = ()

    def __init__(self, name, value, relationship=None, children=()):
        super().__init__(name, value, relationship, children)
        if not is_valid_uid(self.value):
            raise ValueError(f"not a well-formed UID: {value!r}")


class PNameItem(_StringItem):
    value_type = ValueType.PNAME
    _keyword = "PersonName"
    __slots__ = ()


class DateTimeItem(_StringItem):
    value_type = ValueType.DATETIME
    _keyword = "DateTime"
    __slots__ = ()


class _ReferenceItem(ContentItem):
    __slots__ = ("sop_class_uid", "sop_instance_uid")

    def __init__(self, name, sop_class_uid: str, sop_instance_uid: str,
                 relationship=None, children=()):
        super().__init__(name, relationship, children)
        if not is_valid_uid(sop_class_uid) or not is_valid_uid(sop_instance_uid):
            raise ValueError("referenced SOP class/instance UIDs must be well-formed")
        _set(self, "sop_class_uid", sop_class_uid)
        _set(self, "sop_instance_uid", sop_instance_uid)

    def summary(self):
        return f"-> {self.sop_instance_uid}"

    def _put_value(self, ds, **attributes):
        ds.put("ReferencedSOPSequence", (sop_reference(
            self.sop_class_uid, self.sop_instance_uid, **attributes),))

    @classmethod
    def _read(cls, ds, built, name, relationship, children):
        ref = _first_item(ds, TAGS.ReferencedSOPSequence, cls.value_type)
        return cls(name, ref.value(TAGS.ReferencedSOPClassUID),
                   ref.value(TAGS.ReferencedSOPInstanceUID),
                   relationship=relationship, children=children,
                   **cls._read_reference(ref))

    @staticmethod
    def _read_reference(ref: DataSet) -> dict:
        """Constructor arguments read from the SOP reference item besides
        its two UIDs."""
        return {}


class ImageItem(_ReferenceItem):
    """Reference to an image instance, optionally to a segment or frames."""

    value_type = ValueType.IMAGE
    __slots__ = ("segment_number", "frame_numbers")

    def __init__(self, name, sop_class_uid, sop_instance_uid,
                 segment_number: int | None = None,
                 frame_numbers: Sequence[int] | None = None,
                 relationship=None, children=()):
        super().__init__(name, sop_class_uid, sop_instance_uid, relationship, children)
        _set(self, "segment_number", None if segment_number is None else int(segment_number))
        # no frame list and an empty one both write no ReferencedFrameNumber
        _set(self, "frame_numbers", tuple(map(int, frame_numbers or ())) or None)

    def summary(self):
        segment = f" segment {self.segment_number}" if self.segment_number else ""
        return super().summary() + segment

    def _put_value(self, ds):
        super()._put_value(ds, ReferencedSegmentNumber=self.segment_number,
                           ReferencedFrameNumber=self.frame_numbers)

    @staticmethod
    def _read_reference(ref):
        return {"segment_number": ref.value(TAGS.ReferencedSegmentNumber),
                "frame_numbers": ref.values(TAGS.ReferencedFrameNumber) or None}


class CompositeItem(_ReferenceItem):
    value_type = ValueType.COMPOSITE
    __slots__ = ()


def _as_float32_points(points, width: int, what: str) -> np.ndarray:
    """`points` as a read-only (N, `width`) float64 array of single-precision
    values. An FL ``GraphicData`` element holds such values already, so its
    array is built once; any other input is quantized."""
    exact = isinstance(points, DataElement) and points.vr is VR.FL
    array = np.asarray(points.raw if exact else points, dtype=np.float64)
    if array.ndim == 1:
        if array.size % width:
            raise InvalidGraphicError(
                f"{what}: flat coordinate count must be divisible by {width}"
            )
        array = array.reshape(-1, width)
    if array.ndim != 2 or array.shape[1] != width:
        raise InvalidGraphicError(f"{what}: points must be (N, {width})")
    if not exact:
        # storage is IEEE single precision; quantize now so round trips are exact
        array = array.astype(np.float32).astype(np.float64)
    array.setflags(write=False)
    return array


def _is_closed(points: np.ndarray) -> bool:
    """True when the first and last points are equal coordinate by
    coordinate; a NaN equals nothing, so it leaves a polygon open."""
    return all(map(operator.eq, points[0].tolist(), points[-1].tolist()))


_ARITY_2D = {
    GraphicType2D.POINT: (1, 1),
    GraphicType2D.MULTIPOINT: (1, None),
    GraphicType2D.POLYLINE: (2, None),
    GraphicType2D.CIRCLE: (2, 2),
    GraphicType2D.ELLIPSE: (4, 4),
}
_ARITY_3D = {
    GraphicType3D.POINT: (1, 1),
    GraphicType3D.MULTIPOINT: (1, None),
    GraphicType3D.POLYLINE: (2, None),
    GraphicType3D.POLYGON: (4, None),
    GraphicType3D.ELLIPSE: (4, 4),
    GraphicType3D.ELLIPSOID: (6, 6),
}


def _check_arity(graphic_type, count: int, table) -> None:
    low, high = table[graphic_type]
    if count < low or (high is not None and count > high):
        bound = f"exactly {low}" if low == high else f"at least {low}"
        raise InvalidGraphicError(
            f"{graphic_type.value} requires {bound} point(s), got {count}"
        )


class _GraphicItem(ContentItem):
    """Spatial coordinates: a graphic type and its points."""

    __slots__ = ("graphic_type", "points")

    def summary(self):
        return f"{self.graphic_type.value} ({len(self.points)} point(s))"

    def _put_value(self, ds):
        ds.put("GraphicData", self.points.ravel().tolist())
        ds.add(_GRAPHIC_TYPE_ELEMENTS[self.graphic_type])

    @classmethod
    def _read(cls, ds, built, name, relationship, children, **arguments):
        points = ds.element(TAGS.GraphicData)
        if points is None or points.vr is not VR.FL:
            points = np.asarray(ds.values(TAGS.GraphicData))  # foreign VR
        return cls(name, ds.value(TAGS.GraphicType), points,
                   relationship=relationship, children=children, **arguments)


class ScoordItem(_GraphicItem):
    """2D spatial coordinates in image pixel-matrix units (column, row)."""

    value_type = ValueType.SCOORD
    __slots__ = ()

    def __init__(self, name, graphic_type: GraphicType2D | str, points,
                 relationship=None, children=()):
        super().__init__(name, relationship, children)
        graphic_type = _member(GraphicType2D, graphic_type)
        points = _as_float32_points(points, 2, graphic_type.value)
        _check_arity(graphic_type, len(points), _ARITY_2D)
        _set(self, "graphic_type", graphic_type)
        _set(self, "points", points)

    def source_image(self) -> ImageItem | None:
        for child in self.children:
            if (
                isinstance(child, ImageItem)
                and child.relationship is RelationshipType.SELECTED_FROM
            ):
                return child
        return None


class Scoord3DItem(_GraphicItem):
    """3D spatial coordinates in frame-of-reference millimeters."""

    value_type = ValueType.SCOORD3D
    __slots__ = ("frame_of_reference_uid",)

    def __init__(self, name, graphic_type: GraphicType3D | str, points,
                 frame_of_reference_uid: str,
                 relationship=None, children=()):
        super().__init__(name, relationship, children)
        graphic_type = _member(GraphicType3D, graphic_type)
        points = _as_float32_points(points, 3, graphic_type.value)
        _check_arity(graphic_type, len(points), _ARITY_3D)
        if graphic_type is GraphicType3D.POLYGON and not _is_closed(points):
            raise InvalidGraphicError("3D POLYGON must be closed (first point == last)")
        if not is_valid_uid(frame_of_reference_uid):
            raise ValueError("SCOORD3D needs a well-formed frame-of-reference UID, "
                             f"got {frame_of_reference_uid!r}")
        _set(self, "graphic_type", graphic_type)
        _set(self, "points", points)
        _set(self, "frame_of_reference_uid", frame_of_reference_uid)

    def _put_value(self, ds):
        super()._put_value(ds)
        ds.put("ReferencedFrameOfReferenceUID", self.frame_of_reference_uid)

    @classmethod
    def _read(cls, ds, built, name, relationship, children):
        for_uid = ds.value(TAGS.ReferencedFrameOfReferenceUID)
        return super()._read(ds, built, name, relationship, children,
                             frame_of_reference_uid=for_uid)


_ITEM_CLASSES: dict[ValueType, type] = {
    ValueType.CONTAINER: ContainerItem,
    ValueType.CODE: CodeItem,
    ValueType.NUM: NumItem,
    ValueType.TEXT: TextItem,
    ValueType.UIDREF: UIDRefItem,
    ValueType.PNAME: PNameItem,
    ValueType.DATETIME: DateTimeItem,
    ValueType.IMAGE: ImageItem,
    ValueType.COMPOSITE: CompositeItem,
    ValueType.SCOORD: ScoordItem,
    ValueType.SCOORD3D: Scoord3DItem,
}


def make_content_item(
    name: CodedConcept | None,
    value_type: ValueType | str,
    payload: dict,
    relationship: RelationshipType | str | None = None,
) -> ContentItem:
    """Generic factory: build the item class matching `value_type` from a
    payload mapping (keys are the class's constructor arguments)."""
    cls = _ITEM_CLASSES[ValueType(value_type)]
    return cls(name, relationship=relationship, **payload)


def find_items(
    root: ContentItem,
    name: CodedConcept | None = None,
    value_type=None,
    relationship=None,
    recursive: bool = True,
) -> list[ContentItem]:
    """Module-level alias of :meth:`ContentItem.find`."""
    return root.find(name, value_type, relationship, recursive)


class ObserverType(str, enum.Enum):
    PERSON = "PERSON"
    DEVICE = "DEVICE"


@dataclass(frozen=True)
class ObserverContext:
    """Who (or what) reported the observations: a person or a device.

    Exactly one identity bundle is populated: `person_name` for PERSON, the
    uid/name/manufacturer/version block for DEVICE.
    """

    observer_type: ObserverType
    person_name: str | None = None
    device_uid: str | None = None
    device_name: str | None = None
    device_manufacturer: str | None = None
    device_version: str | None = None

    def __post_init__(self):
        if self.observer_type is ObserverType.PERSON:
            if not self.person_name or self.device_uid or self.device_name:
                raise ValueError("PERSON context carries the person name only")
        else:
            if self.person_name or not (self.device_uid and self.device_name):
                raise ValueError("DEVICE context needs a device UID and name")

    @classmethod
    def person(cls, name: str) -> "ObserverContext":
        return cls(ObserverType.PERSON, person_name=name)

    @classmethod
    def device(cls, name: str, uid: str | None = None,
               manufacturer: str | None = None,
               version: str | None = None) -> "ObserverContext":
        return cls(
            ObserverType.DEVICE,
            device_uid=uid or new_uid(),
            device_name=name,
            device_manufacturer=manufacturer,
            device_version=version,
        )

    def to_items(self) -> list[ContentItem]:
        """Observation-context items, each related by HAS OBS CONTEXT."""
        rel = RelationshipType.HAS_OBS_CONTEXT
        if self.observer_type is ObserverType.PERSON:
            return [
                CodeItem(DCM.ObserverType, DCM.Person, relationship=rel),
                PNameItem(DCM.PersonObserverName, self.person_name, relationship=rel),
            ]
        items = [
            CodeItem(DCM.ObserverType, DCM.Device, relationship=rel),
            UIDRefItem(DCM.DeviceObserverUID, self.device_uid, relationship=rel),
            TextItem(DCM.DeviceObserverName, self.device_name, relationship=rel),
        ]
        if self.device_manufacturer:
            items.append(TextItem(
                DCM.DeviceObserverManufacturer, self.device_manufacturer,
                relationship=rel,
            ))
        if self.device_version:
            items.append(TextItem(
                DCM.AlgorithmVersion, self.device_version, relationship=rel,
            ))
        return items


def item_to_dataset(item: ContentItem) -> DataSet:
    """Serialize one content item (and its subtree) to data elements."""
    ds = DataSet()
    if item.relationship is not None:
        ds.add(_RELATIONSHIP_ELEMENTS[item.relationship])
    ds.add(_VALUE_TYPE_ELEMENTS[item.value_type])
    if item.name is not None:
        ds.put("ConceptNameCodeSequence", (concept_to_items(item.name),))
    item._put_value(ds)
    if item.children:
        ds.put("ContentSequence", tuple(item_to_dataset(c) for c in item.children))
    return ds


def item_from_dataset(ds: DataSet) -> ContentItem:
    """Inverse of :func:`item_to_dataset` (tolerant of extra attributes).

    Raises MissingContentError for a missing or unknown value type, for a
    sequence the value type requires when absent, and for any value the
    item classes reject (a malformed UID, graphic type, relationship or
    continuity, a missing numeric value, points of the wrong count or an
    open polygon, a unit that is not UCUM-coded, a child without a
    relationship, a sequence attribute written with another VR, ...); the
    message carries the rejected value.
    """
    return _item_from_dataset(ds, {})


def _item_from_dataset(ds: DataSet, built: dict) -> ContentItem:
    """The item read from `ds`. `built` maps ``id`` of each data set read so
    far to what was built from it, for the whole read, during which the
    caller's tree keeps every data set alive. A decoded tree shares the data
    set of every repeated item, and that data set holds the item's
    relationship and subtree, so its one item is right everywhere. (A
    crafted file may hold one data set both as a content item and as a code
    item; the type check keeps the two apart.)"""
    item = built.get(id(ds))
    if isinstance(item, ContentItem):
        return item
    raw_type = ds.value(TAGS.ValueType)
    try:
        cls = _ITEM_CLASSES[_member(ValueType, raw_type)]
    except ValueError:
        raise MissingContentError(f"content item has no known ValueType: {raw_type!r}") from None
    try:
        name_items = ds.items_of(TAGS.ConceptNameCodeSequence)
        name = _concept(name_items[0], built) if name_items else None
        children = tuple(_item_from_dataset(c, built)
                         for c in ds.items_of(TAGS.ContentSequence))
        item = built[id(ds)] = cls._read(ds, built, name, ds.value(TAGS.RelationshipType),
                                         children)
    except (ValueError, TypeError, InvalidGraphicError, InvalidUnitError) as exc:
        raise MissingContentError(f"{cls.value_type.value} item rejected: {exc}") from None
    return item
