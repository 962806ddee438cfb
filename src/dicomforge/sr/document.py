"""Comprehensive SR / Comprehensive 3D SR documents.

Creation copies patient/study/specimen context from the evidence images,
records the evidence hierarchically, and serializes a measurement-report
content tree. Two readers build such a document from other input:
:func:`report_from_segmentation` from an opened Segmentation (one planar
bounding-box group per connected region of each stored frame), and
:func:`report_from_spec` from an annotation spec, the JSON document the
README describes. Opening exposes the document meta, the evidence
references and the parsed tree, and filters the measurement groups that
:mod:`.templates` reads back.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .. import __version__, roi
from ..coding import DCM, SCT, UCUM, CodedConcept, parse_code
from ..dataset import DataSet
from ..derived import (
    EvidenceReference,
    check_evidence,
    content_timestamp,
    derived_instance,
    instance_reference,
    read_references,
    reference_sequence,
)
from ..errors import (
    DicomforgeError,
    EvidenceError,
    MissingContentError,
    TemplateViolationError,
    UnknownCodeError,
    ValueTypeForbiddenError,
    WrongSopClassError,
)
from ..part10 import read_part10_file
from ..spatial import mapper_from_geometry
from ..uid import COMPREHENSIVE_3D_SR_STORAGE, COMPREHENSIVE_SR_STORAGE, is_valid_uid, new_uid
from ..valuerep import float32_round_trip, format_ds, is_valid_ds
from .items import (
    CodeItem,
    ContainerItem,
    ContentItem,
    ImageItem,
    NumItem,
    ObserverContext,
    RelationshipType,
    ScoordItem,
    Scoord3DItem,
    TrackingIdentifier,
    ValueType,
    item_from_dataset,
    item_to_dataset,
)
from .templates import (
    GroupKind,
    MeasurementGroupView,
    SegmentReference,
    measurement_group,
    measurement_report,
    planar_roi_group,
    report_groups,
    volumetric_roi_group,
)

if TYPE_CHECKING:
    from ..seg import Segmentation


class SRKind(enum.Enum):
    """Document flavor; COMPREHENSIVE forbids 3D coordinates anywhere."""

    COMPREHENSIVE = COMPREHENSIVE_SR_STORAGE
    COMPREHENSIVE_3D = COMPREHENSIVE_3D_SR_STORAGE

    @property
    def sop_class_uid(self) -> str:
        return self.value

    @classmethod
    def from_sop_class(cls, uid: str) -> "SRKind":
        for kind in cls:
            if kind.value == uid:
                return kind
        raise WrongSopClassError(f"SOP class {uid} is not a supported SR kind")


class CompletionFlag(str, enum.Enum):
    PARTIAL = "PARTIAL"
    COMPLETE = "COMPLETE"


class VerificationFlag(str, enum.Enum):
    UNVERIFIED = "UNVERIFIED"
    VERIFIED = "VERIFIED"


class DocumentReference(NamedTuple):
    """(study, series, sop instance) triple identifying another document."""

    study_instance_uid: str
    series_instance_uid: str
    sop_instance_uid: str


@dataclass(frozen=True)
class SRMeta:
    """Series/instance identity and document flags for a created SR.

    Model outputs default to COMPLETE + UNVERIFIED: they await expert
    review before entering the record as verified content.
    """

    series_instance_uid: str | None = None
    sop_instance_uid: str | None = None
    series_number: int = 1
    instance_number: int = 1
    completion: CompletionFlag = CompletionFlag.COMPLETE
    verification: VerificationFlag = VerificationFlag.UNVERIFIED
    predecessors: tuple[DocumentReference, ...] = ()
    manufacturer: str = "dicomforge"
    institution: str | None = None
    series_description: str | None = None
    verifying_observer_name: str | None = None
    verifying_organization: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "predecessors",
            tuple(DocumentReference(*p) for p in self.predecessors),
        )
        if (
            self.verification is VerificationFlag.VERIFIED
            and not self.verifying_observer_name
        ):
            raise ValueError("a VERIFIED document needs a verifying observer")


def _forbid_3d(tree: ContentItem) -> None:
    for item in tree.iter():
        if item.value_type is ValueType.SCOORD3D:
            raise ValueTypeForbiddenError(
                "COMPREHENSIVE documents cannot hold SCOORD3D items; "
                "use COMPREHENSIVE_3D"
            )


def create_sr(
    kind: SRKind,
    evidence: Sequence[DataSet],
    tree: ContainerItem,
    meta: SRMeta | None = None,
) -> DataSet:
    """Build an SR instance around a measurement-report tree.

    Patient/study/specimen attributes are copied verbatim from the first
    evidence instance; all evidence must belong to one study, and every
    image instance the tree references must appear in the evidence list.
    """
    meta = meta or SRMeta()
    evidence = check_evidence(evidence)
    if not isinstance(tree, ContainerItem) or tree.relationship is not None:
        raise TemplateViolationError("the content tree root must be an unrelated CONTAINER")
    if tree.name is None or tree.name != DCM.ImagingMeasurementReport:
        raise TemplateViolationError("the content tree must be a measurement report")
    if kind is SRKind.COMPREHENSIVE:
        _forbid_3d(tree)

    missing = (
        {item.sop_instance_uid for item in tree.iter() if isinstance(item, ImageItem)}
        - {ds.value("SOPInstanceUID") for ds in evidence}
    )
    if missing:
        raise EvidenceError(
            "tree references instances absent from evidence: "
            + ", ".join(sorted(missing))
        )

    ds = derived_instance(
        evidence[0], kind.sop_class_uid, "SR", sop_instance_uid=meta.sop_instance_uid,
        series_instance_uid=meta.series_instance_uid, series_number=meta.series_number,
        instance_number=meta.instance_number, manufacturer=meta.manufacturer,
        series_description=meta.series_description,
    )
    if meta.institution:
        ds.put("InstitutionName", meta.institution)
    content_timestamp(ds)
    ds.put("CompletionFlag", meta.completion.value)
    ds.put("VerificationFlag", meta.verification.value)
    if meta.verification is VerificationFlag.VERIFIED:
        observer = DataSet()
        observer.put("VerifyingObserverName", meta.verifying_observer_name)
        observer.put("VerifyingOrganization", meta.verifying_organization or "")
        observer.put(
            "VerificationDateTime",
            ds.value("ContentDate") + ds.value("ContentTime"),
        )
        ds.put("VerifyingObserverSequence", (observer,))
    if meta.predecessors:
        # one study item per predecessor, even when studies repeat
        ds.put("PredecessorDocumentsSequence", tuple(
            item for study, series, sop in meta.predecessors
            for item in reference_sequence([(study, series, kind.sop_class_uid, sop)])
        ))
    ds.put("CurrentRequestedProcedureEvidenceSequence",
           reference_sequence(map(instance_reference, evidence)))

    root = item_to_dataset(tree)
    for element in root:
        ds.add(element)
    return ds


def report_from_segmentation(segmentation: Segmentation, threshold: float = 0.5) -> DataSet:
    """Comprehensive 3D SR with one planar ROI group per connected region of
    each stored SEG frame.

    Fractional frames are scaled to [0, 1] and kept where they reach
    `threshold` (:func:`~dicomforge.roi.threshold`). Binary frames are used
    as stored, every nonzero pixel in the foreground; `threshold` must still
    lie in [0, 1]. Each region's bounding box becomes a closed SCOORD3D
    polygon in the SEG's frame of reference, reported under the segment's
    property type and anatomic site, with a generated tracking identifier,
    by a ``dicomforge-from-seg`` device observer; the SEG is the evidence.

    Raises UsageError for a threshold outside [0, 1], and DicomforgeError
    for a SEG without a frame of reference or when no region is found.
    """
    roi.check_threshold(threshold)
    frame_uid = segmentation.dataset.value("FrameOfReferenceUID")
    if not frame_uid:
        raise DicomforgeError("segmentation lacks a frame of reference UID")
    seg_type = segmentation.seg_type
    by_number = {d.number: d for d in segmentation.descriptions}
    groups = []
    for record in segmentation.frames:
        mask = segmentation.stored_frame(record.index)
        if not seg_type.is_binary:
            mask = roi.threshold(mask / seg_type.max_fractional_value, threshold)
        components = roi.connected_components(mask)
        if not components.count:
            continue
        mapper = mapper_from_geometry(segmentation.plane_geometry(record))
        description = by_number[record.segment_number]
        for box in roi.bounding_boxes(components):
            corners = box.corner_points()
            points_3d = mapper.pixel_to_reference(np.vstack([corners, corners[:1]]))
            tracking = TrackingIdentifier.generate(
                f"{description.label} frame {record.index + 1} region {box.label}"
            )
            groups.append(planar_roi_group(
                tracking, Scoord3DItem(None, "POLYGON", points_3d, frame_uid),
                description.property_type,
                finding_sites=[description.anatomic_site] if description.anatomic_site else (),
            ))
    if not groups:
        raise DicomforgeError(f"no regions found at threshold {threshold}; nothing to report")
    observer = ObserverContext.device(name="dicomforge-from-seg", version=__version__)
    tree = measurement_report(observer, SCT.ImagingProcedure, groups)
    return create_sr(SRKind.COMPREHENSIVE_3D, [segmentation.dataset], tree)


def report_from_spec(spec: dict, kind: SRKind = SRKind.COMPREHENSIVE_3D) -> DataSet:
    """SR of the given kind built from an annotation spec: the parsed JSON
    document with an observer, an optional procedure, the Part 10 evidence
    files (read here), and one measurement group per entry of ``groups``.

    The whole spec is checked against the table `_SPEC` first, and a value
    that does not fit raises DicomforgeError naming its path from the spec
    root, e.g. ``groups[0].measurements[0].unit must be a non-empty string
    without backslashes, got None``. Codes are ``SCHEME:VALUE[:MEANING]``
    strings, read by :func:`~dicomforge.coding.parse_code`. A 3D region
    without a frame of reference takes the first evidence instance's.
    """
    spec = _walk(spec, _SPEC, "")
    evidence = [read_part10_file(path)[1] for path in spec["evidence"]]
    frame_uid = str(evidence[0].value("FrameOfReferenceUID", "")) if evidence else ""
    observer = spec["observer"]
    if observer.pop("type", "device") == "person":
        observer = ObserverContext.person(observer["name"])
    else:  # the keys left are the arguments of device()
        observer = ObserverContext.device(**observer)
    groups = [_group(group, f"groups[{i}]", frame_uid) for i, group in enumerate(spec["groups"])]
    return create_sr(kind, evidence, measurement_report(
        observer, spec.get("procedure", SCT.ImagingProcedure), groups))


def _group(spec: dict, path: str, frame_uid: str) -> ContainerItem:
    """The measurement group of the checked spec group at `path`."""
    tracking = TrackingIdentifier(spec.get("tracking_uid") or new_uid(), spec.get("tracking_id"))
    finding, sites = spec["finding"], spec.get("finding_sites", [])
    measurements = [NumItem(m["code"], m["value"], m["unit"])
                    for m in spec.get("measurements", [])]
    evaluations = [CodeItem(e["code"], e["value"]) for e in spec.get("evaluations", [])]
    if spec["kind"] == "image":
        return measurement_group(tracking, finding, measurements, evaluations)
    if spec["kind"] == "planar":
        region = _region(spec["region"], f"{path}.region", frame_uid)
        return planar_roi_group(tracking, region, finding, sites, measurements, evaluations)
    regions = [_region(r, f"{path}.region", frame_uid) for r in spec["region"]]
    return volumetric_roi_group(tracking, regions, finding, sites, measurements, evaluations)


def _region(spec: dict, path: str, frame_uid: str):
    """The region of the checked spec region at `path`; its type names the
    graphic type, then the dimension (``polygon3d``)."""
    graphic = spec["type"][:-2].upper()
    if spec["type"] == "segment":
        return SegmentReference(spec["sop_instance_uid"], spec["segment_number"])
    if spec["type"].endswith("3d"):
        frame_uid = spec.get("frame_of_reference", frame_uid)
        if not is_valid_uid(frame_uid):
            raise DicomforgeError(f"{path} needs a frame_of_reference (none found in evidence)")
        return Scoord3DItem(None, graphic, spec["points"], frame_uid)
    # the keys of an image are ImageItem arguments
    source = ImageItem(None, **spec["image"], relationship=RelationshipType.SELECTED_FROM)
    return ScoordItem(None, graphic, spec["points"], children=[source])


# -- the annotation spec table ------------------------------------------------
#
# A kind in the table is one of:
#   * {key: kind}: an object. Its listed keys are read, and other keys are
#     ignored. A key ending in "?" is optional: absent, null or "" it is
#     left out of the result.
#   * [kind]: a list of that kind.
#   * _OneOrList(kind): one value of that kind, or a list of them; read as a
#     list.
#   * _Choice(key, {value: table}): an object read by the table that the
#     value of its required `key` selects.
#   * _Reader(what, read): a value that `read` returns as read; `read`
#     raises ValueError, TypeError, ArithmeticError or DicomforgeError for a
#     value that is not `what`.
_Reader = namedtuple("_Reader", "what read")
_OneOrList = namedtuple("_OneOrList", "kind")
_Choice = namedtuple("_Choice", "key tables")


def _walk(value, kind, path: str):
    """`value` read as `kind`; a failure names `path`, the value's place in
    the spec."""
    name = path or "annotation spec"
    if isinstance(kind, _Reader):
        try:
            return kind.read(value)
        except (ArithmeticError, TypeError, ValueError, DicomforgeError):
            raise DicomforgeError(f"{name} must be {kind.what}, got {value!r}") from None
    if isinstance(kind, _OneOrList):
        if not isinstance(value, list):
            return [_walk(value, kind.kind, path)]
        kind = [kind.kind]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise DicomforgeError(f"{name} must be a list, got {value!r}")
        return [_walk(entry, kind[0], f"{path}[{i}]") for i, entry in enumerate(value)]
    if not isinstance(value, dict):
        raise DicomforgeError(f"{name} must be an object, got {value!r}")
    out = {}
    if isinstance(kind, _Choice):
        choice = out[kind.key] = value.get(kind.key)
        if kind.key in value and (not isinstance(choice, str) or choice not in kind.tables):
            raise DicomforgeError(f"{path}.{kind.key} must be one of "
                                  f"{', '.join(kind.tables)}, got {choice!r}")
        # the selecting key is required, and read above: its entry is None
        kind = {kind.key: None, **kind.tables.get(choice, {})}
    for key, entry in kind.items():
        key, optional = key.rstrip("?"), key.endswith("?")
        if key not in value or (optional and value[key] in (None, "")):
            if not optional:
                raise DicomforgeError(f"{name} is missing required key {key!r}")
        elif entry is not None:
            out[key] = _walk(value[key], entry, f"{path}.{key}" if path else key)
    return out


def _valid(ok: bool, value):
    """`value` when `ok`, else ValueError."""
    if not ok:
        raise ValueError(value)
    return value


def _unit(value) -> CodedConcept:
    """A UCUM unit; text outside the registry is a code meaning itself."""
    try:
        return UCUM.get(_TEXT.read(value))
    except UnknownCodeError:
        return CodedConcept(value, "UCUM", value)


def _point(width: int) -> _Reader:
    """`width` numbers, quantized to single precision as the SCOORD items
    store them (OverflowError past its range)."""
    return _Reader(f"{width} single-precision numbers", lambda v: float32_round_trip(tuple(
        _valid(len(v) == width and all(isinstance(x, (int, float)) for x in v), v))))


_STRING = _Reader("a string", lambda v: _valid(isinstance(v, str), v))
# a string that a code, a unit or a person name can hold
_TEXT = _Reader("a non-empty string without backslashes",
                lambda v: _valid(isinstance(v, str) and v != "" and "\\" not in v, v))
_UID = _Reader("a UID", lambda v: _valid(isinstance(v, str) and is_valid_uid(v), v))
_CODE = _Reader("a SCHEME:VALUE[:MEANING] code", lambda v: parse_code(_TEXT.read(v)))
_COUNT = _Reader("a positive integer", lambda v: int(
    _valid(not isinstance(v, bool) and str(v).isdigit() and int(v) > 0, v)))
# a measurement value is kept as written when it is a decimal string, and a
# JSON number is formatted to fit
_DECIMAL = _Reader("a number or a decimal string",
                   lambda v: v if isinstance(v, str) and is_valid_ds(v) else format_ds(v))
_GROUP = {
    "tracking_uid?": _UID, "tracking_id?": _STRING, "finding": _CODE, "finding_sites?": [_CODE],
    "measurements?": [{"code": _CODE, "value": _DECIMAL, "unit": _Reader(_TEXT.what, _unit)}],
    "evaluations?": [{"code": _CODE, "value": _CODE}],
}
_REGION_3D = {"points": [_point(3)], "frame_of_reference?": _UID}
_REGION_2D = {"points": [_point(2)], "image": {
    "sop_class_uid": _UID, "sop_instance_uid": _UID, "frame_numbers?": [_COUNT]}}
_REGION = _Choice("type", {
    "segment": {"sop_instance_uid": _UID, "segment_number": _COUNT},
    **dict.fromkeys(("point3d", "polyline3d", "polygon3d", "multipoint3d"), _REGION_3D),
    **dict.fromkeys(("point2d", "polyline2d", "circle2d", "ellipse2d", "multipoint2d"),
                    _REGION_2D),
})
_OBSERVER = {
    "type?": _Reader("person or device", lambda v: _valid(v in ("person", "device"), v)),
    "name": _TEXT, "uid?": _UID, "manufacturer?": _STRING, "version?": _STRING,
}
_SPEC = {
    "observer": _OBSERVER, "procedure?": _CODE, "evidence": [_STRING],
    "groups": [_Choice("kind", {
        "planar": {**_GROUP, "region": _REGION},
        "volumetric": {**_GROUP, "region": _OneOrList(_REGION)},
        "image": _GROUP,
    })],
}


def _flag(dataset: DataSet, keyword: str, default: enum.Enum) -> enum.Enum:
    """The document flag `keyword`, a member of `default`'s enum; a value
    outside it raises MissingContentError."""
    flags = type(default)
    value = dataset.value(keyword, default.value)
    try:
        return flags(value)
    except ValueError:
        raise MissingContentError(f"{keyword} {value!r} is not one of "
                                  f"{', '.join(f.value for f in flags)}") from None


class StructuredReport:
    """Read-only view over an SR dataset."""

    def __init__(self, dataset: DataSet):
        sop_class = dataset.value("SOPClassUID", "")
        self.kind = SRKind.from_sop_class(sop_class)
        if "ContentSequence" not in dataset:
            raise MissingContentError(
                "SR dataset has no ContentSequence attribute: the document "
                "carries no content items to iterate over"
            )
        self.dataset = dataset
        root = item_from_dataset(dataset)
        if not isinstance(root, ContainerItem):
            raise MissingContentError("SR root content item is not a CONTAINER")
        self.tree: ContainerItem = root
        self.completion = _flag(dataset, "CompletionFlag", CompletionFlag.COMPLETE)
        self.verification = _flag(dataset, "VerificationFlag", VerificationFlag.UNVERIFIED)
        self.sop_instance_uid = dataset.value("SOPInstanceUID", "")
        self.series_instance_uid = dataset.value("SeriesInstanceUID", "")
        self.predecessors = tuple(
            DocumentReference(ref.study_instance_uid, ref.series_instance_uid,
                              ref.sop_instance_uid)
            for ref in read_references(dataset.items_of("PredecessorDocumentsSequence"))
        )
        self.evidence = read_references(
            dataset.items_of("CurrentRequestedProcedureEvidenceSequence")
        )

    def measurement_groups(
        self,
        finding: CodedConcept | None = None,
        finding_site: CodedConcept | None = None,
        tracking_uid: str | None = None,
        kind: GroupKind | str | None = None,
    ) -> list[MeasurementGroupView]:
        """Group views matching every supplied filter, in document order."""
        if kind is not None:
            kind = GroupKind(kind)
        out = []
        for group in report_groups(self.tree):
            if finding is not None and (group.finding is None or group.finding != finding):
                continue
            if finding_site is not None and finding_site not in group.finding_sites:
                continue
            if tracking_uid is not None and (
                group.tracking is None or group.tracking.uid != tracking_uid
            ):
                continue
            if kind is not None and group.kind is not kind:
                continue
            out.append(group)
        return out


def open_sr(dataset: DataSet) -> StructuredReport:
    """View an existing SR dataset (created here, read from file, or received
    over the network)."""
    return StructuredReport(dataset)
