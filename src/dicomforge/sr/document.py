"""Comprehensive SR / Comprehensive 3D SR documents.

Creation copies patient/study/specimen context from the evidence images,
records the evidence hierarchically, and serializes a measurement-report
content tree. Two readers build such a document from other input:
:func:`report_from_segmentation` from an opened Segmentation (one planar
bounding-box group per connected region of each stored frame), and
:func:`report_from_spec` from an annotation spec, the JSON document the
README describes. Opening exposes the document meta, the evidence
references, the parsed tree, and measurement-group views with filtering.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
    NoGeometryError,
    TemplateViolationError,
    ValueTypeForbiddenError,
    WrongSopClassError,
)
from ..part10 import read_part10_file
from ..spatial import mapper_from_geometry
from ..uid import COMPREHENSIVE_3D_SR_STORAGE, COMPREHENSIVE_SR_STORAGE
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
    IMAGE_GROUP_TID,
    PLANAR_GROUP_TID,
    VOLUMETRIC_GROUP_TID,
    ImageReference,
    SegmentReference,
    measurement_group,
    measurement_report,
    planar_roi_group,
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

    Raises ValueError for a threshold outside [0, 1], and DicomforgeError
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

    Codes are ``SCHEME:VALUE[:MEANING]`` strings, read by
    :func:`~dicomforge.coding.parse_code`. A 3D region without a frame of
    reference takes the first evidence instance's. A spec object, list,
    path or code of the wrong JSON type raises DicomforgeError naming its
    key, as do a missing top-level or group key and an unknown observer,
    group or region type.
    """
    _spec_value(spec, "annotation spec", dict)
    for key in ("observer", "evidence", "groups"):
        if key not in spec:
            raise DicomforgeError(f"annotation spec is missing {key!r}")
    evidence = [read_part10_file(path)[1] for path in _entries(spec, "evidence", str)]
    frame_uid = evidence[0].value("FrameOfReferenceUID") if evidence else None
    observer = _observer_from_spec(spec["observer"])
    procedure = (
        _code(spec["procedure"], "procedure") if "procedure" in spec
        else SCT.ImagingProcedure
    )
    groups = [_group_from_spec(g, frame_uid) for g in _entries(spec, "groups", dict)]
    return create_sr(kind, evidence, measurement_report(observer, procedure, groups))


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _spec_value(value, key: str, kind: type):
    """`value`, read from `key` of an annotation spec, if it is a `kind`
    (dict for an object, list, or str for a path or code); DicomforgeError
    otherwise."""
    if not isinstance(value, kind):
        raise DicomforgeError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _entries(spec: dict, key: str, kind: type) -> list:
    """The list under `key` of a spec object (empty when absent), each entry
    checked to be a `kind`."""
    entries = _spec_value(spec.get(key, []), key, list)
    return [_spec_value(entry, f"{key}[{i}]", kind) for i, entry in enumerate(entries)]


def _code(value, key: str) -> CodedConcept:
    return parse_code(_spec_value(value, key, str))


def _parse_unit(value) -> CodedConcept:
    text = _spec_value(value, "unit", str)
    try:
        return UCUM.get(text)
    except DicomforgeError:
        return CodedConcept(text, "UCUM", text)


def _observer_from_spec(spec) -> ObserverContext:
    kind = _spec_value(spec, "observer", dict).get("type", "device")
    if kind not in ("person", "device"):
        raise DicomforgeError(f"observer.type must be person or device, got {kind!r}")
    if "name" not in spec:
        raise DicomforgeError(f"observer.name is required for a {kind} observer")
    if kind == "person":
        return ObserverContext.person(spec["name"])
    return ObserverContext.device(
        name=spec["name"], uid=spec.get("uid"),
        manufacturer=spec.get("manufacturer"), version=spec.get("version"),
    )


_REGION_3D_TYPES = {"point3d": "POINT", "polyline3d": "POLYLINE",
                    "polygon3d": "POLYGON", "multipoint3d": "MULTIPOINT"}
_REGION_2D_TYPES = {"point2d": "POINT", "polyline2d": "POLYLINE",
                    "circle2d": "CIRCLE", "ellipse2d": "ELLIPSE",
                    "multipoint2d": "MULTIPOINT"}


def _region_from_spec(region, frame_uid: str | None):
    rtype = _spec_value(region, "region", dict).get("type")
    if rtype == "segment":
        return SegmentReference(
            sop_instance_uid=region["sop_instance_uid"],
            segment_number=int(region["segment_number"]),
        )
    if rtype in _REGION_3D_TYPES:
        frame_uid = region.get("frame_of_reference") or frame_uid
        if not frame_uid:
            raise DicomforgeError(
                "region needs a frame_of_reference (none found in evidence)"
            )
        return Scoord3DItem(None, _REGION_3D_TYPES[rtype], region["points"], frame_uid)
    if rtype in _REGION_2D_TYPES:
        image = region.get("image")
        if not image:
            raise DicomforgeError("a 2D region needs an image reference")
        _spec_value(image, "image", dict)
        source = ImageItem(
            None, image["sop_class_uid"], image["sop_instance_uid"],
            frame_numbers=image.get("frame_numbers"),
            relationship=RelationshipType.SELECTED_FROM,
        )
        return ScoordItem(None, _REGION_2D_TYPES[rtype], region["points"],
                          children=[source])
    raise DicomforgeError(f"unknown region type {rtype!r}")


def _group_from_spec(spec: dict, frame_uid: str | None) -> ContainerItem:
    for key in ("kind", "finding"):
        if key not in spec:
            raise DicomforgeError(f"group is missing required key {key!r}")
    tracking = TrackingIdentifier(
        uid=spec.get("tracking_uid") or TrackingIdentifier.generate().uid,
        identifier=spec.get("tracking_id"),
    )
    finding = _code(spec["finding"], "finding")
    sites = [parse_code(s) for s in _entries(spec, "finding_sites", str)]
    # a number goes to NumItem as a number, which formats it to fit a DS
    measurements = [
        NumItem(_code(m["code"], "code"), m["value"], _parse_unit(m["unit"]))
        for m in _entries(spec, "measurements", dict)
    ]
    evaluations = [
        CodeItem(_code(e["code"], "code"), _code(e["value"], "value"))
        for e in _entries(spec, "evaluations", dict)
    ]
    kind = spec["kind"]
    if kind == "image":
        return measurement_group(tracking, finding, measurements, evaluations)
    region = spec.get("region")
    if region is None:
        raise DicomforgeError(f"a {kind} group needs a region")
    if kind == "planar":
        return planar_roi_group(tracking, _region_from_spec(region, frame_uid),
                                finding, sites, measurements, evaluations)
    if kind == "volumetric":
        regions = region if isinstance(region, list) else [region]
        regions = [_region_from_spec(r, frame_uid) for r in regions]
        return volumetric_roi_group(tracking, regions, finding, sites,
                                    measurements, evaluations)
    raise DicomforgeError(f"group.kind must be planar|volumetric|image, got {kind!r}")


# -- parsing ------------------------------------------------------------------


class GroupKind(str, enum.Enum):
    PLANAR = "planar"
    VOLUMETRIC = "volumetric"
    IMAGE = "image-level"


_TEMPLATE_KIND = {
    PLANAR_GROUP_TID: GroupKind.PLANAR,
    VOLUMETRIC_GROUP_TID: GroupKind.VOLUMETRIC,
    IMAGE_GROUP_TID: GroupKind.IMAGE,
}


# Another name for SegmentReference: geometry() returns the type that the
# group builders take.
SegmentRegion = SegmentReference


@dataclass(frozen=True)
class WorldRegion:
    """3D frame-of-reference geometry (one or more point sets, mm)."""

    polygons: tuple[np.ndarray, ...]
    frame_of_reference_uid: str

    @property
    def points(self) -> np.ndarray:
        return np.vstack(self.polygons)


@dataclass(frozen=True)
class PixelRegion:
    """2D pixel-matrix geometry plus the image it indexes into."""

    points: np.ndarray
    source: ImageReference | None


@dataclass(frozen=True)
class MeasurementGroupView:
    """Read-only projection of one measurement-group subtree."""

    kind: GroupKind
    tracking: TrackingIdentifier | None
    finding: CodedConcept | None
    finding_sites: tuple[CodedConcept, ...]
    measurements: tuple[tuple[CodedConcept, str, CodedConcept], ...]
    evaluations: tuple[tuple[CodedConcept, CodedConcept], ...]
    container: ContainerItem = field(repr=False)
    _segment_items: tuple[ImageItem, ...] = field(repr=False)
    _scoord_items: tuple[ScoordItem, ...] = field(repr=False)
    _scoord3d_items: tuple[Scoord3DItem, ...] = field(repr=False)

    def geometry(self):
        """The group's region geometry.

        Returns a SegmentReference, a WorldRegion (3D), a PixelRegion (2D), or
        a tuple of PixelRegion for per-frame 2D contours. Image-level
        groups have no geometry and raise NoGeometryError.
        """
        if self._segment_items:
            item = self._segment_items[0]
            return SegmentReference(item.sop_instance_uid, item.segment_number,
                                    item.sop_class_uid)
        if self._scoord3d_items:
            return WorldRegion(
                polygons=tuple(i.points for i in self._scoord3d_items),
                frame_of_reference_uid=self._scoord3d_items[0].frame_of_reference_uid,
            )
        if self._scoord_items:
            regions = []
            for item in self._scoord_items:
                source = item.source_image()
                ref = None
                if source is not None:
                    ref = ImageReference(
                        sop_class_uid=source.sop_class_uid,
                        sop_instance_uid=source.sop_instance_uid,
                        frame_numbers=source.frame_numbers,
                    )
                regions.append(PixelRegion(points=item.points, source=ref))
            return regions[0] if len(regions) == 1 else tuple(regions)
        raise NoGeometryError("image-level measurement groups carry no region")


def _project_group(container: ContainerItem) -> MeasurementGroupView:
    tracking_uid = None
    tracking_id = None
    finding = None
    sites = []
    measurements = []
    evaluations = []
    segments = []
    scoords = []
    scoord3ds = []
    for item in container.children:
        if item.value_type is ValueType.UIDREF and item.name == DCM.TrackingUniqueIdentifier:
            tracking_uid = item.value
        elif item.value_type is ValueType.TEXT and item.name == DCM.TrackingIdentifier:
            tracking_id = item.value
        elif item.value_type is ValueType.CODE:
            if item.name == DCM.Finding:
                finding = item.value
            elif item.name == SCT.FindingSite:
                sites.append(item.value)
            else:
                evaluations.append((item.name, item.value))
        elif item.value_type is ValueType.NUM:
            measurements.append((item.name, item.value, item.unit))
        elif isinstance(item, ImageItem) and item.segment_number is not None:
            segments.append(item)
        elif isinstance(item, ScoordItem):
            scoords.append(item)
        elif isinstance(item, Scoord3DItem):
            scoord3ds.append(item)
    kind = _TEMPLATE_KIND.get(container.template_id or "")
    if kind is None:
        if segments or len(scoords) + len(scoord3ds) > 1:
            kind = GroupKind.VOLUMETRIC
        elif scoords or scoord3ds:
            kind = GroupKind.PLANAR
        else:
            kind = GroupKind.IMAGE
    tracking = (
        TrackingIdentifier(uid=tracking_uid, identifier=tracking_id)
        if tracking_uid
        else None
    )
    return MeasurementGroupView(
        kind=kind,
        tracking=tracking,
        finding=finding,
        finding_sites=tuple(sites),
        measurements=tuple(measurements),
        evaluations=tuple(evaluations),
        container=container,
        _segment_items=tuple(segments),
        _scoord_items=tuple(scoords),
        _scoord3d_items=tuple(scoord3ds),
    )


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
        groups = []
        for measurements_container in self.tree.find(
            name=DCM.ImagingMeasurements, value_type=ValueType.CONTAINER
        ):
            for child in measurements_container.children:
                if isinstance(child, ContainerItem):
                    groups.append(_project_group(child))
        out = []
        for group in groups:
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
