"""Measurement-report templates: the builders that write the group format
and the views that read it back.

The report root follows the Measurement Report layout (TID 1500):
observation context, the procedure reported, an image-library placeholder,
then one container of measurement groups. Groups come in three kinds
(:class:`GroupKind`) that differ only in how the region is expressed:

* planar (TID 1410): one 2D image region (with source-image reference) or
  one 3D region
* volumetric (TID 1411): a referenced segment, stacked 3D contours, or
  per-frame 2D regions
* image-level (TID 1501): no region at all, just measurements/evaluations
  of whole images

Only the template-mandatory items are enforced at build time (tracking,
finding, region presence); anything beyond that is additive, so templates
stay extensible. :func:`report_groups` reads the groups of a report tree
back as :class:`MeasurementGroupView` projections, whose ``geometry()``
returns the region types the builders take.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..coding import DCM, SCT, CodedConcept
from ..errors import MissingReferenceError, NoGeometryError, TemplateViolationError
from ..uid import SEGMENTATION_STORAGE
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
    TextItem,
    TrackingIdentifier,
    UIDRefItem,
    ValueType,
)

MEASUREMENT_REPORT_TID = "1500"


class GroupKind(str, enum.Enum):
    PLANAR = "planar"
    VOLUMETRIC = "volumetric"
    IMAGE = "image-level"


# the template of each group kind, written by the builders and read back
_TEMPLATE_ID = {
    GroupKind.PLANAR: "1410",
    GroupKind.VOLUMETRIC: "1411",
    GroupKind.IMAGE: "1501",
}

_CONTAINS = RelationshipType.CONTAINS
_OBS = RelationshipType.HAS_OBS_CONTEXT


@dataclass(frozen=True)
class SegmentReference:
    """Region expressed by reference to one segment of a SEG instance."""

    sop_instance_uid: str
    segment_number: int
    sop_class_uid: str = SEGMENTATION_STORAGE

    def to_item(self) -> ImageItem:
        return ImageItem(
            DCM.ReferencedSegment,
            sop_class_uid=self.sop_class_uid,
            sop_instance_uid=self.sop_instance_uid,
            segment_number=self.segment_number,
            relationship=_CONTAINS,
        )


@dataclass(frozen=True)
class ImageReference:
    """Reference to a whole source image (optionally specific frames)."""

    sop_class_uid: str
    sop_instance_uid: str
    frame_numbers: tuple[int, ...] | None = None

    def to_item(self, name=None, relationship=_CONTAINS) -> ImageItem:
        return ImageItem(
            name if name is not None else DCM.SourceOfMeasurement,
            sop_class_uid=self.sop_class_uid,
            sop_instance_uid=self.sop_instance_uid,
            frame_numbers=self.frame_numbers,
            relationship=relationship,
        )


def _group(
    kind: GroupKind,
    tracking: TrackingIdentifier | None,
    finding: CodedConcept | None,
    finding_sites: Sequence[CodedConcept],
    measurements: Sequence[NumItem],
    evaluations: Sequence[CodeItem],
    region_items: Sequence[ContentItem] = (),
    referenced_images: Sequence[ImageReference] = (),
) -> ContainerItem:
    """The measurement group of `kind`: tracking, region, finding, sites,
    measurements and evaluations, then the images an image-level group
    references."""
    if tracking is None:
        raise TemplateViolationError("a measurement group needs a tracking identifier")
    if finding is None:
        raise TemplateViolationError("a measurement group needs a finding")
    items: list[ContentItem] = []
    if tracking.identifier:
        items.append(TextItem(DCM.TrackingIdentifier, tracking.identifier,
                              relationship=_OBS))
    items.append(UIDRefItem(DCM.TrackingUniqueIdentifier, tracking.uid,
                            relationship=_OBS))
    items.extend(region_items)
    items.append(CodeItem(DCM.Finding, finding, relationship=_CONTAINS))
    items.extend(
        CodeItem(SCT.FindingSite, site, relationship=_CONTAINS)
        for site in finding_sites
    )
    items.extend(m.with_relationship(_CONTAINS) for m in measurements)
    items.extend(e.with_relationship(_CONTAINS) for e in evaluations)
    items.extend(ref.to_item() for ref in referenced_images)
    return ContainerItem(
        DCM.MeasurementGroup,
        children=items,
        relationship=_CONTAINS,
        template_id=_TEMPLATE_ID[kind],
    )


def _region_item(region) -> ContentItem:
    if isinstance(region, SegmentReference):
        return region.to_item()
    if isinstance(region, ScoordItem) and region.source_image() is None:
        raise MissingReferenceError(
            "a 2D image region must carry its source-image reference"
        )
    if isinstance(region, (ScoordItem, Scoord3DItem)):
        return region._clone(relationship=_CONTAINS,
                             name=DCM.ImageRegion if region.name is None else region.name)
    raise TypeError(f"unsupported region form: {type(region).__name__}")


def planar_roi_group(
    tracking: TrackingIdentifier,
    region,
    finding: CodedConcept,
    finding_sites: Sequence[CodedConcept] = (),
    measurements: Sequence[NumItem] = (),
    evaluations: Sequence[CodeItem] = (),
) -> ContainerItem:
    """Planar ROI measurements group.

    `region` is exactly one of: a 2D ScoordItem that carries a SELECTED FROM
    source-image child, a Scoord3DItem, or a SegmentReference.
    """
    return _group(GroupKind.PLANAR, tracking, finding, finding_sites, measurements,
                  evaluations, [_region_item(region)])


def volumetric_roi_group(
    tracking: TrackingIdentifier,
    region,
    finding: CodedConcept,
    finding_sites: Sequence[CodedConcept] = (),
    measurements: Sequence[NumItem] = (),
    evaluations: Sequence[CodeItem] = (),
) -> ContainerItem:
    """Volumetric ROI measurements group.

    `region` is a SegmentReference, a sequence of closed 3D contours
    (Scoord3DItem), or a sequence of per-frame 2D regions (ScoordItem, each
    with its source-image reference). The group holds one of these forms:
    a sequence that mixes them, or holds more than one SegmentReference,
    raises TemplateViolationError.
    """
    if isinstance(region, (SegmentReference, ScoordItem, Scoord3DItem)):
        region = [region]
    region_items = [_region_item(r) for r in region]
    if not region_items:
        raise TemplateViolationError(
            "a volumetric group needs contours or a referenced segment"
        )
    if len({type(item) for item in region_items}) > 1 or (
            len(region_items) > 1 and isinstance(region_items[0], ImageItem)):
        raise TemplateViolationError(
            "a volumetric group holds one referenced segment, 3D contours or 2D regions"
        )
    return _group(GroupKind.VOLUMETRIC, tracking, finding, finding_sites, measurements,
                  evaluations, region_items)


def measurement_group(
    tracking: TrackingIdentifier,
    finding: CodedConcept,
    measurements: Sequence[NumItem] = (),
    evaluations: Sequence[CodeItem] = (),
    referenced_images: Sequence[ImageReference] = (),
) -> ContainerItem:
    """Image-/series-level measurements group (no region)."""
    return _group(GroupKind.IMAGE, tracking, finding, (), measurements, evaluations,
                  referenced_images=referenced_images)


def measurement_report(
    observer: ObserverContext,
    procedure: CodedConcept,
    groups: Sequence[ContainerItem],
) -> ContainerItem:
    """Assemble the full report tree around prepared measurement groups."""
    groups = list(groups)
    if not groups:
        raise TemplateViolationError("a measurement report needs at least one group")
    for group in groups:
        if not isinstance(group, ContainerItem):
            raise TemplateViolationError("groups must be measurement-group containers")
    children: list[ContentItem] = list(observer.to_items())
    children.append(CodeItem(
        DCM.ProcedureReported, procedure,
        relationship=RelationshipType.HAS_CONCEPT_MOD,
    ))
    children.append(ContainerItem(DCM.ImageLibrary, relationship=_CONTAINS))
    children.append(ContainerItem(
        DCM.ImagingMeasurements,
        children=groups,
        relationship=_CONTAINS,
    ))
    return ContainerItem(
        DCM.ImagingMeasurementReport,
        children=children,
        template_id=MEASUREMENT_REPORT_TID,
    )


# -- reading ------------------------------------------------------------------


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
                ref = None if source is None else ImageReference(
                    sop_class_uid=source.sop_class_uid,
                    sop_instance_uid=source.sop_instance_uid,
                    frame_numbers=source.frame_numbers,
                )
                regions.append(PixelRegion(points=item.points, source=ref))
            return regions[0] if len(regions) == 1 else tuple(regions)
        raise NoGeometryError("image-level measurement groups carry no region")


# Concepts that _project_group compares items with, bound once rather than
# looked up per item
_TRACKING_UID = DCM.TrackingUniqueIdentifier
_TRACKING_ID = DCM.TrackingIdentifier
_FINDING = DCM.Finding
_FINDING_SITE = SCT.FindingSite


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
        if item.value_type is ValueType.UIDREF and item.name == _TRACKING_UID:
            tracking_uid = item.value
        elif item.value_type is ValueType.TEXT and item.name == _TRACKING_ID:
            tracking_id = item.value
        elif item.value_type is ValueType.CODE:
            if item.name == _FINDING:
                finding = item.value
            elif item.name == _FINDING_SITE:
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
    kind = next((k for k, tid in _TEMPLATE_ID.items() if tid == container.template_id), None)
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


def report_groups(tree: ContainerItem) -> list[MeasurementGroupView]:
    """Views of the measurement groups in each Imaging Measurements
    container of a report tree, in document order: the groups that
    :func:`measurement_report` assembled."""
    return [
        _project_group(child)
        for container in tree.find(name=DCM.ImagingMeasurements, value_type=ValueType.CONTAINER)
        for child in container.children
        if isinstance(child, ContainerItem)
    ]
