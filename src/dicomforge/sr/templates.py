"""Measurement-report template builders.

The report root follows the Measurement Report layout: observation context,
the procedure reported, an image-library placeholder, then one container of
measurement groups. Groups come in three flavors that differ only in how
the region is expressed:

* planar: one 2D image region (with source-image reference) or one 3D region
* volumetric: a referenced segment, stacked 3D contours, or per-frame 2D regions
* image-level: no region at all, just measurements/evaluations of whole images

Only the template-mandatory items are enforced at build time (tracking,
finding, region presence); anything beyond that is additive, so templates
stay extensible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..coding import DCM, SCT, CodedConcept
from ..errors import MissingReferenceError, TemplateViolationError
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
)

MEASUREMENT_REPORT_TID = "1500"
PLANAR_GROUP_TID = "1410"
VOLUMETRIC_GROUP_TID = "1411"
IMAGE_GROUP_TID = "1501"

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


def _tracking_items(tracking: TrackingIdentifier) -> list[ContentItem]:
    items: list[ContentItem] = []
    if tracking.identifier:
        items.append(TextItem(DCM.TrackingIdentifier, tracking.identifier,
                              relationship=_OBS))
    items.append(UIDRefItem(DCM.TrackingUniqueIdentifier, tracking.uid,
                            relationship=_OBS))
    return items


def _common_items(
    tracking: TrackingIdentifier | None,
    finding: CodedConcept | None,
    finding_sites: Sequence[CodedConcept],
    measurements: Sequence[NumItem],
    evaluations: Sequence[CodeItem],
    region_items: Sequence[ContentItem],
) -> list[ContentItem]:
    if tracking is None:
        raise TemplateViolationError("a measurement group needs a tracking identifier")
    if finding is None:
        raise TemplateViolationError("a measurement group needs a finding")
    items = _tracking_items(tracking)
    items.extend(region_items)
    items.append(CodeItem(DCM.Finding, finding, relationship=_CONTAINS))
    items.extend(
        CodeItem(SCT.FindingSite, site, relationship=_CONTAINS)
        for site in finding_sites
    )
    items.extend(m.with_relationship(_CONTAINS) for m in measurements)
    items.extend(e.with_relationship(_CONTAINS) for e in evaluations)
    return items


def _group_container(template_id: str, children) -> ContainerItem:
    return ContainerItem(
        DCM.MeasurementGroup,
        children=children,
        relationship=_CONTAINS,
        template_id=template_id,
    )


def _planar_region_item(region) -> ContentItem:
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
    region_item = _planar_region_item(region)
    return _group_container(
        PLANAR_GROUP_TID,
        _common_items(tracking, finding, finding_sites, measurements,
                      evaluations, [region_item]),
    )


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
    with its source-image reference).
    """
    if isinstance(region, (SegmentReference, ScoordItem, Scoord3DItem)):
        region_items = [_planar_region_item(region)]
    else:
        region_items = [_planar_region_item(r) for r in region]
        if not region_items:
            raise TemplateViolationError(
                "a volumetric group needs contours or a referenced segment"
            )
    return _group_container(
        VOLUMETRIC_GROUP_TID,
        _common_items(tracking, finding, finding_sites, measurements,
                      evaluations, region_items),
    )


def measurement_group(
    tracking: TrackingIdentifier,
    finding: CodedConcept,
    measurements: Sequence[NumItem] = (),
    evaluations: Sequence[CodeItem] = (),
    referenced_images: Sequence[ImageReference] = (),
) -> ContainerItem:
    """Image-/series-level measurements group (no region)."""
    items = _common_items(tracking, finding, (), measurements, evaluations, [])
    items.extend(ref.to_item() for ref in referenced_images)
    return _group_container(IMAGE_GROUP_TID, items)


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
