"""Hypothesis strategies for valid SR content.

`content_items` builds a content item of any value type in
``items._ITEM_CLASSES``, with a subtree of further items; `reports` builds
a whole measurement report (planar, volumetric and image-level groups, in
either SR kind) together with what each group should read back as. Every
value is one that a Part 10 round trip keeps: codes from the registries or
made up, UCUM units, decimal strings, FL-exact points, closed polygons,
well-formed UIDs, and text without the trailing spaces a decoder strips.
Every referenced image is an instance of `EVIDENCE`, so `create_sr`
accepts every report.
"""
from __future__ import annotations

from datetime import datetime
from typing import NamedTuple

from hypothesis import strategies as st

from conftest import make_ct_source
from dicomforge.coding import CADSR, DCM, ICD10CM, ICDO3, SCT, UCUM, CodedConcept
from dicomforge.dataset import DataSet
from dicomforge.sr import (
    CodeItem,
    ContainerItem,
    GroupKind,
    ImageItem,
    ImageReference,
    NumItem,
    ObserverContext,
    RelationshipType,
    ScoordItem,
    Scoord3DItem,
    SegmentReference,
    SRKind,
    TrackingIdentifier,
    ValueType,
    measurement_group,
    measurement_report,
    planar_roi_group,
    volumetric_roi_group,
)
from dicomforge.sr.items import _ARITY_2D, _ARITY_3D, _ITEM_CLASSES, ContinuityOfContent
from dicomforge.uid import SEGMENTATION_STORAGE

FRAME_OF_REFERENCE_UID = "2.25.30"
SEG_UID = "2.25.200"
EVIDENCE = [
    make_ct_source(study_uid="2.25.10", series_uid="2.25.20", sop_uid=f"2.25.{100 + i}",
                   frame_of_reference_uid=FRAME_OF_REFERENCE_UID, instance_number=i + 1)
    for i in range(2)
] + [DataSet.of(SOPClassUID=SEGMENTATION_STORAGE, SOPInstanceUID=SEG_UID,
                SeriesInstanceUID="2.25.21", StudyInstanceUID="2.25.10")]
# (SOP class, SOP instance) of each evidence image
SOURCES = [(ds.value("SOPClassUID"), ds.value("SOPInstanceUID")) for ds in EVIDENCE[:2]]

# -- values -------------------------------------------------------------------

_WORDS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
                 min_size=1, max_size=8)


def text(max_size: int, backslash: bool = False):
    """Printable text of at most two UTF-8 bytes a character, non-ASCII
    letters included, with no space at either end; a backslash only where
    the VR allows one."""
    characters = st.characters(
        whitelist_categories=("L", "N", "P", "S", "Zs"), max_codepoint=0x7FF,
        blacklist_characters="" if backslash else "\\")
    return st.text(characters, min_size=1, max_size=max_size).map(str.strip).filter(bool)


UIDS = st.lists(st.integers(0, 10 ** 9).map(str), min_size=2, max_size=5).map(".".join)
# Registry codes and made-up ones (values longer than 16 characters are
# written as LongCodeValue). No item is named Imaging Measurements, the
# container that measurement_groups() looks for.
CODES = st.sampled_from([code for registry in (DCM, SCT, CADSR, ICDO3, ICD10CM)
                         for code in registry if code != DCM.ImagingMeasurements]) | st.builds(
    CodedConcept, st.text("0123456789ABCXYZ.-", min_size=1, max_size=24),
    st.sampled_from(["99TEST", "SCT", "LN"]), text(30), st.none() | st.just("2024"))
UNITS = st.sampled_from(list(UCUM)) | _WORDS.map(lambda unit: CodedConcept(unit, "UCUM", unit))
NUMBERS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(1 - 10 ** 15, 10 ** 16 - 1)
           | st.sampled_from(["0", "-1.5", "+2", "1e3", ".5", "7."]))
DATETIMES = st.datetimes(datetime(1900, 1, 1)).map(lambda d: d.strftime("%Y%m%d%H%M%S"))
PERSON_NAMES = st.lists(_WORDS, min_size=1, max_size=3).map("^".join)
FRAME_NUMBERS = st.none() | st.lists(st.integers(1, 2 ** 31 - 1), max_size=3)
SEGMENT_NUMBERS = st.integers(1, 2 ** 16 - 1)
TEMPLATE_IDS = st.none() | st.integers(1, 9999).map(str)
COORDINATES = st.floats(-1e6, 1e6, width=32)

# The constructor arguments after the name, by value type, for the types
# whose arguments do not depend on each other.
VALUES = {
    ValueType.CODE: st.tuples(CODES),
    ValueType.NUM: st.tuples(NUMBERS, UNITS, st.none() | CODES),
    ValueType.TEXT: st.tuples(text(64, backslash=True)),
    ValueType.UIDREF: st.tuples(UIDS),
    ValueType.PNAME: st.tuples(PERSON_NAMES),
    ValueType.DATETIME: st.tuples(DATETIMES),
    ValueType.IMAGE: st.tuples(st.sampled_from(SOURCES), st.none() | SEGMENT_NUMBERS,
                               FRAME_NUMBERS).map(lambda a: (*a[0], *a[1:])),
    ValueType.COMPOSITE: st.tuples(UIDS, UIDS),
}


@st.composite
def scoords(draw, cls, name=None, relationship=None, children=()):
    """A SCOORD (`cls` ScoordItem) or SCOORD3D item with as many points as
    its graphic type takes; a polygon is closed."""
    width, arity = (2, _ARITY_2D) if cls is ScoordItem else (3, _ARITY_3D)
    graphic_type = draw(st.sampled_from(list(arity)))
    low, high = arity[graphic_type]
    closed = graphic_type.value == "POLYGON"
    count = draw(st.integers(low, high or low + 4)) - closed
    points = draw(st.lists(st.tuples(*[COORDINATES] * width), min_size=count, max_size=count))
    points += points[:1] if closed else []
    if cls is ScoordItem:
        return ScoordItem(name, graphic_type, points, relationship, children)
    return Scoord3DItem(name, graphic_type, points, FRAME_OF_REFERENCE_UID,
                        relationship, children)


@st.composite
def source_images(draw):
    """The SELECTED FROM child of a 2D region: one of the evidence images."""
    return ImageItem(
        None, *draw(st.sampled_from(SOURCES)), frame_numbers=draw(FRAME_NUMBERS),
        relationship=RelationshipType.SELECTED_FROM)


@st.composite
def content_items(draw, allow_3d: bool = True, relationship=None, depth: int = 0):
    """A content item of any value type (SCOORD3D only if `allow_3d`) with
    up to three children, each related as its parent allows, down to a
    depth of two."""
    value_type = draw(st.sampled_from(
        [t for t in _ITEM_CLASSES if allow_3d or t is not ValueType.SCOORD3D]))
    children = []
    if depth < 2:
        relationships = st.sampled_from(
            [r for r in RelationshipType
             if value_type is ValueType.CONTAINER or r is not RelationshipType.CONTAINS])
        for _ in range(draw(st.integers(0, 3 - depth))):
            children.append(draw(content_items(allow_3d, draw(relationships), depth + 1)))
    if value_type is ValueType.CONTAINER:
        return ContainerItem(draw(CODES), children, draw(st.sampled_from(ContinuityOfContent)),
                             relationship, draw(TEMPLATE_IDS))
    name = draw(st.none() | CODES)
    cls = _ITEM_CLASSES[value_type]
    if value_type in (ValueType.SCOORD, ValueType.SCOORD3D):
        return draw(scoords(cls, name, relationship, children))
    return cls(name, *draw(VALUES[value_type]), relationship=relationship, children=children)


# -- measurement groups and reports -------------------------------------------


class Group(NamedTuple):
    """A measurement group as built, and what its view should read back."""

    container: ContainerItem
    kind: GroupKind
    tracking: TrackingIdentifier
    finding: CodedConcept
    finding_sites: tuple
    measurements: tuple  # of (name, value, unit)
    evaluations: tuple  # of (name, value)
    region: object  # a SegmentReference, a list of SCOORD or SCOORD3D items, or None


class Report(NamedTuple):
    kind: SRKind
    tree: ContainerItem
    groups: list[Group]


@st.composite
def regions(draw, cls):
    """A region item of `cls` as a group builder takes it: a 2D region
    carries its source image."""
    name = draw(st.none() | CODES)
    if cls is ScoordItem:
        return draw(scoords(cls, name, children=[draw(source_images())]))
    return draw(scoords(cls, name))


@st.composite
def groups(draw, allow_3d: bool):
    """One planar, volumetric or image-level measurement group."""
    kind = draw(st.sampled_from(GroupKind))
    tracking = TrackingIdentifier(draw(UIDS), draw(st.none() | st.just("") | text(30)))
    finding = draw(CODES)
    measurements = draw(st.lists(st.builds(NumItem, CODES, NUMBERS, UNITS), max_size=3))
    # the group projection reads a CODE item named Finding or Finding Site
    # as the finding or a site, not as an evaluation
    evaluations = draw(st.lists(st.builds(
        CodeItem, CODES.filter(lambda code: code not in (DCM.Finding, SCT.FindingSite)),
        CODES), max_size=2))
    if kind is GroupKind.IMAGE:
        sites, region = [], None
        images = draw(st.lists(st.tuples(st.sampled_from(SOURCES), FRAME_NUMBERS).map(
            lambda a: ImageReference(*a[0], a[1])), max_size=2))
        container = measurement_group(tracking, finding, measurements, evaluations, images)
    else:
        sites = draw(st.lists(CODES, max_size=2))
        classes = [ScoordItem, Scoord3DItem] if allow_3d else [ScoordItem]
        forms = [st.builds(SegmentReference, st.just(SEG_UID), SEGMENT_NUMBERS)]
        # a planar group takes one region item, a volumetric one a list
        forms += [st.lists(regions(cls), min_size=1, max_size=1 if kind is GroupKind.PLANAR else 3)
                  for cls in classes]
        region = draw(st.one_of(forms))
        if kind is GroupKind.PLANAR:
            container = planar_roi_group(
                tracking, region[0] if isinstance(region, list) else region,
                finding, sites, measurements, evaluations)
        else:
            container = volumetric_roi_group(tracking, region, finding, sites,
                                             measurements, evaluations)
    return Group(
        container, kind, tracking, finding, tuple(sites),
        tuple((m.name, m.value, m.unit) for m in measurements),
        tuple((e.name, e.value) for e in evaluations), region)


@st.composite
def reports(draw):
    """A measurement report of one to four groups, in either SR kind, with
    up to two items of any value type added under its root."""
    kind = draw(st.sampled_from(SRKind))
    allow_3d = kind is SRKind.COMPREHENSIVE_3D
    built = draw(st.lists(groups(allow_3d), min_size=1, max_size=4))
    observer = draw(st.builds(ObserverContext.person, PERSON_NAMES) | st.builds(
        ObserverContext.device, text(30), UIDS, st.none() | text(30), st.none() | text(30)))
    tree = measurement_report(observer, draw(CODES), [group.container for group in built])
    extra = [draw(content_items(allow_3d, draw(st.sampled_from(RelationshipType)), 1))
             for _ in range(draw(st.integers(0, 2)))]
    if extra:
        tree = tree.with_children((*tree.children, *extra))
    return Report(kind, tree, built)
