"""Generated SR reports through the whole round trip.

Each example builds a measurement report (`sr_strategies.reports`), runs
`create_sr` -> `write_part10` -> `read_part10` -> `open_sr`, and checks
that the tree and the measurement groups read back are the ones built,
that the decoded data set encodes to the same bytes, and that `dump-sr`
prints every item of the tree. A variant strips the template identifier
from every group, as a foreign SR may, and checks the kind each group is
then given by its regions.
"""
import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from dicomforge.cli import main
from dicomforge.coding import DCM, concept_from_items
from dicomforge.errors import NoGeometryError
from dicomforge.part10 import file_meta_for, read_part10, write_part10
from dicomforge.sr import (
    GroupKind,
    ScoordItem,
    SegmentReference,
    WorldRegion,
    create_sr,
    open_sr,
)
from sr_strategies import EVIDENCE, reports

ROUND_TRIPS = settings(max_examples=200, deadline=None)


def part10(report) -> bytes:
    """The Part 10 bytes of the SR built around the report's tree."""
    ds = create_sr(report.kind, EVIDENCE, report.tree)
    return write_part10(file_meta_for(ds), ds)


def check_geometry(view, region) -> None:
    """The view's geometry is the region its group was built with."""
    if region is None:
        with pytest.raises(NoGeometryError):
            view.geometry()
        return
    geometry = view.geometry()
    if isinstance(region, SegmentReference):
        assert geometry == region
    elif isinstance(region[0], ScoordItem):
        pixels = geometry if isinstance(geometry, tuple) else (geometry,)
        assert len(pixels) == len(region)
        for pixel, item in zip(pixels, region):
            assert np.array_equal(pixel.points, item.points)
            source = item.children[0]
            assert pixel.source.sop_instance_uid == source.sop_instance_uid
            assert pixel.source.frame_numbers == source.frame_numbers
    else:
        assert isinstance(geometry, WorldRegion)
        assert geometry.frame_of_reference_uid == region[0].frame_of_reference_uid
        assert len(geometry.polygons) == len(region)
        for polygon, item in zip(geometry.polygons, region):
            assert np.array_equal(polygon, item.points)


def rendered(item, depth=0):
    """The lines `dump-sr` prints for `item` and its subtree."""
    relationship = f"{item.relationship.value} " if item.relationship else ""
    name = item.name.meaning if item.name else "(unnamed)"
    yield f"{'  ' * depth}{relationship}{item.value_type.value} {name}: {item.summary()}"
    for child in item.children:
        yield from rendered(child, depth + 1)


@ROUND_TRIPS
@given(reports())
def test_report_reads_back_as_built(report):
    data = part10(report)
    _, ds = read_part10(data)
    doc = open_sr(ds)
    assert doc.kind is report.kind
    assert doc.tree == report.tree
    views = doc.measurement_groups()
    assert len(views) == len(report.groups)
    for view, group in zip(views, report.groups):
        assert view.container == group.container
        assert (view.kind, view.tracking, view.finding) == (
            group.kind, group.tracking, group.finding)
        assert view.finding_sites == group.finding_sites
        assert view.measurements == group.measurements
        assert view.evaluations == group.evaluations
        check_geometry(view, group.region)
    # reading the tree leaves the data set as decoded, and that encodes
    # to the bytes it was decoded from
    assert write_part10(file_meta_for(ds), ds) == data


@ROUND_TRIPS
@given(reports())
def test_dump_sr_prints_every_item(report):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "sr.dcm")
        with open(path, "wb") as handle:
            handle.write(part10(report))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["dump-sr", path]) == 0
    assert out.getvalue().split("\n") == [*rendered(report.tree), ""]


def strip_group_templates(ds) -> None:
    """Remove ContentTemplateSequence from every measurement group container
    of the SR data set `ds`."""
    for item in ds.items_of("ContentSequence"):
        names = item.items_of("ConceptNameCodeSequence")
        if names and concept_from_items(names[0]) == DCM.ImagingMeasurements:
            for group in item.items_of("ContentSequence"):
                group.remove("ContentTemplateSequence")


def kind_by_regions(group) -> GroupKind:
    """The kind a group without a template identifier reads as: a segment
    reference or more than one region is volumetric, one region planar,
    no region image-level; whatever kind it was built as."""
    if group.region is None:
        return GroupKind.IMAGE
    if isinstance(group.region, SegmentReference) or len(group.region) > 1:
        return GroupKind.VOLUMETRIC
    return GroupKind.PLANAR


@ROUND_TRIPS
@given(reports())
def test_groups_without_templates_read_by_their_regions(report):
    ds = create_sr(report.kind, EVIDENCE, report.tree)
    strip_group_templates(ds)
    _, decoded = read_part10(write_part10(file_meta_for(ds), ds))
    views = open_sr(decoded).measurement_groups()
    assert [view.container.template_id for view in views] == [None] * len(report.groups)
    assert [view.kind for view in views] == list(map(kind_by_regions, report.groups))
