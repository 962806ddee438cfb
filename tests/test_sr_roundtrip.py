"""Generated SR reports through the whole round trip.

Each example builds a measurement report (`sr_strategies.reports`), runs
`create_sr` -> `write_part10` -> `read_part10` -> `open_sr`, and checks
that the tree and the measurement groups read back are the ones built,
that the decoded data set encodes to the same bytes, and that `dump-sr`
prints every item of the tree.
"""
import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from dicomforge.cli import main
from dicomforge.errors import NoGeometryError
from dicomforge.part10 import file_meta_for, read_part10, write_part10
from dicomforge.sr import ScoordItem, SegmentReference, WorldRegion, create_sr, open_sr
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
