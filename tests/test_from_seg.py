"""SEG -> bounding-box SR: `mk-sr --from-seg` bytes pinned over fixed SEGs."""
import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import make_ct_series
from dicomforge.cli import main
from dicomforge.coding import SCT
from dicomforge.dataset import DataElement, DataSet
from dicomforge.errors import DicomforgeError
from dicomforge.part10 import (
    file_meta_for,
    read_part10,
    read_part10_file,
    write_part10,
    write_part10_file,
)
from dicomforge.seg import SegmentDescription, SegmentationType, create_seg, open_seg
from dicomforge.sr import report_from_segmentation
from dicomforge.sr.items import AlgorithmIdentification
from dicomforge.tags import keyword_of
from dicomforge.valuerep import VR
from test_seg import non_numeric_position


def probability_maps() -> np.ndarray:
    """Two segments over three 12x10 frames. Segment 1 is empty on frame 2;
    the 0.3 and 0.45 blobs fall below the default threshold of 0.5."""
    maps = np.zeros((2, 3, 12, 10))
    maps[0, 0, 1:4, 2:6] = 0.9
    maps[0, 0, 7:10, 6:9] = 0.6
    maps[0, 0, 10:12, 0:2] = 0.3
    maps[0, 2, 2:8, 1:3] = 0.55
    maps[1, 1, 3:9, 3:7] = 0.8
    maps[1, 1, 0, 9] = 0.45
    maps[1, 2, 0:2, :] = 0.7
    maps[1, 2, 10:12, 4:6] = 0.45
    return maps


def build_seg(kind: str) -> DataSet:
    """A fractional SEG of the maps, or a binary SEG of every nonzero pixel."""
    maps = probability_maps()
    descriptions = [
        SegmentDescription(
            number=1, label="nodules",
            category=SCT.MorphologicallyAbnormalStructure, property_type=SCT.Nodule,
            algorithm=AlgorithmIdentification("detector", "1.0"),
        ),
        SegmentDescription(
            number=2, label="tumours",
            category=SCT.MorphologicallyAbnormalStructure, property_type=SCT.Tumor,
            algorithm=AlgorithmIdentification("detector", "1.0"),
            anatomic_site=SCT.Lung,
        ),
    ]
    if kind == "fractional":
        return create_seg(make_ct_series(3, rows=12, cols=10), list(maps),
                          descriptions, SegmentationType.fractional())
    return create_seg(make_ct_series(3, rows=12, cols=10), list(maps > 0),
                      descriptions, SegmentationType.binary())


def normalized_sha256(blob: bytes) -> str:
    """SHA-256 of Part 10 bytes with every generated `2.25.` UID renumbered
    in order of first appearance and ContentDate/ContentTime blanked."""
    uids: dict[str, str] = {}

    def uid(value: str) -> str:
        if not value.startswith("2.25."):
            return value
        return uids.setdefault(value, f"2.25.{len(uids) + 1}")

    def normalize(ds: DataSet) -> DataSet:
        out = DataSet()
        for element in ds:
            if element.vr is VR.SQ:
                value = tuple(normalize(item) for item in element.values)
            elif element.vr is VR.UI:
                value = tuple(uid(v) for v in element.values)
            elif keyword_of(element.tag) in ("ContentDate", "ContentTime"):
                value = ""
            else:
                value = element.raw
            out.add(DataElement(element.tag, element.vr, value))
        return out

    meta, ds = read_part10(blob)
    meta = dataclasses.replace(
        meta, media_storage_sop_instance_uid=uid(meta.media_storage_sop_instance_uid)
    )
    return hashlib.sha256(write_part10(meta, normalize(ds))).hexdigest()


# (SEG kind, --threshold) -> groups written, normalized SHA-256 of the SR.
# The binary SEG holds every nonzero pixel, as the fractional one does at
# 0.25, so the two reports are the same.
PINNED = {
    ("fractional", "0.5"): (5, "39b823dfeb337c8464cb3caba0d245bf"
                               "7fbd39abae54728d2a6186f9fb627f13"),
    ("fractional", "0.25"): (8, "e57e5375831891d974d683239c103ab9"
                                "c47a6246e5b44b6e8f2514ced14f87eb"),
    ("binary", "0.5"): (8, "e57e5375831891d974d683239c103ab9"
                           "c47a6246e5b44b6e8f2514ced14f87eb"),
}


@pytest.fixture(params=sorted(PINNED), ids="-".join)
def case(request, tmp_path):
    kind, threshold = request.param
    path = tmp_path / f"{kind}.dcm"
    write_part10_file(path, build_seg(kind))
    return path, threshold, PINNED[request.param]


def test_cli_output_is_pinned(case, tmp_path, capsys):
    seg_path, threshold, (groups, digest) = case
    out = tmp_path / "sr.dcm"
    code = main(["mk-sr", "--from-seg", str(seg_path), "--threshold", threshold,
                 "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == f"wrote {out}: {groups} group(s)\n"
    assert normalized_sha256(out.read_bytes()) == digest


def test_library_output_is_the_cli_pin(case):
    seg_path, threshold, (_, digest) = case
    segmentation = open_seg(read_part10_file(seg_path)[1])
    ds = report_from_segmentation(segmentation, float(threshold))
    assert normalized_sha256(write_part10(file_meta_for(ds), ds)) == digest


def test_seg_without_frame_of_reference():
    seg = build_seg("binary")
    seg.remove("FrameOfReferenceUID")
    with pytest.raises(DicomforgeError, match="lacks a frame of reference"):
        report_from_segmentation(open_seg(seg))


def test_threshold_that_leaves_no_region():
    with pytest.raises(DicomforgeError, match="no regions found at threshold 0.95"):
        report_from_segmentation(open_seg(build_seg("fractional")), 0.95)


@pytest.mark.parametrize("threshold", ["-0.5", "1.5", "nan"])
@pytest.mark.parametrize("kind", ["fractional", "binary"])
def test_threshold_outside_unit_interval(kind, threshold, tmp_path, capsys):
    seg = build_seg(kind)
    with pytest.raises(ValueError, match=r"threshold must be within \[0, 1\]"):
        report_from_segmentation(open_seg(seg), float(threshold))
    seg_path = tmp_path / "seg.dcm"
    write_part10_file(seg_path, seg)
    code = main(["mk-sr", "--from-seg", str(seg_path), "--threshold", threshold,
                 "-o", str(tmp_path / "sr.dcm")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"ERROR usage: threshold must be within [0, 1], got {float(threshold)}\n"
    )
    assert not (tmp_path / "sr.dcm").exists()


def _frame_with_segment_9(seg):
    seg.items_of("PerFrameFunctionalGroupsSequence")[1].put(
        "SegmentIdentificationSequence", (DataSet.of(ReferencedSegmentNumber=9),))


def _frame_with_non_numeric_position(seg):
    seg.items_of("PerFrameFunctionalGroupsSequence")[1].put(
        "PlanePositionSequence", (non_numeric_position(),))


@pytest.mark.parametrize("corrupt, message", [
    (_frame_with_segment_9, "frame 2 names segment 9, which no segment item describes"),
    (_frame_with_non_numeric_position, "frame 2 lacks a plane position of three numbers"),
], ids=["undescribed segment", "non-numeric position"])
def test_malformed_frame_is_a_validation_error(corrupt, message, tmp_path, capsys):
    seg = build_seg("binary")
    corrupt(seg)
    seg_path = tmp_path / "seg.dcm"
    write_part10_file(seg_path, seg)
    code = main(["mk-sr", "--from-seg", str(seg_path), "-o", str(tmp_path / "sr.dcm")])
    assert code == 1
    assert capsys.readouterr().err == f"ERROR validation: {message}\n"
    assert not (tmp_path / "sr.dcm").exists()
