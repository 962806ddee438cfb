"""End-to-end CLI tests (invoked in-process through cli.main)."""
import functools
import json
import random
import socket
from pathlib import Path

import numpy as np
import pytest

from conftest import make_ct_series, make_ct_source
from test_codec import FUZZ_WORDS, golden_sr
from test_from_seg import build_seg, normalized_sha256
from test_web import recording_server
from dicomforge.cli import build_parser, main
from dicomforge.errors import PartialStoreError
from dicomforge.coding import DCM, SCT, UCUM, CodedConcept
from dicomforge.dataset import DataSet
from dicomforge.part10 import file_meta_for, read_part10_file, write_part10, write_part10_file
from dicomforge.pgm import read_pgm, write_pgm
from dicomforge.seg import SegmentationType, SegmentDescription, create_seg, open_seg
from dicomforge.sr import (
    CodeItem,
    CompositeItem,
    ContainerItem,
    DateTimeItem,
    ImageItem,
    NumItem,
    PNameItem,
    RelationshipType,
    ScoordItem,
    Scoord3DItem,
    SRKind,
    TextItem,
    UIDRefItem,
    create_sr,
    open_sr,
)
from dicomforge.sr.items import AlgorithmIdentification, ContinuityOfContent
from dicomforge.uid import CT_IMAGE_STORAGE, SEGMENTATION_STORAGE
from dicomforge.web import StubArchive


@pytest.fixture
def source_files(tmp_path):
    series = make_ct_series(2)
    paths = []
    for i, ds in enumerate(series):
        path = tmp_path / f"ct{i}.dcm"
        write_part10_file(path, ds)
        paths.append(str(path))
    return paths, series


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMkSegParseSeg:
    def test_round_trip_bit_exact(self, tmp_path, source_files, capsys, np_rng):
        paths, _ = source_files
        masks = [(np_rng.random((16, 16)) < 0.5).astype(np.uint8) for _ in range(2)]
        mask_paths = []
        for i, mask in enumerate(masks):
            p = tmp_path / f"m{i}.pgm"
            write_pgm(p, mask)
            mask_paths.append(str(p))
        out = tmp_path / "seg.dcm"
        code, _, err = run([
            "mk-seg",
            "--source", paths[0], "--source", paths[1],
            "--mask", mask_paths[0], "--mask", mask_paths[1],
            "--label", "nodule",
            "--category", "SCT:49755003",
            "--type", "SCT:27925004",
            "--binary",
            "-o", str(out),
        ], capsys)
        assert code == 0, err

        for frame in (1, 2):
            map_path = tmp_path / f"map{frame}.pgm"
            code, _, err = run([
                "parse-seg", str(out), "--frame", str(frame),
                "-o", str(map_path),
            ], capsys)
            assert code == 0, err
            assert map_path.read_bytes() == (tmp_path / f"m{frame - 1}.pgm").read_bytes()

    @pytest.mark.parametrize("largest, code", [(255, 0), (256, 1)])
    def test_parse_seg_label_range(self, tmp_path, source_files, capsys, largest, code):
        _, series = source_files
        masks = [np.ones((2, 16, 16), np.uint8), np.zeros((2, 16, 16), np.uint8)]
        ds = create_seg(series, masks, [SegmentDescription(
            number=n, label=f"segment {n}",
            category=SCT.MorphologicallyAbnormalStructure, property_type=SCT.Nodule,
            algorithm=AlgorithmIdentification("detector", "1.0"),
        ) for n in (1, 2)], SegmentationType.binary())
        # segment 2 is renumbered by hand; it is empty, so no pixel holds it
        ds.items_of("SegmentSequence")[1].put("SegmentNumber", largest)
        path, out = tmp_path / "seg.dcm", tmp_path / "map.pgm"
        write_part10_file(path, ds)
        result, _, err = run(["parse-seg", str(path), "--frame", "1", "-o", str(out)], capsys)
        assert result == code, err
        if code:
            assert err == ("ERROR validation: segmentation describes segment numbers "
                           "above 255; PGM cannot hold them\n")
        else:
            assert np.array_equal(read_pgm(out), masks[0][0])

    def test_parse_seg_of_a_fractional_seg(self, tmp_path, capsys):
        path, out = tmp_path / "seg.dcm", tmp_path / "map.pgm"
        write_part10_file(path, build_seg("fractional"))
        code, _, err = run(["parse-seg", str(path), "--frame", "1", "-o", str(out)], capsys)
        assert (code, err) == (1, "ERROR validation: label maps need a BINARY "
                                  "segmentation, not a FRACTIONAL one\n")
        assert not out.exists()

    @pytest.mark.parametrize("mask, message", [
        (b"P6\n16 16\n255\n", "not a P5 portable graymap"),
        (b"P5\n16 x\n255\n", "malformed PGM header"),
        (b"P5\n16 16\n255\n" + bytes(10), "PGM pixel data is shorter than 16 x 16"),
    ])
    def test_malformed_mask(self, tmp_path, source_files, capsys, mask, message):
        paths, _ = source_files
        (tmp_path / "m.pgm").write_bytes(mask)
        code, _, err = run([
            "mk-seg", "--source", paths[0], "--mask", str(tmp_path / "m.pgm"),
            "--label", "x", "--category", "SCT:49755003", "--type", "SCT:27925004",
            "-o", str(tmp_path / "seg.dcm"),
        ], capsys)
        assert (code, err) == (1, f"ERROR validation: {message}\n")

    def test_validate_accepts_mk_seg_output(self, tmp_path, source_files, capsys):
        paths, _ = source_files
        mask = tmp_path / "m.pgm"
        write_pgm(mask, np.ones((16, 16), np.uint8))
        out = tmp_path / "seg.dcm"
        code, _, _ = run([
            "mk-seg", "--source", paths[0], "--source", paths[1],
            "--mask", str(mask), "--mask", str(mask),
            "--label", "x", "--category", "SCT:49755003",
            "--type", "SCT:27925004", "-o", str(out),
        ], capsys)
        assert code == 0
        code, stdout, _ = run(["validate", str(out)], capsys)
        assert code == 0
        assert "OK" in stdout

    def test_mask_count_mismatch(self, tmp_path, source_files, capsys):
        paths, _ = source_files
        mask = tmp_path / "m.pgm"
        write_pgm(mask, np.ones((16, 16), np.uint8))
        code, _, err = run([
            "mk-seg", "--source", paths[0], "--source", paths[1],
            "--mask", str(mask),
            "--label", "x", "--category", "SCT:49755003",
            "--type", "SCT:27925004", "-o", str(tmp_path / "s.dcm"),
        ], capsys)
        assert code == 1
        assert err.startswith("ERROR validation:")


DROP = object()


def spec_edit(group=False, **changes):
    """Set each key of the spec (or of its one group) to its value; DROP
    removes the key."""
    def edit(spec):
        target = spec["groups"][0] if group else spec
        for key, value in changes.items():
            if value is DROP:
                del target[key]
            else:
                target[key] = value
    return edit


SPEC_CASES = [pytest.param(edit, expected, id=name) for name, edit, expected in [
    ("invalid JSON", None, "ERROR validation: annotation spec is not valid JSON: "
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("person without name", spec_edit(observer={"type": "person"}),
     "ERROR validation: observer is missing required key 'name'"),
    ("device without name", spec_edit(observer={"type": "device"}),
     "ERROR validation: observer is missing required key 'name'"),
    ("unknown observer type", spec_edit(observer={"type": "robot", "name": "r2"}),
     "ERROR validation: observer.type must be person or device, got 'robot'"),
    ("unknown region type", spec_edit(True, region={"type": "blob", "points": [[0, 0]]}),
     "ERROR validation: groups[0].region.type must be one of segment, point3d, polyline3d, "
     "polygon3d, multipoint3d, point2d, polyline2d, circle2d, ellipse2d, multipoint2d, "
     "got 'blob'"),
    ("3D region without frame of reference", spec_edit(evidence=[]),
     "ERROR validation: groups[0].region needs a frame_of_reference (none found in evidence)"),
    ("2D region without image", spec_edit(True, region={"type": "point2d", "points": [[3, 4]]}),
     "ERROR validation: groups[0].region is missing required key 'image'"),
    ("group without kind", spec_edit(True, kind=DROP),
     "ERROR validation: groups[0] is missing required key 'kind'"),
    ("group without finding", spec_edit(True, finding=DROP),
     "ERROR validation: groups[0] is missing required key 'finding'"),
    ("group without region", spec_edit(True, region=DROP),
     "ERROR validation: groups[0] is missing required key 'region'"),
    ("unknown group kind", spec_edit(True, kind="blob"),
     "ERROR validation: groups[0].kind must be one of planar, volumetric, image, got 'blob'"),
    ("code without scheme", spec_edit(True, finding="27925004"),
     "ERROR validation: groups[0].finding must be a SCHEME:VALUE[:MEANING] code, "
     "got '27925004'"),
    ("code outside the registry", spec_edit(True, finding="SCT:99999"),
     "CONTAINS CODE Finding: = 99999 (SCT 99999)"),
    ("unit outside the registry", spec_edit(True, measurements=[
        {"code": "SCT:81827009", "value": "7.5", "unit": "cm"}]),
     "CONTAINS NUM Diameter: = 7.5 cm"),
    ("measurement as a long number", spec_edit(True, measurements=[
        {"code": "SCT:81827009", "value": 0.6666666666666666, "unit": "mm"}]),
     "CONTAINS NUM Diameter: = 0.66666666666667 mm"),
    ("spec that is not an object", lambda spec: 5,
     "ERROR validation: annotation spec must be an object, got 5"),
    ("observer that is not an object", spec_edit(observer="net"),
     "ERROR validation: observer must be an object, got 'net'"),
    ("evidence that is not a list", spec_edit(evidence="ct0.dcm"),
     "ERROR validation: evidence must be a list, got 'ct0.dcm'"),
    ("evidence path that is not a string", spec_edit(evidence=[None]),
     "ERROR validation: evidence[0] must be a string, got None"),
    ("group that is not an object", spec_edit(groups=[5]),
     "ERROR validation: groups[0] must be an object, got 5"),
    ("finding sites that are not a list", spec_edit(True, finding_sites="SCT:39607008"),
     "ERROR validation: groups[0].finding_sites must be a list, got 'SCT:39607008'"),
    ("measurement that is not an object", spec_edit(True, measurements=["x"]),
     "ERROR validation: groups[0].measurements[0] must be an object, got 'x'"),
    ("planar region that is not an object", spec_edit(True, region="x"),
     "ERROR validation: groups[0].region must be an object, got 'x'"),
    ("volumetric region that is not an object", spec_edit(True, kind="volumetric",
                                                          region=["x"]),
     "ERROR validation: groups[0].region[0] must be an object, got 'x'"),
    ("image that is not an object", spec_edit(True, region={
        "type": "point2d", "points": [[3, 4]], "image": "ct0.dcm"}),
     "ERROR validation: groups[0].region.image must be an object, got 'ct0.dcm'"),
    ("finding that is not a string", spec_edit(True, finding=5),
     "ERROR validation: groups[0].finding must be a SCHEME:VALUE[:MEANING] code, got 5"),
    ("unit that is not a string", spec_edit(True, measurements=[
        {"code": "SCT:81827009", "value": "7.5", "unit": None}]),
     "ERROR validation: groups[0].measurements[0].unit must be a non-empty string "
     "without backslashes, got None"),
    ("segment region without SOP instance", spec_edit(True, region={
        "type": "segment", "segment_number": 1}),
     "ERROR validation: groups[0].region is missing required key 'sop_instance_uid'"),
    ("measurement without value", spec_edit(True, measurements=[
        {"code": "SCT:81827009", "unit": "mm"}]),
     "ERROR validation: groups[0].measurements[0] is missing required key 'value'"),
    ("points that are not a list", spec_edit(True, region={"type": "polygon3d", "points": "x"}),
     "ERROR validation: groups[0].region.points must be a list, got 'x'"),
    ("point holding a string", spec_edit(True, region={
        "type": "point3d", "points": [[0, 0, "z"]]}),
     "ERROR validation: groups[0].region.points[0] must be 3 single-precision numbers, "
     "got [0, 0, 'z']"),
    ("evaluation without code", spec_edit(True, evaluations=[{"value": "SCT:27925004"}]),
     "ERROR validation: groups[0].evaluations[0] is missing required key 'code'"),
    ("image without SOP class", spec_edit(True, region={
        "type": "point2d", "points": [[3, 4]], "image": {"sop_instance_uid": "2.25.1"}}),
     "ERROR validation: groups[0].region.image is missing required key 'sop_class_uid'"),
    ("3D region without points", spec_edit(True, region={"type": "polygon3d"}),
     "ERROR validation: groups[0].region is missing required key 'points'"),
    ("segment number that is not a number", spec_edit(True, region={
        "type": "segment", "sop_instance_uid": "2.25.1", "segment_number": "x"}),
     "ERROR validation: groups[0].region.segment_number must be a positive integer, "
     "got 'x'"),
    ("measurement value that is not a number", spec_edit(True, measurements=[
        {"code": "SCT:81827009", "value": "abc", "unit": "mm"}]),
     "ERROR validation: groups[0].measurements[0].value must be a number or a decimal "
     "string, "
     "got 'abc'"),
    ("measurement value that is null", spec_edit(True, kind="image", region=DROP, measurements=[
        {"code": "SCT:81827009", "value": "7.5", "unit": "mm"},
        {"code": "SCT:81827009", "value": None, "unit": "mm"}]),
     "ERROR validation: groups[0].measurements[1].value must be a number or a decimal "
     "string, "
     "got None"),
    # values that reached the item classes unchecked before the spec table
    ("tracking UID that is not a UID", spec_edit(True, tracking_uid="abc"),
     "ERROR validation: groups[0].tracking_uid must be a UID, got 'abc'"),
    ("tracking identifier that is not a string", spec_edit(True, tracking_id=5),
     "ERROR validation: groups[0].tracking_id must be a string, got 5"),
    ("person name that is not a string", spec_edit(observer={"type": "person", "name": 5}),
     "ERROR validation: observer.name must be a non-empty string without backslashes, got 5"),
    ("device name that is not a string", spec_edit(observer={"type": "device", "name": 5}),
     "ERROR validation: observer.name must be a non-empty string without backslashes, got 5"),
    ("device UID that is not a UID", spec_edit(observer={"name": "detector", "uid": "x"}),
     "ERROR validation: observer.uid must be a UID, got 'x'"),
    ("frame of reference that is not a UID", spec_edit(True, region={
        "type": "point3d", "points": [[0, 0, 0]], "frame_of_reference": "zz"}),
     "ERROR validation: groups[0].region.frame_of_reference must be a UID, got 'zz'"),
    ("image UIDs that are not UIDs", spec_edit(True, region={
        "type": "point2d", "points": [[3, 4]],
        "image": {"sop_class_uid": "a", "sop_instance_uid": "b"}}),
     "ERROR validation: groups[0].region.image.sop_class_uid must be a UID, got 'a'"),
    ("segment instance that is not a UID", spec_edit(True, region={
        "type": "segment", "sop_instance_uid": "b", "segment_number": 1}),
     "ERROR validation: groups[0].region.sop_instance_uid must be a UID, got 'b'"),
    ("frame numbers that are not a list", spec_edit(True, region={
        "type": "point2d", "points": [[3, 4]], "image": {
            "sop_class_uid": CT_IMAGE_STORAGE, "sop_instance_uid": "2.25.1",
            "frame_numbers": "x"}}),
     "ERROR validation: groups[0].region.image.frame_numbers must be a list, got 'x'"),
    ("code holding a backslash", spec_edit(True, finding="SCT:27925004:a\\b"),
     "ERROR validation: groups[0].finding must be a SCHEME:VALUE[:MEANING] code, "
     "got 'SCT:27925004:a\\\\b'"),
    ("point past single precision", spec_edit(True, region={
        "type": "point3d", "points": [[1e39, 0, 0]]}),
     "ERROR validation: groups[0].region.points[0] must be 3 single-precision numbers, "
     "got [1e+39, 0, 0]"),
    ("optional keys that are null or empty", spec_edit(
        observer={"type": None, "name": "detector", "uid": ""}, procedure=None),
     "HAS OBS CONTEXT CODE Observer Type: = Device (DCM 121007)"),
]]


class TestMkSr:
    def spec_document(self, tmp_path, source_paths, evidence):
        return {
            "observer": {"type": "device", "name": "detector", "version": "1.0"},
            "procedure": "SCT:363679005",
            "evidence": source_paths,
            "groups": [
                {
                    "kind": "planar",
                    "tracking_id": "Nodule 1",
                    "finding": "SCT:27925004",
                    "finding_sites": ["SCT:39607008"],
                    "region": {
                        "type": "polygon3d",
                        "points": [[0, 0, 0], [5, 0, 0], [5, 5, 0],
                                   [0, 5, 0], [0, 0, 0]],
                    },
                    "measurements": [
                        {"code": "SCT:81827009", "value": "7.5", "unit": "mm"},
                    ],
                },
                {
                    "kind": "image",
                    "finding": "SCT:108369006",
                    "measurements": [
                        {"code": "caDSR:5432686:Percent tumor cells",
                         "value": "85", "unit": "%"},
                    ],
                },
            ],
        }

    def test_mk_sr_from_spec_and_dump(self, tmp_path, source_files, capsys):
        paths, series = source_files
        spec = self.spec_document(tmp_path, paths, series)
        spec_path = tmp_path / "annotations.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "report.dcm"
        code, _, err = run([
            "mk-sr", "--spec", str(spec_path), "--kind", "comprehensive3d",
            "-o", str(out),
        ], capsys)
        assert code == 0, err

        code, stdout, _ = run(["validate", str(out)], capsys)
        assert code == 0

        code, stdout, _ = run(["dump-sr", str(out)], capsys)
        assert code == 0
        assert "Diameter" in stdout
        assert "mm" in stdout
        assert "Measurement Report" in stdout

        doc = open_sr(read_part10_file(out)[1])
        assert len(doc.measurement_groups()) == 2

    def test_missing_spec_key(self, tmp_path, source_files, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"groups": []}))
        code, _, err = run([
            "mk-sr", "--spec", str(spec_path), "-o", str(tmp_path / "x.dcm"),
        ], capsys)
        assert code == 1
        assert "observer" in err

    @pytest.mark.parametrize("edit, expected", SPEC_CASES)
    def test_spec_reader(self, edit, expected, tmp_path, source_files, capsys):
        """Each row edits a one-group spec in place (or returns the JSON
        value to write instead); an ERROR row is the whole stderr
        of a failed mk-sr, any other row a line that dump-sr prints of the
        report mk-sr wrote."""
        paths, _ = source_files
        spec = {"observer": {"name": "detector"}, "evidence": paths, "groups": [{
            "kind": "planar", "finding": "SCT:27925004",
            "region": {"type": "polygon3d",
                       "points": [[0, 0, 0], [5, 0, 0], [5, 5, 0], [0, 0, 0]]},
            "measurements": [{"code": "SCT:81827009", "value": "7.5", "unit": "mm"}],
        }]}
        spec_path = tmp_path / "spec.json"
        if edit is None:
            spec_path.write_text("{")
        else:
            edited = edit(spec)
            spec_path.write_text(json.dumps(spec if edited is None else edited))
        out = tmp_path / "report.dcm"
        code, stdout, err = run(["mk-sr", "--spec", str(spec_path), "-o", str(out)], capsys)
        if expected.startswith("ERROR"):
            assert (code, stdout, err) == (1, "", expected + "\n")
            return
        assert code == 0, err
        code, stdout, err = run(["dump-sr", str(out)], capsys)
        assert code == 0, err
        assert expected in [line.strip() for line in stdout.splitlines()]


class TestFromSeg:
    def make_two_nodule_seg(self, tmp_path):
        series = make_ct_series(1, rows=32, cols=32)
        prob = np.zeros((1, 32, 32))
        prob[0, 4:9, 6:12] = 0.9    # nodule 1
        prob[0, 20:26, 18:23] = 0.7  # nodule 2
        seg = create_seg(
            series, [prob],
            [SegmentDescription(
                number=1, label="nodules",
                category=SCT.MorphologicallyAbnormalStructure,
                property_type=SCT.Nodule,
                algorithm=AlgorithmIdentification("detector", "1.0"),
            )],
            SegmentationType.fractional(),
        )
        path = tmp_path / "prob_seg.dcm"
        write_part10_file(path, seg)
        return path, series

    def test_two_nodules_two_planar_groups(self, tmp_path, capsys):
        seg_path, series = self.make_two_nodule_seg(tmp_path)
        out = tmp_path / "boxes.dcm"
        code, _, err = run([
            "mk-sr", "--from-seg", str(seg_path), "--threshold", "0.5",
            "-o", str(out),
        ], capsys)
        assert code == 0, err

        doc = open_sr(read_part10_file(out)[1])
        groups = doc.measurement_groups()
        assert len(groups) == 2
        for group in groups:
            region = group.geometry()
            points = region.points
            assert points.shape == (5, 3)
            assert np.array_equal(points[0], points[-1])

        code, _, _ = run(["validate", str(out)], capsys)
        assert code == 0

    def test_box_corners_match_roi_oracle(self, tmp_path, capsys):
        seg_path, series = self.make_two_nodule_seg(tmp_path)
        out = tmp_path / "boxes.dcm"
        assert run(["mk-sr", "--from-seg", str(seg_path), "-o", str(out)],
                   capsys)[0] == 0
        doc = open_sr(read_part10_file(out)[1])
        [g1, g2] = doc.measurement_groups()
        # nodule 1: cols 6..11, rows 4..8 at spacing 1mm, origin at z=0
        assert g1.geometry().points[0].tolist() == [6, 4, 0]
        assert g1.geometry().points[2].tolist() == [11, 8, 0]
        # nodule 2: cols 18..22, rows 20..25
        assert g2.geometry().points[0].tolist() == [18, 20, 0]
        assert g2.geometry().points[2].tolist() == [22, 25, 0]

    def test_threshold_above_everything(self, tmp_path, capsys):
        seg_path, _ = self.make_two_nodule_seg(tmp_path)
        code, _, err = run([
            "mk-sr", "--from-seg", str(seg_path), "--threshold", "0.95",
            "-o", str(tmp_path / "none.dcm"),
        ], capsys)
        assert code == 1
        assert "no regions" in err


class TestCoords:
    def geometry_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "position=10,20,30\norientation=1,0,0,0,1,0\nspacing=2,2\n"
        )
        return str(path)

    def test_to_ref(self, tmp_path, capsys):
        code, out, _ = run([
            "coords", "--geometry", self.geometry_file(tmp_path),
            "--to-ref", "3,4",
        ], capsys)
        assert code == 0
        assert out.strip() == "16,28,30"

    def test_to_pixel(self, tmp_path, capsys):
        code, out, _ = run([
            "coords", "--geometry", self.geometry_file(tmp_path),
            "--to-pixel", "16,28,30",
        ], capsys)
        assert code == 0
        assert out.strip() == "3,4"

    @pytest.mark.parametrize("option, value, last_line", [
        ("--to-ref", "1", "ERROR usage: pixel coordinates must be (column, row) pairs"),
        ("--to-ref", "a,b", "ERROR usage: invalid arguments"),
        ("--to-pixel", "1,2", "ERROR usage: reference coordinates must be (x, y, z) triplets"),
    ])
    def test_bad_coordinates_are_a_usage_error(self, tmp_path, capsys, option, value,
                                               last_line):
        code, out, err = run(["coords", "--geometry", self.geometry_file(tmp_path),
                              option, value], capsys)
        assert (code, out, err.splitlines()[-1]) == (2, "", last_line)

    def test_geometry_value_that_is_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("position=a,20,30\norientation=1,0,0,0,1,0\nspacing=2,2\n")
        code, _, err = run(["coords", "--geometry", str(path), "--to-ref", "3,4"], capsys)
        assert (code, err) == (1, "ERROR validation: bad geometry line 'position=a,20,30'; "
                                  "use key=v1,v2,... (numbers)\n")

    @pytest.mark.parametrize("key, value", [
        ("position", "nan,0,0"), ("orientation", "1,0,0,0,1,nan"), ("spacing", "nan,1"),
        ("spacing", "inf,1"),
    ])
    def test_non_finite_geometry_is_validation_error(self, tmp_path, capsys, key, value):
        lines = {"position": "10,20,30", "orientation": "1,0,0,0,1,0", "spacing": "2,2",
                 key: value}
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
        code, out, err = run(["coords", "--geometry", str(path), "--to-ref", "1,2"], capsys)
        assert (code, out, err) == (
            1, "", "ERROR validation: geometry values must be finite numbers\n")

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_tolerance_below_zero_or_nan_is_usage_error(self, tmp_path, capsys, tolerance):
        code, out, err = run([
            "coords", "--geometry", self.geometry_file(tmp_path),
            "--to-pixel", "16,28,500", "--tolerance", tolerance,
        ], capsys)
        assert (code, out) == (2, "")
        assert err == f"ERROR usage: tolerance must be a number of mm >= 0, got {float(tolerance)}\n"

    def test_off_plane_is_validation_error(self, tmp_path, capsys):
        code, _, err = run([
            "coords", "--geometry", self.geometry_file(tmp_path),
            "--to-pixel", "16,28,31",
        ], capsys)
        assert code == 1
        assert "ERROR validation" in err


class TestWebCommands:
    def test_store_search_retrieve_loop(self, tmp_path, source_files, capsys):
        paths, series = source_files
        with StubArchive() as archive:
            code, out, err = run(
                ["store", "--url", archive.base_url, *paths], capsys
            )
            assert code == 0, err
            assert out.count("stored") == 2

            code, out, _ = run([
                "search", "--url", archive.base_url,
                "--level", "instances", "--filter", "Modality=CT",
            ], capsys)
            assert code == 0
            assert len(out.strip().splitlines()) == 2

            target = series[0]
            out_path = tmp_path / "fetched.dcm"
            code, _, _ = run([
                "retrieve", "--url", archive.base_url,
                target.value("StudyInstanceUID"),
                target.value("SeriesInstanceUID"),
                target.value("SOPInstanceUID"),
                "-o", str(out_path),
            ], capsys)
            assert code == 0
            assert out_path.read_bytes() == Path(paths[0]).read_bytes()

    def test_partial_store(self, tmp_path, source_files, capsys):
        paths, series = source_files
        bad_path = tmp_path / "bad.dcm"
        write_part10_file(bad_path, make_ct_source(sop_uid="1.2.901", study_uid="../escaped"))
        with StubArchive() as archive:
            argv = ["store", "--url", archive.base_url, paths[0], str(bad_path)]
            code, out, err = run(argv, capsys)
            assert code == 4
            assert out == f"stored {series[0].value('SOPInstanceUID')}\n"
            assert err == "ERROR network: store failed for instances: 1.2.901\n"
            args = build_parser().parse_args(argv)
            with pytest.raises(PartialStoreError) as excinfo:
                args.func(args)
        assert excinfo.value.status == 202
        assert excinfo.value.failed_sop_instance_uids == ["1.2.901"]

    @pytest.mark.parametrize("command, reply, message", [
        ("search", [{"00200013": {"vr": "IS", "Value": ["a"]}}],
         "attribute 00200013: invalid literal for int() with base 10: 'a'"),
        ("store", {"00081199": {"vr": "SQ", "Value": [{"00081155": {"vr": "UI", "Value": [5]}}]}},
         "attribute 00081155: (0008,1155): VR UI requires str values"),
        ("store", {"00200013": {"vr": "IS", "Value": ["a"]}},
         "attribute 00200013: invalid literal for int() with base 10: 'a'"),
        ("store", {"00081199": {"vr": "UI", "Value": ["1.2.3"]}},
         "malformed store response: (0008,1199) is UI, not a sequence"),
        ("store", {"00081198": {"vr": "UI", "Value": ["1.2.3"]}},
         "malformed store response: (0008,1198) is UI, not a sequence"),
    ])
    def test_malformed_reply_is_a_network_error(self, source_files, capsys,
                                                command, reply, message):
        body = json.dumps(reply).encode()
        head = (b"HTTP/1.1 200 OK\r\nContent-Type: application/dicom+json\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body))
        with recording_server(lambda request: head + body) as (base_url, _):
            files = source_files[0][:1] if command == "store" else []
            code, out, err = run([command, "--url", base_url, *files], capsys)
        assert (code, out, err) == (4, "", f"ERROR network: {message}\n")

    def test_malformed_409_reply_is_a_network_error(self, source_files, capsys):
        body = json.dumps({"00081198": {"vr": "UI", "Value": ["1.2.3"]}}).encode()
        head = (b"HTTP/1.1 409 Conflict\r\nContent-Type: application/dicom+json\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body))
        with recording_server(lambda request: head + body) as (base_url, _):
            code, out, err = run(["store", "--url", base_url, source_files[0][0]], capsys)
        assert (code, out) == (4, "")
        assert err == f"ERROR network: POST {base_url}/studies returned 409: {body.decode()}\n"

    def test_port_out_of_range(self, capsys):
        code, _, err = run(["serve", "--port", "70000"], capsys)
        assert code == 4  # the socket module words the reason
        assert err.startswith("ERROR network: cannot bind port 70000: ")

    def test_network_error_exit_code(self, capsys):
        code, _, err = run([
            "retrieve", "--url", "http://127.0.0.1:9",  # discard port: refused
            "1", "2", "3", "-o", "/tmp/never.dcm",
        ], capsys)
        assert code == 4
        assert err.startswith("ERROR network:")

    def test_timeout_exit_code(self, monkeypatch, capsys):
        import dicomforge.cli
        from dicomforge.web import WebClient

        monkeypatch.setattr(dicomforge.cli, "WebClient", functools.partial(WebClient, timeout=0.2))
        with socket.create_server(("127.0.0.1", 0)) as silent:  # accepts, never answers
            code, _, err = run([
                "search", "--url", f"http://127.0.0.1:{silent.getsockname()[1]}",
            ], capsys)
        assert code == 4
        assert err.startswith("ERROR network:")
        assert "timed out" in err


def test_token_env_var_honored(monkeypatch):
    from dicomforge.cli import TOKEN_ENV_VAR, _client, build_parser

    monkeypatch.setenv(TOKEN_ENV_VAR, "sekret")
    args = build_parser().parse_args(
        ["search", "--url", "http://127.0.0.1:1"]
    )
    client = _client(args)
    assert client._headers()["Authorization"] == "Bearer sekret"
    args = build_parser().parse_args(
        ["search", "--url", "http://127.0.0.1:1", "--token", "flag-wins"]
    )
    assert _client(args)._headers()["Authorization"] == "Bearer flag-wins"


class TestErrors:
    def test_usage_error(self, capsys):
        code, _, err = run(["mk-seg", "--label", "x"], capsys)
        assert code == 2
        assert "ERROR usage" in err

    def test_validate_non_dicom(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x01" * 200)
        code, _, err = run(["validate", str(path)], capsys)
        assert code == 1
        assert err.startswith("ERROR validation:")

    def test_io_error(self, capsys):
        code, _, err = run(["validate", "/does/not/exist.dcm"], capsys)
        assert code == 3
        assert err.startswith("ERROR io:")

    @pytest.mark.parametrize("build, path", [
        (golden_sr, ("CurrentRequestedProcedureEvidenceSequence",)),
        (golden_sr, ("PredecessorDocumentsSequence",)),
        (build_seg, ("ReferencedSeriesSequence",)),
        (build_seg, ("SegmentSequence",)),
        (build_seg, ("PerFrameFunctionalGroupsSequence",)),
        (build_seg, ("SegmentSequence", "SegmentedPropertyCategoryCodeSequence")),
    ], ids=lambda v: v[-1] if isinstance(v, tuple) else v.__name__)
    def test_sequence_written_with_another_vr(self, build, path, tmp_path, capsys):
        def as_text(ds, keyword, *rest):
            """Copy of `ds` with the attribute at the end of the path (through
            the first item of each sequence on the way) written as UT."""
            out = DataSet(ds)
            if rest:
                items = ds.items_of(keyword)
                out.put(keyword, (as_text(items[0], *rest),) + items[1:])
            else:
                out.put(keyword, "not a sequence", vr="UT")
            return out

        ds = build(2) if build is golden_sr else build("binary")
        file = tmp_path / "bad.dcm"
        write_part10_file(file, as_text(ds, *path))
        code, _, err = run(["validate", str(file)], capsys)
        assert code == 1, err
        assert err.startswith("ERROR validation:")
        assert "UT, not a sequence" in err


# -- pins: the dump-sr text of every value type, the mk-sr --spec bytes ------

PIN_STUDY, PIN_FRAME_OF_REFERENCE = "1.2.826.0.1.7806.1", "1.2.826.0.1.7806.2"
PIN_CT = [f"1.2.826.0.1.7806.3{i}" for i in range(2)]
PIN_SEG = "1.2.826.0.1.7806.4"


def pin_evidence():
    """Two CT sources and a SEG over them, every UID fixed."""
    series = [
        make_ct_source(study_uid=PIN_STUDY, series_uid="1.2.826.0.1.7806.5",
                       sop_uid=uid, frame_of_reference_uid=PIN_FRAME_OF_REFERENCE,
                       position=(0.0, 0.0, 2.5 * i), instance_number=i + 1)
        for i, uid in enumerate(PIN_CT)
    ]
    seg = create_seg(
        series, [np.ones((2, 16, 16), np.uint8), np.eye(16, dtype=np.uint8)[None].repeat(2, 0)],
        [SegmentDescription(
            number=n, label=f"segment {n}",
            category=SCT.MorphologicallyAbnormalStructure, property_type=SCT.Nodule,
            algorithm=AlgorithmIdentification("detector", "1.0"),
        ) for n in (1, 2)],
        SegmentationType.binary(),
        series_instance_uid="1.2.826.0.1.7806.6", sop_instance_uid=PIN_SEG,
    )
    return series, seg


def every_value_type_report() -> DataSet:
    """A report holding one item of every value type."""
    obs, contains = RelationshipType.HAS_OBS_CONTEXT, RelationshipType.CONTAINS
    series, seg = pin_evidence()
    source = ImageItem(DCM.SourceOfMeasurement, CT_IMAGE_STORAGE, PIN_CT[1],
                       relationship=RelationshipType.SELECTED_FROM)
    measurements = [
        TextItem(DCM.TrackingIdentifier, "Nodule 1", relationship=obs),
        UIDRefItem(DCM.TrackingUniqueIdentifier, "1.2.826.0.1.7806.7", relationship=obs),
        ImageItem(DCM.ReferencedSegment, SEGMENTATION_STORAGE, PIN_SEG,
                  segment_number=2, relationship=contains),
        ScoordItem(DCM.ImageRegion, "POLYLINE", [(1, 1), (4, 1), (4, 3)],
                   relationship=contains, children=[source]),
        Scoord3DItem(DCM.ImageRegion, "POLYGON",
                     [(0, 0, 0), (5, 0, 0), (5, 5, 0), (0, 0, 0)],
                     PIN_FRAME_OF_REFERENCE, relationship=contains),
        CodeItem(DCM.Finding, SCT.Nodule, relationship=contains),
        NumItem(SCT.Diameter, "7.5", UCUM.mm, relationship=contains),
        DateTimeItem(CodedConcept("111526", "DCM", "DateTime Started"),
                     "20240102101500", relationship=contains),
    ]
    library = [CompositeItem(DCM.SourceOfMeasurement, SEGMENTATION_STORAGE, PIN_SEG,
                             relationship=contains)]
    group = ContainerItem(DCM.MeasurementGroup, measurements, relationship=contains,
                          template_id="1410")
    tree = ContainerItem(DCM.ImagingMeasurementReport, template_id="1500", children=[
        CodeItem(DCM.ObserverType, DCM.Person, relationship=obs),
        PNameItem(DCM.PersonObserverName, "Doe^Jane", relationship=obs),
        ContainerItem(DCM.ImageLibrary, library, ContinuityOfContent.CONTINUOUS, contains),
        ContainerItem(DCM.ImagingMeasurements, [group], relationship=contains),
    ])
    return create_sr(SRKind.COMPREHENSIVE_3D, [*series, seg], tree)


DUMP_SR_PIN = """\
CONTAINER Imaging Measurement Report: (SEPARATE) [TID 1500]
  HAS OBS CONTEXT CODE Observer Type: = Person (DCM 121006)
  HAS OBS CONTEXT PNAME Person Observer Name: = Doe^Jane
  CONTAINS CONTAINER Image Library: (CONTINUOUS)
    CONTAINS COMPOSITE Source of measurement: -> 1.2.826.0.1.7806.4
  CONTAINS CONTAINER Imaging Measurements: (SEPARATE)
    CONTAINS CONTAINER Measurement Group: (SEPARATE) [TID 1410]
      HAS OBS CONTEXT TEXT Tracking Identifier: = Nodule 1
      HAS OBS CONTEXT UIDREF Tracking Unique Identifier: = 1.2.826.0.1.7806.7
      CONTAINS IMAGE Referenced Segment: -> 1.2.826.0.1.7806.4 segment 2
      CONTAINS SCOORD Image Region: POLYLINE (3 point(s))
        SELECTED FROM IMAGE Source of measurement: -> 1.2.826.0.1.7806.31
      CONTAINS SCOORD3D Image Region: POLYGON (4 point(s))
      CONTAINS CODE Finding: = Nodule (SCT 27925004)
      CONTAINS NUM Diameter: = 7.5 mm
      CONTAINS DATETIME DateTime Started: = 20240102101500
"""


class TestPins:
    """Output of `dump-sr` and `mk-sr --spec`, pinned over fixed inputs."""

    def test_dump_sr_of_every_value_type(self, tmp_path, capsys):
        path = tmp_path / "report.dcm"
        write_part10_file(path, every_value_type_report())
        code, stdout, err = run(["dump-sr", str(path)], capsys)
        assert code == 0, err
        assert stdout == DUMP_SR_PIN

    def spec(self, evidence_paths):
        """Every documented region type, in all three group kinds."""
        ct = {"sop_class_uid": CT_IMAGE_STORAGE,
              "sop_instance_uid": PIN_CT[0]}
        regions = {
            "segment": {"type": "segment", "sop_instance_uid": PIN_SEG,
                        "segment_number": 1},
            "point3d": {"type": "point3d", "points": [[1, 2, 0]]},
            "polyline3d": {"type": "polyline3d", "points": [[0, 0, 0], [3, 4, 0]],
                           "frame_of_reference": "1.2.826.0.1.7806.8"},
            "polygon3d": {"type": "polygon3d",
                          "points": [[0, 0, 0], [5, 0, 0], [5, 5, 0], [0, 0, 0]]},
            "multipoint3d": {"type": "multipoint3d", "points": [[1, 1, 0], [2, 2, 2.5]]},
            "point2d": {"type": "point2d", "points": [[3, 4]], "image": ct},
            "polyline2d": {"type": "polyline2d", "points": [[0, 0], [7, 7]], "image": ct},
            "circle2d": {"type": "circle2d", "points": [[8, 8], [8, 11]], "image": ct},
            "ellipse2d": {"type": "ellipse2d",
                          "points": [[2, 8], [14, 8], [8, 5], [8, 11]], "image": ct},
            "multipoint2d": {"type": "multipoint2d", "points": [[1, 2], [3, 4], [5, 6]],
                             "image": dict(ct, frame_numbers=[1])},
        }
        groups = [
            {"kind": "planar", "finding": "SCT:27925004", "region": region,
             "tracking_id": f"planar {name}"}
            for name, region in regions.items()
        ]
        groups += [
            {"kind": "volumetric", "finding": "SCT:108369006", "tracking_id": "seg",
             "tracking_uid": "1.2.826.0.1.7806.9", "finding_sites": ["SCT:39607008"],
             "region": regions["segment"],
             "measurements": [{"code": "SCT:118565006", "value": "12.5", "unit": "mm3"}]},
            {"kind": "volumetric", "finding": "SCT:27925004", "tracking_id": "stack",
             "region": [regions["polygon3d"],
                        {"type": "polygon3d",
                         "points": [[0, 0, 2.5], [4, 0, 2.5], [4, 4, 2.5], [0, 0, 2.5]]}]},
            {"kind": "volumetric", "finding": "SCT:27925004",
             "region": [regions["polyline2d"], regions["circle2d"]]},
            {"kind": "image", "finding": "SCT:108369006",
             "measurements": [{"code": "caDSR:5432686:Percent tumor cells",
                               "value": "85", "unit": "%"}],
             "evaluations": [{"code": "SCT:116676008", "value": "ICD-O-3:8140/3"}]},
        ]
        return {"observer": {"type": "device", "name": "detector", "version": "1.0",
                             "manufacturer": "acme"},
                "procedure": "SCT:363679005", "evidence": evidence_paths,
                "groups": groups}

    def test_mk_sr_spec_output(self, tmp_path, capsys):
        series, seg = pin_evidence()
        paths = []
        for i, ds in enumerate([*series, seg]):
            paths.append(str(tmp_path / f"evidence{i}.dcm"))
            write_part10_file(paths[-1], ds)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec(paths)))
        out = tmp_path / "report.dcm"
        code, stdout, err = run(["mk-sr", "--spec", str(spec_path), "-o", str(out)], capsys)
        assert code == 0, err
        assert stdout == f"wrote {out}: 14 group(s)\n"
        assert normalized_sha256(out.read_bytes()) == MK_SR_SPEC_SHA256


# normalized_sha256 (see test_from_seg) of the mk-sr --spec report above
MK_SR_SPEC_SHA256 = (
    "f3bbe70d27081ea7821343e1c3c3fc59"
    "6ab22f11eb561805ef4b22c1ce11e3aa"
)


# -- the exit-code contract over mutated files ------------------------------


def test_mutated_files_exit_0_or_1(tmp_path, capsys):
    """Seeded mutations of a two-segment binary SEG, a fractional SEG and an
    SR (a FUZZ_WORDS word written over the stream, or a truncation), each
    run through validate, dump-sr, parse-seg and mk-sr --from-seg in
    rotation: the command succeeds, or exits 1 with one `ERROR validation:`
    line. A file never gives the usage code 2 nor an escaped exception."""
    rng = random.Random(2106)
    path, out = tmp_path / "mutated.dcm", tmp_path / "out"
    commands = [["validate"], ["dump-sr"], ["parse-seg", "--frame", "1", "-o", str(out)],
                ["mk-sr", "-o", str(out), "--from-seg"]]
    outcomes = {0: 0, 1: 0}
    for ds in (build_seg("binary"), build_seg("fractional"), golden_sr(3)):
        original = write_part10(file_meta_for(ds), ds)
        for i in range(1500):
            stream = bytearray(original)
            at = rng.randrange(len(stream))
            if rng.random() < 0.2:
                del stream[at:]
            else:
                stream[at:at + 4] = rng.choice(FUZZ_WORDS)
            path.write_bytes(stream)
            argv = [*commands[i % len(commands)], str(path)]
            code = main(argv)
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (
                code == 1 and err.startswith("ERROR validation: ") and err.count("\n") == 1
            ), (argv, at, code, err)
            outcomes[code] += 1
    assert min(outcomes.values()) > 0  # both outcomes occur
