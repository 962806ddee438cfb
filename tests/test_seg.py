"""Segmentation encode/decode tests, anchored on a naive bit-packing oracle."""
import hashlib
import itertools
import math

import numpy as np
import pytest

import conftest
from conftest import make_ct_series, make_ct_source
from dicomforge import seg as seg_module
from dicomforge.codec import decode_dataset, encode_dataset
from dicomforge.coding import SCT, CodedConcept
from dicomforge.dataset import DataSet
from dicomforge.errors import (
    MalformedSegError,
    MaskShapeError,
    MaskValueError,
    SegmentNumberingError,
    UnmappedFrameError,
    WrongSopClassError,
)
from dicomforge.cli import main
from dicomforge.part10 import file_meta_for, write_part10, write_part10_file
from dicomforge.seg import (
    AlgorithmType,
    FractionalKind,
    SegmentDescription,
    SegmentationType,
    create_seg,
    open_seg,
    pack_bits,
    quantize_fraction,
    unpack_bits,
)
from dicomforge.sr.items import AlgorithmIdentification, TrackingIdentifier

ALGORITHM = AlgorithmIdentification(name="segnet", version="1.0")


def description(number, label=None, tracking=None):
    return SegmentDescription(
        number=number,
        label=label or f"Segment {number}",
        category=SCT.MorphologicallyAbnormalStructure,
        property_type=SCT.Nodule,
        algorithm_type=AlgorithmType.AUTOMATIC,
        algorithm=ALGORITHM,
        tracking=tracking,
    )


def naive_pack(frames) -> bytes:
    """Per-bit LSB-first oracle, independent of the implementation."""
    bits = []
    for frame in frames:
        for row in frame:
            bits.extend(int(v) for v in row)
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for j, bit in enumerate(bits[i:i + 8]):
            byte |= bit << j
        out.append(byte)
    return bytes(out)


class TestBitPacking:
    def test_spec_example_2x2(self):
        frame = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert pack_bits(frame[np.newaxis]) == b"\x09"

    def test_against_naive_oracle(self, np_rng):
        for _ in range(50):
            frames = (np_rng.random((
                int(np_rng.integers(1, 4)),
                int(np_rng.integers(1, 38)),
                int(np_rng.integers(1, 54)),
            )) < 0.5).astype(np.uint8)
            assert pack_bits(frames) == naive_pack(frames)

    def test_unpack_inverts(self, np_rng):
        for _ in range(20):
            shape = (2, int(np_rng.integers(1, 20)), int(np_rng.integers(1, 20)))
            frames = (np_rng.random(shape) < 0.5).astype(np.uint8)
            packed = pack_bits(frames)
            assert len(packed) == math.ceil(frames.size / 8)
            back = unpack_bits(packed, frames.size).reshape(shape)
            assert np.array_equal(back, frames)

    def test_frames_concatenated_before_padding(self):
        # 3x3 frames: 9 bits each; frame 2 must start mid-byte
        f1 = np.ones((3, 3), dtype=np.uint8)
        f2 = np.zeros((3, 3), dtype=np.uint8)
        packed = pack_bits(np.stack([f1, f2]))
        assert len(packed) == math.ceil(18 / 8)
        bits = unpack_bits(packed, 18)
        assert bits[:9].all() and not bits[9:].any()


class TestQuantization:
    def test_half_maps_to_128(self):
        assert quantize_fraction(np.array([0.5]), 255)[0] == 128

    def test_round_half_up(self):
        assert quantize_fraction(np.array([0.0, 1.0]), 255).tolist() == [0, 255]
        # 1/255 is the grid step; half a step rounds up
        assert quantize_fraction(np.array([1.5 / 255]), 255)[0] == 2

    def test_rescale_quantize_identity_on_grid(self):
        stored = np.arange(256, dtype=np.uint8)
        rescaled = stored / 255
        assert np.array_equal(quantize_fraction(rescaled, 255), stored)


class TestCreate:
    def test_binary_round_trip(self, ct_series):
        rng = np.random.default_rng(7)
        masks = [(rng.random((3, 16, 16)) < 0.4).astype(np.uint8)]
        ds = create_seg(ct_series, masks, [description(1)],
                        SegmentationType.binary(), omit_empty=False)
        seg = open_seg(decode_dataset(encode_dataset(ds)))
        uids = [s.value("SOPInstanceUID") for s in ct_series]
        out = seg.segment_pixels(1, uids)
        assert np.array_equal(out, masks[0])

    def test_empty_frame_omission_count(self, ct_series):
        # two segments over 3 source frames, segment 2 empty on frame 3
        m1 = np.ones((3, 16, 16), dtype=np.uint8)
        m2 = np.ones((3, 16, 16), dtype=np.uint8)
        m2[2] = 0
        ds = create_seg(ct_series, [m1, m2], [description(1), description(2)],
                        SegmentationType.binary(), omit_empty=True)
        assert ds.value("NumberOfFrames") == 5
        seg = open_seg(ds)
        assert len(seg.frames) == 5

    def test_omitted_frame_reconstituted_as_zeros(self, ct_series):
        m = np.zeros((3, 16, 16), dtype=np.uint8)
        m[0, 2:5, 3:7] = 1
        ds = create_seg(ct_series, [m], [description(1)],
                        SegmentationType.binary(), omit_empty=True)
        assert ds.value("NumberOfFrames") == 1
        seg = open_seg(ds)
        uids = [s.value("SOPInstanceUID") for s in ct_series]
        out = seg.segment_pixels(1, uids)
        assert np.array_equal(out, m)

    def test_fractional_probability_stored_values(self, ct_series):
        m = np.full((3, 16, 16), 0.5)
        ds = create_seg(ct_series, [m], [description(1)],
                        SegmentationType.fractional(), omit_empty=False)
        element = ds.element("PixelData")
        assert set(element.raw[:16 * 16 * 3]) == {128}
        seg = open_seg(ds)
        out = seg.segment_pixels(1, [ct_series[0].value("SOPInstanceUID")])
        assert np.allclose(out, 128 / 255)

    def test_metadata_copied_from_sources(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        assert ds.value("PatientID") == ct_series[0].value("PatientID")
        assert ds.value("StudyInstanceUID") == ct_series[0].value("StudyInstanceUID")
        assert ds.value("Modality") == "SEG"
        assert ds.value("FrameOfReferenceUID") == ct_series[0].value("FrameOfReferenceUID")

    def test_binary_domain_enforced(self, ct_series):
        m = np.ones((3, 16, 16), np.uint8)
        m[0, 0, 0] = 2
        with pytest.raises(MaskValueError):
            create_seg(ct_series, [m], [description(1)], SegmentationType.binary())

    def test_fractional_domain_enforced(self, ct_series):
        m = np.full((3, 16, 16), 1.5)
        with pytest.raises(MaskValueError):
            create_seg(ct_series, [m], [description(1)], SegmentationType.fractional())

    def test_fractional_nan_rejected(self, ct_series):
        # NaN fails every comparison, so `min < 0 or max > 1` misses it, and
        # quantizing would store it as 0
        m = np.full((3, 16, 16), 0.5)
        m[1, 2, 3] = np.nan
        with pytest.raises(MaskValueError):
            create_seg(ct_series, [m], [description(1)], SegmentationType.fractional())

    def test_shape_mismatch_rejected(self, ct_series):
        with pytest.raises(MaskShapeError):
            create_seg(ct_series, [np.ones((3, 8, 8), np.uint8)],
                       [description(1)], SegmentationType.binary())

    def test_frame_count_mismatch_rejected(self, ct_series):
        with pytest.raises(MaskShapeError):
            create_seg(ct_series, [np.ones((2, 16, 16), np.uint8)],
                       [description(1)], SegmentationType.binary())

    def test_non_consecutive_numbering_rejected(self, ct_series):
        masks = [np.ones((3, 16, 16), np.uint8)] * 2
        with pytest.raises(SegmentNumberingError):
            create_seg(ct_series, masks, [description(1), description(3)],
                       SegmentationType.binary())

    def test_automatic_needs_algorithm(self):
        with pytest.raises(ValueError):
            SegmentDescription(
                number=1, label="x",
                category=SCT.MorphologicallyAbnormalStructure,
                property_type=SCT.Nodule,
                algorithm_type=AlgorithmType.AUTOMATIC,
            )

    def test_geometry_mismatch_rejected(self):
        from dicomforge.errors import GeometryMismatchError
        series = make_ct_series(2)
        odd = make_ct_source(
            study_uid=series[0].value("StudyInstanceUID"),
            series_uid=series[0].value("SeriesInstanceUID"),
            spacing=(2.0, 2.0),
        )
        with pytest.raises(GeometryMismatchError):
            create_seg([*series, odd], [np.ones((3, 16, 16), np.uint8)],
                       [description(1)], SegmentationType.binary())

    @pytest.mark.parametrize("position", [b"0.0\\0.0", b"a\\b\\c"],
                             ids=["two coordinates", "not numbers"])
    def test_unreadable_source_position_rejected(self, ct_series, position):
        from dicomforge.errors import GeometryMismatchError
        written = b"0.0\\0.0\\5.0 "
        stream = encode_dataset(ct_series[2])
        assert stream.count(written) == 1
        source = decode_dataset(stream.replace(written, position.ljust(len(written))))
        with pytest.raises(GeometryMismatchError, match="ImagePositionPatient"):
            create_seg([*ct_series[:2], source], [np.ones((3, 16, 16), np.uint8)],
                       [description(1)], SegmentationType.binary())


def _first_group(ds, keyword):
    return ds.items_of("PerFrameFunctionalGroupsSequence")[0].items_of(keyword)[0]


def _set_position(ds, item):
    """Give the third frame the plane position item `item`."""
    ds.items_of("PerFrameFunctionalGroupsSequence")[2].put("PlanePositionSequence", (item,))


def non_numeric_position() -> DataSet:
    """A plane position item holding a\\b\\c, which DataSet.put refuses but
    the decoder reads as written."""
    stream = encode_dataset(DataSet.of(ImagePositionPatient=["1", "2", "3"]))
    return decode_dataset(stream.replace(b"1\\2\\3", b"a\\b\\c"))


# (case, segmentation type, change to a freshly built SEG)
MALFORMED_CASES = [
    ("frame without segment number", SegmentationType.binary(),
     lambda ds: _first_group(ds, "SegmentIdentificationSequence")
     .remove("ReferencedSegmentNumber")),
    ("segment without number", SegmentationType.binary(),
     lambda ds: ds.items_of("SegmentSequence")[0].remove("SegmentNumber")),
    ("unknown algorithm type", SegmentationType.binary(),
     lambda ds: ds.items_of("SegmentSequence")[0].put("SegmentAlgorithmType", "GUESS")),
    ("unknown fractional type", SegmentationType.fractional(),
     lambda ds: ds.put("SegmentationFractionalType", "LIKELIHOOD")),
    ("zero maximum fractional value", SegmentationType.fractional(),
     lambda ds: ds.put("MaximumFractionalValue", 0)),
    ("frame without plane position", SegmentationType.binary(),
     lambda ds: ds.items_of("PerFrameFunctionalGroupsSequence")[2]
     .remove("PlanePositionSequence")),
    ("frame position with two coordinates", SegmentationType.binary(),
     lambda ds: _set_position(ds, DataSet.of(ImagePositionPatient=["0", "0"]))),
    ("frame position that is not numbers", SegmentationType.binary(),
     lambda ds: _set_position(ds, non_numeric_position())),
    ("frame naming an undescribed segment", SegmentationType.binary(),
     lambda ds: _first_group(ds, "SegmentIdentificationSequence")
     .put("ReferencedSegmentNumber", 9)),
]


class TestOpen:
    def test_descriptions_round_trip(self, ct_series):
        tracking = TrackingIdentifier.generate("nodule 1")
        ds = create_seg(
            ct_series, [np.ones((3, 16, 16), np.uint8)],
            [description(1, label="Nodule 1", tracking=tracking)],
            SegmentationType.binary(),
        )
        seg = open_seg(ds)
        [parsed] = seg.descriptions
        assert parsed.label == "Nodule 1"
        assert parsed.property_type == SCT.Nodule
        assert parsed.category == SCT.MorphologicallyAbnormalStructure
        assert parsed.tracking.uid == tracking.uid

    def test_fractional_type_echoed(self, ct_series):
        ds = create_seg(ct_series, [np.full((3, 16, 16), 0.25)],
                        [description(1)],
                        SegmentationType.fractional(FractionalKind.PROBABILITY, 255))
        seg = open_seg(ds)
        assert seg.seg_type == SegmentationType.fractional("PROBABILITY", 255)

    def test_wrong_sop_class(self, ct_source):
        with pytest.raises(WrongSopClassError):
            open_seg(ct_source)

    def test_truncated_pixel_data(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        element = ds.element("PixelData")
        ds.put("PixelData", element.raw[:-4])
        with pytest.raises(MalformedSegError):
            open_seg(ds)

    @pytest.mark.parametrize("case, seg_type, corrupt", MALFORMED_CASES,
                             ids=[c[0] for c in MALFORMED_CASES])
    def test_malformed_structure(self, ct_series, tmp_path, capsys,
                                 case, seg_type, corrupt):
        ds = create_seg(ct_series, [np.full((3, 16, 16), 1, np.uint8)],
                        [description(1)], seg_type)
        corrupt(ds)
        with pytest.raises(MalformedSegError):
            open_seg(ds)
        path = tmp_path / "seg.dcm"
        write_part10_file(path, ds)
        assert main(["validate", str(path)]) == 1
        assert "ERROR validation" in capsys.readouterr().err

    def test_unpositioned_frame_without_frame_of_reference_reads_as_origin(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        ds.remove("FrameOfReferenceUID")
        ds.items_of("PerFrameFunctionalGroupsSequence")[2].remove("PlanePositionSequence")
        seg = open_seg(ds)
        assert [f.position.xyz for f in seg.frames] == [
            (0.0, 0.0, 0.0), (0.0, 0.0, 2.5), (0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("item", [
        DataSet.of(ImagePositionPatient=["0", "0"]), non_numeric_position(),
    ], ids=["two coordinates", "not numbers"])
    def test_malformed_position_without_frame_of_reference_reads_as_origin(
            self, ct_series, item):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        ds.remove("FrameOfReferenceUID")
        _set_position(ds, item)
        assert open_seg(ds).frames[2].position.xyz == (0.0, 0.0, 0.0)

    def test_frame_records(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        seg = open_seg(ds)
        assert [f.source_sop_instance_uid for f in seg.frames] == [
            s.value("SOPInstanceUID") for s in ct_series
        ]
        assert [f.position.xyz[2] for f in seg.frames] == [0.0, 2.5, 5.0]


class TestFindSegments:
    def make_multi(self, ct_series):
        masks = [np.ones((3, 16, 16), np.uint8) for _ in range(4)]
        trackings = [TrackingIdentifier.generate(f"reader {i}") for i in range(4)]
        descriptions = [
            description(i + 1, label=f"Nodule 1 reader {i}", tracking=trackings[i])
            for i in range(4)
        ]
        ds = create_seg(ct_series, masks, descriptions, SegmentationType.binary())
        return open_seg(ds), trackings

    def test_filter_by_type(self, ct_series):
        seg, _ = self.make_multi(ct_series)
        assert seg.find_segments(property_type=SCT.Nodule) == [1, 2, 3, 4]

    def test_filter_by_label_unmatched(self, ct_series):
        seg, _ = self.make_multi(ct_series)
        assert seg.find_segments(label="unmatched") == []

    def test_no_filters_returns_all(self, ct_series):
        seg, _ = self.make_multi(ct_series)
        assert seg.find_segments() == [1, 2, 3, 4]

    def test_filter_by_tracking(self, ct_series):
        seg, trackings = self.make_multi(ct_series)
        assert seg.find_segments(tracking_uid=trackings[2].uid) == [3]


class TestPixels:
    def test_unknown_segment(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        with pytest.raises(UnmappedFrameError):
            open_seg(ds).segment_pixels(2, [ct_series[0].value("SOPInstanceUID")])

    def test_unreferenced_source_frame(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        with pytest.raises(UnmappedFrameError):
            open_seg(ds).segment_pixels(1, ["1.2.3.4.5"])

    def test_unaligned_frames_unpacked_one_at_a_time(self, np_rng):
        # 7x5 frames hold 35 bits, so frames after the first start mid-byte
        series = make_ct_series(4, rows=7, cols=5)
        masks = [np_rng.random((4, 7, 5)) < 0.5 for _ in range(2)]
        ds = create_seg(series, masks, [description(1), description(2)],
                        SegmentationType.binary(), omit_empty=False)
        seg = open_seg(decode_dataset(encode_dataset(ds)))
        everything = unpack_bits(ds.element("PixelData").raw, 8 * 35).reshape(8, 7, 5)
        for i in range(8):
            assert np.array_equal(seg.stored_frame(i), everything[i])
        assert np.array_equal(seg.stored_frame(-1), everything[7])
        with pytest.raises(IndexError):
            seg.stored_frame(8)
        uids = [s.value("SOPInstanceUID") for s in series]
        for number, mask in enumerate(masks, start=1):
            assert np.array_equal(seg.segment_pixels(number, uids), mask)

    def test_fractional_custom_max_value(self, ct_series):
        m = np.full((3, 16, 16), 0.5)
        ds = create_seg(ct_series, [m], [description(1)],
                        SegmentationType.fractional(max_fractional_value=100),
                        omit_empty=False)
        assert ds.value("MaximumFractionalValue") == 100
        assert set(ds.element("PixelData").raw[:16]) == {50}
        seg = open_seg(ds)
        out = seg.segment_pixels(1, [ct_series[0].value("SOPInstanceUID")])
        assert np.allclose(out, 0.5)

    def test_fractional_rescaling(self, ct_series):
        m = np.zeros((3, 16, 16))
        m[0, 0, 0] = 128 / 255
        ds = create_seg(ct_series, [m], [description(1)],
                        SegmentationType.fractional(), omit_empty=False)
        out = open_seg(ds).segment_pixels(1, [ct_series[0].value("SOPInstanceUID")])
        assert out[0, 0, 0] == pytest.approx(128 / 255)


class TestLabelMap:
    def test_disjoint_segments(self, ct_series):
        m1 = np.zeros((3, 16, 16), np.uint8)
        m2 = np.zeros((3, 16, 16), np.uint8)
        m1[0, 0:4, 0:4] = 1
        m2[0, 8:12, 8:12] = 1
        ds = create_seg(ct_series, [m1, m2], [description(1), description(2)],
                        SegmentationType.binary())
        label_map = open_seg(ds).label_map(ct_series[0].value("SOPInstanceUID"))
        assert set(np.unique(label_map)) == {0, 1, 2}
        assert (label_map[0:4, 0:4] == 1).all()
        assert (label_map[8:12, 8:12] == 2).all()

    def test_overlap_highest_wins(self, ct_series):
        masks = [np.zeros((3, 16, 16), np.uint8) for _ in range(3)]
        masks[0][0, 5, 5] = 1
        masks[2][0, 5, 5] = 1
        ds = create_seg(ct_series, masks,
                        [description(1), description(2), description(3)],
                        SegmentationType.binary())
        label_map = open_seg(ds).label_map(ct_series[0].value("SOPInstanceUID"))
        assert label_map[5, 5] == 3

    def test_empty_subset(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        label_map = open_seg(ds).label_map(
            ct_series[0].value("SOPInstanceUID"), segments=[]
        )
        assert not label_map.any()

    def test_fractional_rejected(self, ct_series):
        ds = create_seg(ct_series, [np.full((3, 16, 16), 0.5)],
                        [description(1)], SegmentationType.fractional())
        with pytest.raises(TypeError) as excinfo:
            open_seg(ds).label_map(ct_series[0].value("SOPInstanceUID"))
        assert "threshold" in str(excinfo.value)

    def test_label_map_reconstruction_random(self, ct_series, np_rng):
        # non-overlapping random segments reproduce the original label array
        labels = np_rng.integers(0, 4, size=(3, 16, 16))
        masks = [(labels == i).astype(np.uint8) for i in range(1, 4)]
        ds = create_seg(ct_series, masks,
                        [description(1), description(2), description(3)],
                        SegmentationType.binary())
        seg = open_seg(ds)
        for i, source in enumerate(ct_series):
            out = seg.label_map(source.value("SOPInstanceUID"))
            assert np.array_equal(out, labels[i])


def make_sm_source():
    """A two-frame slide-microscopy source of 8x8 tiles."""
    ds = make_ct_source(rows=8, cols=8)
    ds.put("Modality", "SM")
    ds.put("SOPClassUID", "1.2.840.10008.5.1.4.1.1.77.1.6")
    ds.put("NumberOfFrames", 2)
    ds.remove("ImageOrientationPatient")
    ds.remove("ImagePositionPatient")
    ds.remove("PixelSpacing")
    ds.put("ImageOrientationSlide", ["1", "0", "0", "0", "1", "0"])
    ds.put("TotalPixelMatrixColumns", 16)
    ds.put("TotalPixelMatrixRows", 8)
    from dicomforge.dataset import DataSet
    measures = DataSet()
    measures.put("PixelSpacing", ["0.01", "0.01"])
    shared = DataSet()
    shared.put("PixelMeasuresSequence", (measures,))
    ds.put("SharedFunctionalGroupsSequence", (shared,))
    per_frame = []
    for i in range(2):
        pos = DataSet()
        pos.put("XOffsetInSlideCoordinateSystem", f"{0.08 * i:.2f}")
        pos.put("YOffsetInSlideCoordinateSystem", "0")
        pos.put("ZOffsetInSlideCoordinateSystem", "0")
        pos.put("RowPositionInTotalImagePixelMatrix", 1)
        pos.put("ColumnPositionInTotalImagePixelMatrix", 1 + 8 * i)
        frame = DataSet()
        frame.put("PlanePositionSlideSequence", (pos,))
        per_frame.append(frame)
    ds.put("PerFrameFunctionalGroupsSequence", tuple(per_frame))
    return ds


class TestSlideSources:
    def test_slide_seg_round_trip(self):
        source = make_sm_source()
        masks = [np.ones((2, 8, 8), np.uint8)]
        ds = create_seg([source], masks, [description(1)],
                        SegmentationType.binary(), omit_empty=False)
        seg = open_seg(decode_dataset(encode_dataset(ds)))
        assert len(seg.frames) == 2
        position = seg.frames[1].position
        assert position.matrix_column == 9
        assert position.xyz[0] == pytest.approx(0.08)
        uid = source.value("SOPInstanceUID")
        out = seg.segment_pixels(1, [(uid, 1), (uid, 2)])
        assert out.all()
        geometry = seg.plane_geometry(seg.frames[1])
        assert geometry.position == (pytest.approx(0.08), 0.0, 0.0)
        assert geometry.spacing == (0.01, 0.01)

    def test_slide_frame_without_position(self):
        source = make_sm_source()
        source.items_of("PerFrameFunctionalGroupsSequence")[1].remove(
            "PlanePositionSlideSequence")
        with pytest.raises(MalformedSegError, match="frame 2 lacks"):
            create_seg([source], [np.ones((2, 8, 8), np.uint8)], [description(1)],
                       SegmentationType.binary())

    def test_patient_seg_plane_geometry(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        seg = open_seg(ds)
        geometry = seg.plane_geometry(seg.frames[2])
        assert geometry.position == (0.0, 0.0, 5.0)
        assert geometry.orientation == (1, 0, 0, 0, 1, 0)
        assert geometry.spacing == (1.0, 1.0)


def _golden_masks(rng):
    """Three 4x7x5 stacks in three dtypes; 35-pixel frames start mid-byte."""
    first = rng.random((4, 7, 5)) < 0.4
    second = (rng.random((4, 7, 5)) < 0.3).astype(np.uint8)
    second[2] = 0
    third = np.zeros((4, 7, 5))
    third[1, 2:5, 1:4] = 1.0
    return [first, second, third]


def _golden_fractions(rng, dtype):
    out = rng.random((3, 7, 5)).astype(dtype)
    out[1] = 0
    out[2, 0, :] = (0.0, 1.0, 0.5, 1.5 / 255, 0.999)
    return [out]


GOLDEN_CASES = {
    "binary-omit-empty": (
        lambda rng: (make_ct_series(4, rows=7, cols=5), _golden_masks(rng),
                     SegmentationType.binary(), True),
        "226b80ada46394bf869483d0a9295226"
        "628ad0f0641fef59127d68a6490473af",
    ),
    "binary-keep-empty": (
        lambda rng: (make_ct_series(4, rows=7, cols=5), _golden_masks(rng),
                     SegmentationType.binary(), False),
        "ec94c2e749e2dc4ed60ff7c4283a576c"
        "49b48e305dc81462cb6409a27a8d767e",
    ),
    "fractional-probability-255": (
        lambda rng: (make_ct_series(3, rows=7, cols=5),
                     _golden_fractions(rng, np.float64),
                     SegmentationType.fractional(FractionalKind.PROBABILITY, 255),
                     True),
        "308a15557f84b1601221546afc37088d"
        "dfc00ea4086d10862bfc9a314d673c1f",
    ),
    "fractional-occupancy-100": (
        lambda rng: (make_ct_series(3, rows=7, cols=5),
                     _golden_fractions(rng, np.float32),
                     SegmentationType.fractional(FractionalKind.OCCUPANCY, 100),
                     False),
        "d203f7f3671e6f880422d8a2199fcd28"
        "c2e3da33df64333bb5f43b00aa7be812",
    ),
    "slide-binary": (
        lambda rng: ([make_sm_source()],
                     [np.stack([rng.random((8, 8)) < 0.5, np.zeros((8, 8), bool)])],
                     SegmentationType.binary(), True),
        "363814a16d9d6fe761027b80f1c9bb4c"
        "7c26b8a65e21266d9991eede2b71430f",
    ),
}


class TestGoldenBytes:
    """Encoded SEG bytes are pinned: a change to them must be deliberate."""

    @pytest.fixture(autouse=True)
    def fixed_uids_and_time(self, monkeypatch):
        counter = itertools.count(1)

        def fixed_uid():
            return f"2.25.{next(counter)}"

        monkeypatch.setattr(conftest, "new_uid", fixed_uid)
        monkeypatch.setattr(seg_module, "new_uid", fixed_uid)

        def fixed_timestamp(target):
            target.put("ContentDate", "20240102")
            target.put("ContentTime", "101500")

        monkeypatch.setattr(seg_module, "content_timestamp", fixed_timestamp)

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_sha256(self, case):
        build, expected = GOLDEN_CASES[case]
        sources, masks, seg_type, omit_empty = build(np.random.default_rng(2106))
        descriptions = [description(n) for n in range(1, len(masks) + 1)]
        ds = create_seg(sources, masks, descriptions, seg_type, omit_empty,
                        series_instance_uid="2.25.900", sop_instance_uid="2.25.901")
        blob = write_part10(file_meta_for(ds), ds)
        assert hashlib.sha256(blob).hexdigest() == expected


# (case, two pixel values, dtype, accepted as BINARY, accepted as FRACTIONAL)
DTYPE_CASES = [
    ("bool", (True, False), bool, True, True),
    ("uint8", (1, 0), np.uint8, True, True),
    ("int64 holding -1", (1, -1), np.int64, False, False),
    ("float64 holding 0.5", (1, 0.5), np.float64, False, True),
    ("float32 exact 0/1", (1, 0), np.float32, True, True),
]


class TestMaskDtypes:
    """Each dtype is validated in place and encodes like its float64 values."""

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "fractional"])
    @pytest.mark.parametrize("case, values, dtype, binary_ok, fractional_ok",
                             DTYPE_CASES, ids=[c[0] for c in DTYPE_CASES])
    def test_accepted_or_rejected(self, ct_series, case, values, dtype,
                                  binary_ok, fractional_ok, binary):
        mask = np.zeros((3, 16, 16), dtype=dtype)
        mask[0, 0, :2] = values
        seg_type = SegmentationType.binary() if binary else SegmentationType.fractional()
        if not (binary_ok if binary else fractional_ok):
            with pytest.raises(MaskValueError):
                create_seg(ct_series, [mask], [description(1)], seg_type)
            return
        ds = create_seg(ct_series, [mask], [description(1)], seg_type,
                        omit_empty=False)
        reference = create_seg(ct_series, [mask.astype(np.float64)],
                               [description(1)], seg_type, omit_empty=False)
        assert ds.element("PixelData").raw == reference.element("PixelData").raw
