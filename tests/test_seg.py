"""Segmentation encode/decode tests, anchored on a naive bit-packing oracle."""
import copy
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


def _shared_item(ds, keyword):
    return ds.items_of("SharedFunctionalGroupsSequence")[0].items_of(keyword)[0]


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
    ("frame of reference that is not a UID", SegmentationType.binary(),
     lambda ds: ds.put("FrameOfReferenceUID", "2.25/1")),
    ("shared orientation that is not numbers", SegmentationType.binary(),
     lambda ds: _shared_item(ds, "PlaneOrientationSequence")
     .put("ImageOrientationPatient", ["a", "0", "0", "0", "1", "0"], "LO")),
    ("shared pixel spacing that is not numbers", SegmentationType.binary(),
     lambda ds: _shared_item(ds, "PixelMeasuresSequence")
     .put("PixelSpacing", ["1", "x"], "LO")),
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

    def test_empty_tracking_identifier_reads_as_none(self, ct_series):
        tracking = TrackingIdentifier("1.2.3", "")
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1, tracking=tracking)], SegmentationType.binary())
        [parsed] = open_seg(decode_dataset(encode_dataset(ds))).descriptions
        assert parsed.tracking == tracking == TrackingIdentifier("1.2.3")

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
        assert main(["mk-sr", "--from-seg", str(path), "-o", str(tmp_path / "sr.dcm")]) == 1
        assert "ERROR validation" in capsys.readouterr().err

    def test_seg_without_shared_geometry_opens(self, ct_series):
        ds = create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                        [description(1)], SegmentationType.binary())
        ds.put("SharedFunctionalGroupsSequence", (DataSet(),))
        seg = open_seg(ds)
        assert seg.label_volume().shape == (3, 16, 16)
        with pytest.raises(MalformedSegError, match="orientation/spacing"):
            seg.plane_geometry(seg.frames[0])

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

    def test_volume_stacks_label_maps(self, np_rng):
        # 7x5 frames start mid-byte; two frames of segment 2 are omitted
        series = make_ct_series(4, rows=7, cols=5)
        masks = [np_rng.random((4, 7, 5)) < 0.5 for _ in range(3)]
        masks[1][1:3] = False
        seg = open_seg(create_seg(series, masks, [description(n) for n in (1, 2, 3)],
                                  SegmentationType.binary()))
        keys = seg.source_frame_keys()
        volume = seg.label_volume(keys)
        assert volume.shape == (4, 7, 5) and volume.dtype == np.uint8
        assert np.array_equal(volume, np.stack([seg.label_map(k) for k in keys]))
        assert np.array_equal(seg.label_volume(), volume)
        assert np.array_equal(seg.label_volume(keys[::-1], segments=[2, 1]),
                              np.stack([seg.label_map(k, [1, 2]) for k in keys[::-1]]))
        assert seg.label_volume([]).shape == (0, 7, 5)

    @pytest.mark.parametrize("largest, dtype", [
        (255, np.uint8), (256, np.uint16), (65535, np.uint16),
    ])
    def test_dtype_holds_largest_described_number(self, ct_series, largest, dtype):
        masks = [np.zeros((3, 16, 16), np.uint8) for _ in range(2)]
        masks[0][0, :, :8] = 1
        masks[1][0, 4:12] = 1
        ds = create_seg(ct_series, masks, [description(1), description(2)],
                        SegmentationType.binary())
        seg = open_seg(decode_dataset(encode_dataset(renumbered(ds, 2, largest))))
        label_map = seg.label_map(ct_series[0].value("SOPInstanceUID"))
        assert label_map.dtype == dtype
        expected = masks[0][0].astype(np.int64)
        expected[masks[1][0] == 1] = largest
        assert np.array_equal(label_map, expected)
        assert seg.label_volume().dtype == dtype
        assert seg.label_volume(segments=[1]).dtype == dtype

    def test_volume_errors(self, ct_series):
        uid = ct_series[0].value("SOPInstanceUID")
        binary = open_seg(create_seg(ct_series, [np.ones((3, 16, 16), np.uint8)],
                                     [description(1)], SegmentationType.binary()))
        for read in (lambda: binary.label_volume(segments=[2]),
                     lambda: binary.label_volume([uid, "1.2.3.4.5"]),
                     lambda: binary.label_map(uid, segments=[1, 2]),
                     lambda: binary.label_map("1.2.3.4.5")):
            with pytest.raises(UnmappedFrameError):
                read()
        # with both faults, the undescribed segment is named first
        with pytest.raises(UnmappedFrameError, match="no segment number 2"):
            binary.label_map("1.2.3.4.5", segments=[1, 2])
        fractional = open_seg(create_seg(ct_series, [np.full((3, 16, 16), 0.5)],
                                         [description(1)], SegmentationType.fractional()))
        with pytest.raises(TypeError, match="threshold"):
            fractional.label_volume()


def renumbered(ds, number: int, new_number: int):
    """`ds` with segment `number` renumbered by hand: create_seg numbers
    segments from 1."""
    ds.items_of("SegmentSequence")[number - 1].put("SegmentNumber", new_number)
    for group in ds.items_of("PerFrameFunctionalGroupsSequence"):
        [item] = group.items_of("SegmentIdentificationSequence")
        if item.value("ReferencedSegmentNumber") == number:
            item.put("ReferencedSegmentNumber", new_number)
    return ds


def int32_label_map(seg, source_frame, segments):
    """The label rule as one-frame `label_map` applied it in int32, segment
    by segment in ascending order, the highest number written last."""
    out = np.zeros((seg.rows, seg.columns), dtype=np.int32)
    for number in sorted(seg._described if segments is None else segments):
        [[index]] = seg._stored_indices((number,), (source_frame,))
        if index is not None:
            np.copyto(out, number, where=seg.stored_frame(index).view(bool))
    return out


@settings(max_examples=100, deadline=None)
@given(masks=hnp.arrays(np.bool_, st.tuples(st.integers(1, 4), st.integers(1, 3),
                                            st.integers(1, 5), st.integers(1, 5))),
       omit_empty=st.booleans(), multi_frame=st.booleans(), data=st.data())
def test_label_volume_matches_int32_label_maps(masks, omit_empty, multi_frame, data):
    count, frames, rows, cols = masks.shape
    if multi_frame:  # one source, its frames addressed by (uid, frame) keys
        sources = [make_sm_source(frames, rows, cols)]
        uid = sources[0].value("SOPInstanceUID")
        keys = [(uid, n) for n in range(1, frames + 1)]
    else:
        sources = make_ct_series(frames, rows=rows, cols=cols)
        keys = [s.value("SOPInstanceUID") for s in sources]
    ds = create_seg(sources, list(masks), [description(n) for n in range(1, count + 1)],
                    SegmentationType.binary(), omit_empty)
    # one segment may take a number past uint8, so on frames it alone
    # covers, or covers first, the first write is of that number
    numbers = list(range(1, count + 1))
    moved = data.draw(st.none() | st.integers(1, count))
    if moved is not None:
        numbers[moved - 1] = data.draw(st.integers(256, 65535))
        renumbered(ds, moved, numbers[moved - 1])
    seg = open_seg(decode_dataset(encode_dataset(ds)))
    # unsorted, and a number may repeat
    segments = data.draw(st.none() | st.lists(st.sampled_from(numbers)))
    volume = seg.label_volume(keys, segments)
    assert volume.dtype == np.min_scalar_type(max(numbers))
    assert np.array_equal(volume, np.stack([int32_label_map(seg, k, segments) for k in keys]))
    # the same rule on the masks themselves
    expected = np.zeros((frames, rows, cols), np.int32)
    for number, mask in sorted(zip(numbers, masks), key=lambda pair: pair[0]):
        if segments is None or number in segments:
            expected[mask] = number
    assert np.array_equal(volume, expected)


def make_sm_source(frames=2, rows=8, cols=8):
    """A slide-microscopy source of `frames` tiles of `rows` x `cols`, in
    one row of tiles."""
    ds = make_ct_source(rows=rows, cols=cols)
    ds.put("Modality", "SM")
    ds.put("SOPClassUID", "1.2.840.10008.5.1.4.1.1.77.1.6")
    ds.put("NumberOfFrames", frames)
    ds.remove("ImageOrientationPatient")
    ds.remove("ImagePositionPatient")
    ds.remove("PixelSpacing")
    ds.put("ImageOrientationSlide", ["1", "0", "0", "0", "1", "0"])
    ds.put("TotalPixelMatrixColumns", cols * frames)
    ds.put("TotalPixelMatrixRows", rows)
    from dicomforge.dataset import DataSet
    measures = DataSet()
    measures.put("PixelSpacing", ["0.01", "0.01"])
    shared = DataSet()
    shared.put("PixelMeasuresSequence", (measures,))
    ds.put("SharedFunctionalGroupsSequence", (shared,))
    per_frame = []
    for i in range(frames):
        pos = DataSet()
        pos.put("XOffsetInSlideCoordinateSystem", f"{0.01 * cols * i:.2f}")
        pos.put("YOffsetInSlideCoordinateSystem", "0")
        pos.put("ZOffsetInSlideCoordinateSystem", "0")
        pos.put("RowPositionInTotalImagePixelMatrix", 1)
        pos.put("ColumnPositionInTotalImagePixelMatrix", 1 + cols * i)
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


class TestSharedFrameItems:
    """Items that repeat between per-frame groups are one object each, and
    sharing them leaves the encoded bytes as separate copies would."""

    @staticmethod
    def first_item(group, keyword):
        return group.items_of(keyword)[0]

    def test_repeated_items_are_one_object(self, ct_series):
        masks = [np.ones((3, 16, 16), np.uint8), np.ones((3, 16, 16), bool)]
        ds = create_seg(ct_series, masks, [description(1), description(2)],
                        SegmentationType.binary())
        groups = ds.items_of("PerFrameFunctionalGroupsSequence")
        assert len(groups) == 6
        for segment in (groups[:3], groups[3:]):
            first = self.first_item(segment[0], "SegmentIdentificationSequence")
            assert all(self.first_item(group, "SegmentIdentificationSequence") is first
                       for group in segment)
        for one, two in zip(groups[:3], groups[3:]):
            for keyword in ("DerivationImageSequence", "PlanePositionSequence"):
                assert self.first_item(one, keyword) is self.first_item(two, keyword)

    def test_shared_items_encode_as_copies(self, ct_series):
        masks = [np.ones((3, 16, 16), np.uint8), np.ones((3, 16, 16), bool)]
        ds = create_seg(ct_series, masks, [description(1), description(2)],
                        SegmentationType.binary())
        copied = copy.deepcopy(ds)
        # one deepcopy per group, so no item is shared between groups
        copied.put("PerFrameFunctionalGroupsSequence", tuple(
            copy.deepcopy(group) for group in ds.items_of("PerFrameFunctionalGroupsSequence")
        ))
        items = [self.first_item(group, "SegmentIdentificationSequence")
                 for group in copied.items_of("PerFrameFunctionalGroupsSequence")]
        assert len({id(item) for item in items}) == len(items)
        assert write_part10(file_meta_for(copied), copied) == write_part10(file_meta_for(ds), ds)


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


BINARY_TEXT = "segment 1: binary masks may only contain 0 and 1"
FRACTIONAL_TEXT = "segment 1: fractional masks must lie within [0, 1]"

# (case, dtype, value put in the last frame, BINARY outcome, FRACTIONAL
# outcome); an outcome is the MaskValueError text, the first stored byte of
# the one frame kept, or None for no frame kept
LAST_FRAME_CASES = [
    ("uint16 holding 2", np.uint16, 2, BINARY_TEXT, FRACTIONAL_TEXT),
    ("int16 holding -1", np.int16, -1, BINARY_TEXT, FRACTIONAL_TEXT),
    ("float32 NaN", np.float32, math.nan, BINARY_TEXT, FRACTIONAL_TEXT),
    ("float64 1e-9", np.float64, 1e-9, BINARY_TEXT, 0),
    ("float64 -0.0", np.float64, -0.0, None, None),
    ("float64 0.5", np.float64, 0.5, BINARY_TEXT, 128),
    ("int8 1", np.int8, 1, 0x01, 255),
]


class TestLastFrameValues:
    """One value in the last of three frames: rejected with its message, or
    the frames kept and their stored bytes."""

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "fractional"])
    @pytest.mark.parametrize("case, dtype, value, binary_outcome, fractional_outcome",
                             LAST_FRAME_CASES, ids=[c[0] for c in LAST_FRAME_CASES])
    def test_outcome(self, ct_series, case, dtype, value, binary_outcome,
                     fractional_outcome, binary):
        mask = np.zeros((3, 16, 16), dtype=dtype)
        mask[2, 0, 0] = value
        seg_type = SegmentationType.binary() if binary else SegmentationType.fractional()
        outcome = binary_outcome if binary else fractional_outcome
        if isinstance(outcome, str):
            with pytest.raises(MaskValueError) as info:
                create_seg(ct_series, [mask], [description(1)], seg_type)
            assert str(info.value) == outcome
            return
        ds = create_seg(ct_series, [mask], [description(1)], seg_type)
        if outcome is None:
            assert ds.value("NumberOfFrames") == 0
            assert ds.element("PixelData").raw == b""
            return
        frame_bytes = 16 * 16 // 8 if binary else 16 * 16
        assert ds.value("NumberOfFrames") == 1
        assert ds.element("PixelData").raw == bytes([outcome]) + bytes(frame_bytes - 1)


MASK_DTYPES = {
    np.bool_: [False, True],
    np.uint8: [0, 1, 2],
    np.uint16: [0, 1, 2, 300],
    np.int8: [0, 1, -1, 2],
    np.int16: [0, 1, -1, -300],
    np.float32: [0.0, -0.0, 1.0, 0.5, 1e-9, -1e-9, 2.0, math.nan],
    np.float64: [0.0, -0.0, 1.0, 0.5, 1e-9, -1e-9, 2.0, math.nan, math.inf],
}


@st.composite
def mask_stacks(draw):
    dtype = draw(st.sampled_from(sorted(MASK_DTYPES, key=lambda t: t.__name__)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    # zero is drawn often so that whole frames come out empty
    values = st.one_of(st.just(MASK_DTYPES[dtype][0]),
                       st.sampled_from(MASK_DTYPES[dtype]))
    flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=dtype).reshape(shape)


def two_pass_outcome(stack, seg_type, omit_empty):
    """The SEG rule on a float64 copy: check the values, then keep the
    non-empty frames; the error text, or (frames, pixel data padded to an
    even length)."""
    values = stack.astype(np.float64)
    if seg_type.is_binary:
        valid = stack.dtype == np.bool_ or bool(((values == 0) | (values == 1)).all())
    else:
        valid = bool(values.min() >= 0 and values.max() <= 1)
    if not valid:
        return BINARY_TEXT if seg_type.is_binary else FRACTIONAL_TEXT
    kept = [f for f in range(len(values)) if values[f].any() or not omit_empty]
    if seg_type.is_binary:
        data = naive_pack(values[kept].astype(np.uint8))
    else:
        stored = np.floor(values[kept] * seg_type.max_fractional_value + 0.5)
        data = stored.astype(np.uint8).tobytes()
    return len(kept), data + bytes(len(data) % 2)


@settings(max_examples=200, deadline=None)
@given(stack=mask_stacks(), binary=st.booleans(), omit_empty=st.booleans())
def test_mask_outcome_matches_two_pass_rule(stack, binary, omit_empty):
    frames, rows, cols = stack.shape
    seg_type = SegmentationType.binary() if binary else SegmentationType.fractional()
    expected = two_pass_outcome(stack, seg_type, omit_empty)
    sources = make_ct_series(frames, rows=rows, cols=cols)
    try:
        ds = create_seg(sources, [stack], [description(1)], seg_type, omit_empty)
    except MaskValueError as exc:
        assert str(exc) == expected
        return
    assert (ds.value("NumberOfFrames"), ds.element("PixelData").raw) == expected
