"""Element-stream codec tests, anchored on hand-encoded byte oracles."""
import hashlib
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_ct_source
from dicomforge import codec
from dicomforge.codec import MAX_NESTING, decode_dataset, encode_dataset
from dicomforge.coding import SCT, UCUM, CodedConcept
from dicomforge.dataset import DataElement, DataSet
from dicomforge.errors import (
    DecodeError,
    DicomforgeError,
    EncodeError,
    UnsupportedTransferSyntaxError,
)
from dicomforge.part10 import (
    MAGIC,
    PREAMBLE,
    FileMeta,
    _meta_elements,
    file_meta_for,
    read_part10,
    write_part10,
)
from dicomforge.sr import (
    NumItem,
    ObserverContext,
    Scoord3DItem,
    SRKind,
    SRMeta,
    TrackingIdentifier,
    create_sr,
    measurement_report,
    open_sr,
    planar_roi_group,
)
from dicomforge.sr import document as sr_document
from dicomforge.tags import Tag
from dicomforge.uid import EXPLICIT_VR_LITTLE_ENDIAN, IMPLICIT_VR_LITTLE_ENDIAN
from dicomforge.valuerep import LONG_FORM_VRS, VR, float32_round_trip

# (0010,0020) LO, length 4, "ID1 " -- hand-encoded explicit VR little endian
PATIENT_ID_STREAM = bytes.fromhex("100020004C4F0400494431 20".replace(" ", ""))


def lo_element(text: str) -> DataElement:
    return DataElement(Tag(0x0010, 0x0020), VR.LO, text)


class TestDecode:
    def test_hand_encoded_lo_element(self):
        ds = decode_dataset(PATIENT_ID_STREAM, EXPLICIT_VR_LITTLE_ENDIAN)
        assert len(ds) == 1
        element = ds[Tag(0x0010, 0x0020)]
        assert element.vr is VR.LO
        assert element.value == "ID1"

    def test_empty_stream_gives_empty_dataset(self):
        assert len(decode_dataset(b"", EXPLICIT_VR_LITTLE_ENDIAN)) == 0

    def test_nested_sequence_of_depth_two(self):
        # one SQ element containing one item with one LO element, hand-built:
        # item content = the 12-byte LO stream above
        item = PATIENT_ID_STREAM
        item_header = bytes.fromhex("FEFF00E0") + len(item).to_bytes(4, "little")
        seq_value = item_header + item
        stream = (
            bytes.fromhex("0800151153510000")
            + len(seq_value).to_bytes(4, "little")
            + seq_value
        )
        ds = decode_dataset(stream, EXPLICIT_VR_LITTLE_ENDIAN)
        items = ds.items_of("ReferencedSeriesSequence")
        assert len(items) == 1
        assert items[0].value("PatientID") == "ID1"

    def test_undefined_length_sequence_and_items(self):
        undefined = bytes.fromhex("FFFFFFFF")
        item_delim = bytes.fromhex("FEFF0DE0") + b"\x00" * 4
        seq_delim = bytes.fromhex("FEFFDDE0") + b"\x00" * 4
        stream = (
            bytes.fromhex("0800151153510000")
            + undefined
            + bytes.fromhex("FEFF00E0")
            + undefined
            + PATIENT_ID_STREAM
            + item_delim
            + seq_delim
        )
        ds = decode_dataset(stream, EXPLICIT_VR_LITTLE_ENDIAN)
        items = ds.items_of("ReferencedSeriesSequence")
        assert items[0].value("PatientID") == "ID1"

    def test_implicit_vr_element(self):
        # (0010,0020) length 4 "ID1 " in implicit VR little endian
        stream = bytes.fromhex("1000200004000000494431") + b" "
        ds = decode_dataset(stream, IMPLICIT_VR_LITTLE_ENDIAN)
        assert ds.value("PatientID") == "ID1"
        assert ds["PatientID"].vr is VR.LO  # dictionary VR applied

    def test_implicit_unknown_tag_gets_un(self):
        stream = bytes.fromhex("08000010020000004142")
        ds = decode_dataset(stream, IMPLICIT_VR_LITTLE_ENDIAN)
        element = ds[Tag(0x0008, 0x1000)]
        assert element.vr is VR.UN
        assert element.raw == b"AB"

    def test_truncated_stream_reports_offset(self):
        with pytest.raises(DecodeError) as excinfo:
            decode_dataset(PATIENT_ID_STREAM[:-2], EXPLICIT_VR_LITTLE_ENDIAN)
        assert excinfo.value.offset is not None

    def test_length_overrun_is_an_error(self):
        bad = bytes.fromhex("100020004C4F110049443120")  # declares 17 bytes
        with pytest.raises(DecodeError):
            decode_dataset(bad, EXPLICIT_VR_LITTLE_ENDIAN)

    def test_undefined_length_non_sequence_is_an_error(self):
        bad = bytes.fromhex("100020004F420000FFFFFFFF")
        with pytest.raises(DecodeError):
            decode_dataset(bad, EXPLICIT_VR_LITTLE_ENDIAN)

    def test_unsupported_syntax_named_in_error(self):
        with pytest.raises(UnsupportedTransferSyntaxError) as excinfo:
            decode_dataset(b"", "1.2.840.10008.1.2.2")
        assert "1.2.840.10008.1.2.2" in str(excinfo.value)


class TestEncode:
    def test_lo_element_round_trip_to_known_bytes(self):
        ds = DataSet([lo_element("ID1")])
        assert encode_dataset(ds) == PATIENT_ID_STREAM

    def test_empty_dataset_encodes_to_empty_stream(self):
        assert encode_dataset(DataSet()) == b""

    def test_odd_length_text_padded_with_space(self):
        ds = DataSet([lo_element("ABC")])
        out = encode_dataset(ds)
        assert out[6:8] == (4).to_bytes(2, "little")
        assert out[8:] == b"ABC "

    def test_ui_padded_with_nul(self):
        ds = DataSet()
        ds.put("SOPInstanceUID", "1.2.3")
        out = encode_dataset(ds)
        assert out.endswith(b"1.2.3\x00")

    def test_value_over_vr_limit_names_tag(self):
        ds = DataSet([lo_element("X" * 65)])
        with pytest.raises(EncodeError) as excinfo:
            encode_dataset(ds)
        assert "0010,0020" in str(excinfo.value)

    def test_write_implicit_rejected(self):
        with pytest.raises(UnsupportedTransferSyntaxError):
            encode_dataset(DataSet(), IMPLICIT_VR_LITTLE_ENDIAN)

    def test_tags_emitted_in_ascending_order(self):
        ds = DataSet()
        ds.put("PatientID", "X")
        ds.put("Modality", "CT")
        ds.put("SOPInstanceUID", "1.2")
        out = encode_dataset(ds)
        decoded = decode_dataset(out)
        tags = decoded.tags()
        assert tags == sorted(tags)
        assert tags[0] == Tag(0x0008, 0x0018)


text_values = st.text(
    alphabet=st.sampled_from("ABCdef123_.+-"), min_size=0, max_size=12
)


@given(
    st.lists(
        st.sampled_from(
            ["PatientID", "Manufacturer", "SeriesDescription", "InstitutionName"]
        ),
        unique=True,
        min_size=1,
    ),
    st.data(),
)
def test_round_trip_property(keywords, data):
    ds = DataSet()
    for keyword in keywords:
        ds.put(keyword, data.draw(text_values))
    blob = encode_dataset(ds)
    assert decode_dataset(blob) == ds
    assert encode_dataset(decode_dataset(blob)) == blob


class TestRoundTrip:
    def test_decode_encode_identity_on_canonical_stream(self):
        assert encode_dataset(decode_dataset(PATIENT_ID_STREAM)) == PATIENT_ID_STREAM

    def test_all_vr_kinds_round_trip(self, all_vr_dataset):
        encoded = encode_dataset(all_vr_dataset)
        decoded = decode_dataset(encoded)
        assert decoded == all_vr_dataset
        assert encode_dataset(decoded) == encoded

    def test_every_encoded_value_length_even(self, all_vr_dataset):
        from dicomforge.valuerep import LONG_FORM_VRS

        for element in all_vr_dataset:
            blob = encode_dataset(DataSet([element]))
            header = 12 if element.vr in LONG_FORM_VRS else 8
            assert (len(blob) - header) % 2 == 0, element

    @pytest.mark.parametrize("depth", range(6))
    def test_nesting_depth_preserved(self, depth):
        ds = DataSet([lo_element("LEAF")])
        for _ in range(depth):
            outer = DataSet()
            outer.put("ReferencedSeriesSequence", (ds,))
            ds = outer
        decoded = decode_dataset(encode_dataset(ds))
        assert decoded == ds

        def measure(d):
            items = d.items_of("ReferencedSeriesSequence")
            return 1 + measure(items[0]) if items else 0

        assert measure(decoded) == depth


# -- shared items -------------------------------------------------------------

_LEAF_VALUES = {
    "PatientID": text_values,
    "CodeMeaning": text_values,
    "Rows": st.integers(0, 0xFFFF),
    "GraphicData": st.lists(st.floats(-1e6, 1e6, width=32), max_size=4),
}
_SEQUENCES = ["ReferencedSeriesSequence", "ContentSequence", "ConceptNameCodeSequence"]


def shared_tree(data, pool: list, depth: int = 0) -> DataSet:
    """A data set whose sequences may reuse any item object built before,
    in the same sequence, another sequence or at another depth."""
    ds = DataSet()
    for keyword in data.draw(st.lists(st.sampled_from(sorted(_LEAF_VALUES)),
                                      unique=True, max_size=3)):
        ds.put(keyword, data.draw(_LEAF_VALUES[keyword]))
    if depth < 3:
        for keyword in data.draw(st.lists(st.sampled_from(_SEQUENCES),
                                          unique=True, max_size=2)):
            items = []
            for _ in range(data.draw(st.integers(0, 4))):
                if pool and data.draw(st.booleans()):
                    items.append(pool[data.draw(st.integers(0, len(pool) - 1))])
                else:
                    items.append(shared_tree(data, pool, depth + 1))
                    pool.append(items[-1])
            ds.put(keyword, tuple(items))
    return ds


def unshared_copy(ds: DataSet) -> DataSet:
    """An equal tree in which every item occurrence is its own object."""
    out = DataSet()
    for element in ds:
        value = element.raw
        if element.vr is VR.SQ:
            value = tuple(unshared_copy(item) for item in value)
        out.add(DataElement(element.tag, element.vr, value))
    return out


def item_occurrences(ds: DataSet) -> list[DataSet]:
    out = []
    for element in ds:
        if element.vr is VR.SQ:
            for item in element.values:
                out.append(item)
                out.extend(item_occurrences(item))
    return out


class TestSharedItems:
    """The encoder writes a repeated item object once and copies its bytes."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shared_items_encode_like_distinct_copies(self, data):
        shared = shared_tree(data, [])
        copy = unshared_copy(shared)
        assert copy == shared
        assert len({id(i) for i in item_occurrences(copy)}) == len(item_occurrences(copy))
        blob = encode_dataset(shared)
        assert blob == encode_dataset(copy)
        assert decode_dataset(blob) == shared

    def test_item_repeated_in_one_sequence_and_nested(self):
        leaf = DataSet()
        leaf.put("CodeMeaning", "odd")  # odd length: padding inside the copy
        middle = DataSet()
        middle.put("ConceptNameCodeSequence", (leaf, leaf))
        root = DataSet()
        root.put("ContentSequence", (middle, leaf, middle))
        root.put("ReferencedSeriesSequence", (leaf,))
        blob = encode_dataset(root)
        assert blob == encode_dataset(unshared_copy(root))
        assert blob.count(encode_dataset(leaf)) == 6


def per_value_float32(value: float) -> float:
    """FL quantization one value at a time, as before batching."""
    return struct.unpack("<f", struct.pack("<f", float(value)))[0]


_FL_EDGES = [float("inf"), float("-inf"), float("nan"), 0.0, -0.0, 1e-46,
             3.4028234663852886e38, 3.4028235677973366e38, 3.4028236e38, -1e39]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(width=32), st.sampled_from(_FL_EDGES)),
                max_size=12))
def test_batched_fl_quantization_matches_per_value(values):
    try:
        expected = [per_value_float32(v) for v in values]
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            float32_round_trip(tuple(values))
        with pytest.raises(type(exc)):
            DataElement(Tag(0x0070, 0x0022), VR.FL, values)
        return
    for got in (float32_round_trip(tuple(values)),
                DataElement(Tag(0x0070, 0x0022), VR.FL, values).values):
        assert len(got) == len(expected)
        assert all(struct.pack("<d", a) == struct.pack("<d", b) or a != a and b != b
                   for a, b in zip(got, expected))


# -- golden bytes -------------------------------------------------------------


def golden_sr(n_groups: int = 120) -> DataSet:
    """A TID 1500 SR with `n_groups` planar ROI groups; UIDs fixed, no clock."""
    rng = np.random.default_rng(1500)
    for_uid = "2.25.30"
    sources = [
        make_ct_source(study_uid="2.25.10", series_uid="2.25.20",
                       sop_uid=f"2.25.{100 + i}", frame_of_reference_uid=for_uid,
                       position=(0.0, 0.0, 2.5 * i), instance_number=i + 1)
        for i in range(3)
    ]
    groups = []
    for i in range(n_groups):
        n = 4 + i % 9
        angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        radius = 2.0 + 8.0 * rng.random()
        centre = rng.random(2) * 100.0
        points = np.column_stack([centre[0] + radius * np.cos(angles),
                                  centre[1] + radius * np.sin(angles),
                                  np.full(n, 2.5 * (i % 3))])
        points = np.vstack([points, points[:1]])
        groups.append(planar_roi_group(
            TrackingIdentifier(f"2.25.{1000 + i}", f"ROI {i + 1}"),
            Scoord3DItem(None, "POLYGON", points, for_uid),
            SCT.Nodule,
            finding_sites=[SCT.Lung] if i % 2 else [],
            measurements=[NumItem(SCT.Area, float(np.pi * radius ** 2), UCUM.mm2)],
        ))
    observer = ObserverContext.device(name="detector", uid="2.25.40", version="1.0")
    tree = measurement_report(observer, SCT.ImagingProcedure, groups)
    meta = SRMeta(series_instance_uid="2.25.50", sop_instance_uid="2.25.51")
    return create_sr(SRKind.COMPREHENSIVE_3D, sources, tree, meta)


def implicit_stream(ds: DataSet, depth: int = 0) -> bytes:
    """`ds` in implicit VR little endian; sequences and items alternate
    between undefined and defined lengths with depth."""
    out = bytearray()
    for element in ds:
        out += struct.pack("<HH", *element.tag)
        if element.vr is VR.SQ:
            items = [implicit_stream(item, depth + 1) for item in element.values]
            if depth % 2 == 0:
                out += b"\xff\xff\xff\xff"
                for item in items:
                    out += bytes.fromhex("FEFF00E0FFFFFFFF") + item
                    out += bytes.fromhex("FEFF0DE000000000")
                out += bytes.fromhex("FEFFDDE000000000")
            else:
                body = b"".join(bytes.fromhex("FEFF00E0")
                                + struct.pack("<I", len(item)) + item
                                for item in items)
                out += struct.pack("<I", len(body)) + body
        else:
            header = 12 if element.vr in LONG_FORM_VRS else 8
            value = encode_dataset(DataSet([element]))[header:]
            out += struct.pack("<I", len(value)) + value
    return bytes(out)


# SHA-256 of write_part10(golden_sr()), taken before the codec fast path.
GOLDEN_SR_SHA256 = (
    "820d0600dfcd3627d107f5ce9c202764"
    "63b855537b5e4a7de8db0ceaf540f770"
)


class TestGoldenBytes:
    """Encoded SR bytes are pinned: a change to them must be deliberate."""

    @pytest.fixture(autouse=True)
    def fixed_time(self, monkeypatch):
        def fixed_timestamp(target):
            target.put("ContentDate", "20240102")
            target.put("ContentTime", "101500")

        monkeypatch.setattr(sr_document, "content_timestamp", fixed_timestamp)

    def test_sr_sha256(self):
        ds = golden_sr()
        blob = write_part10(file_meta_for(ds), ds)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SR_SHA256
        assert read_part10(blob)[1] == ds

    def test_implicit_stream_re_encodes_to_explicit_bytes(self):
        ds = golden_sr()
        explicit = encode_dataset(ds)
        stream = implicit_stream(ds)
        assert stream != explicit
        assert encode_dataset(decode_dataset(stream, IMPLICIT_VR_LITTLE_ENDIAN)) == explicit



# -- shared items on decode ---------------------------------------------------


def defined_chain(levels: int, leaf: DataSet) -> DataSet:
    """`leaf` inside `levels` nested ReferencedSeriesSequence items; encoded,
    every sequence and item has a defined length."""
    ds = leaf
    for _ in range(levels):
        outer = DataSet()
        outer.put("ReferencedSeriesSequence", (ds,))
        ds = outer
    return ds


def concepts_of(doc) -> list:
    """Every concept of an SR tree: names, code values, units, qualifiers."""
    out = []
    for item in doc.tree.iter():
        out += [getattr(item, a, None) for a in ("name", "unit", "qualifier")]
        if isinstance(getattr(item, "value", None), CodedConcept):
            out.append(item.value)
    return [c for c in out if c is not None]


class TestSharedDecode:
    """The decoder builds one data set per distinct defined-length item
    (same bytes, same depth) and reuses it for every repeat."""

    def test_equal_code_items_decode_to_one_object(self):
        blob = encode_dataset(golden_sr())
        ds = decode_dataset(blob)
        assert encode_dataset(ds) == blob
        code_items = [i for i in item_occurrences(ds) if "CodingSchemeDesignator" in i]
        ids_by_bytes = {}
        for item in code_items:
            ids_by_bytes.setdefault(encode_dataset(item), set()).add(id(item))
        assert all(len(ids) == 1 for ids in ids_by_bytes.values())
        assert len(code_items) > 10 * len(ids_by_bytes)

    def test_equal_nested_elements_decode_to_one_object(self):
        ds = decode_dataset(encode_dataset(golden_sr()))
        nested = [e for item in item_occurrences(ds) for e in item if e.vr is not VR.SQ]
        ids_by_bytes = {}
        for element in nested:
            ids_by_bytes.setdefault(encode_dataset(DataSet([element])), set()).add(id(element))
        assert all(len(ids) == 1 for ids in ids_by_bytes.values())
        assert len({id(e) for e in nested}) == len(ids_by_bytes)
        assert len(nested) > 4 * len(ids_by_bytes)

    def test_top_level_elements_are_never_shared(self):
        # PatientID at the top level, and in items of a sequence that sorts
        # before it and of one that sorts after it; the items differ
        def item(number):
            return DataSet.of(PatientID="ID1", InstanceNumber=number)

        root = DataSet.of(PatientID="ID1")
        root.put("ReferencedSeriesSequence", (item(1), item(2)))
        root.put("ContentSequence", (item(3),))
        ds = decode_dataset(encode_dataset(root))
        nested = [i.element("PatientID") for i in item_occurrences(ds)]
        assert len(nested) == 3 and len({id(e) for e in nested}) == 1
        assert ds.element("PatientID") == nested[0]
        assert ds.element("PatientID") is not nested[0]

    def test_open_sr_builds_one_concept_per_code_item(self):
        doc = open_sr(decode_dataset(encode_dataset(golden_sr())))
        ids_by_code = {}
        for concept in concepts_of(doc):
            key = (concept.value, concept.scheme, concept.meaning, concept.version)
            ids_by_code.setdefault(key, set()).add(id(concept))
        assert all(len(ids) == 1 for ids in ids_by_code.values())
        assert len(concepts_of(doc)) > 10 * len(ids_by_code)

    def test_item_met_again_past_the_nesting_limit_still_raises(self):
        leaf = DataSet([lo_element("ID1")])
        shared = defined_chain(40, leaf)  # 40 sequences deep inside
        root = DataSet()
        root.put("ReferencedSeriesSequence", (shared,))  # first at depth 1
        depth = 30  # of the second copy's item
        root.put("ContentSequence", (defined_chain(depth - 1, shared),))
        blob = encode_dataset(root)
        shallow_only = DataSet()
        shallow_only.put("ReferencedSeriesSequence", (shared,))
        decode_dataset(encode_dataset(shallow_only))  # decodes at depth 1
        with pytest.raises(DecodeError) as excinfo:
            decode_dataset(blob)
        # the copy's sequences start 20 bytes apart (sequence and item
        # headers), its first at `depth`; the one at MAX_NESTING is rejected
        start = blob.rindex(encode_dataset(shared))
        assert excinfo.value.offset == start + 20 * (MAX_NESTING - depth)
        assert f"deeper than {MAX_NESTING}" in str(excinfo.value)

    def test_deep_large_value_is_not_copied_per_level(self):
        value = bytes(1 << 20)
        leaf = DataSet([DataElement(Tag(0x7FE0, 0x0010), VR.OB, value)])
        blob = encode_dataset(defined_chain(60, leaf))
        tracemalloc.start()
        try:
            ds = decode_dataset(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for _ in range(60):
            [ds] = ds.items_of("ReferencedSeriesSequence")
        assert ds.value(Tag(0x7FE0, 0x0010)) == value
        assert peak < 3 << 20

    def test_decoded_data_set_holds_no_reference_to_the_input(self):
        ds = golden_sr(8)
        blob = write_part10(file_meta_for(ds), ds)
        before = sys.getrefcount(blob)
        meta, decoded = read_part10(blob)
        assert sys.getrefcount(blob) == before
        assert decoded == ds

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_buffers_decode_like_bytes(self, kind):
        ds = golden_sr(2)
        blob = write_part10(file_meta_for(ds), ds)
        assert read_part10(kind(blob)) == read_part10(blob)
        stream = encode_dataset(ds)
        assert decode_dataset(kind(stream)) == ds

    def test_undefined_length_items_are_decoded_one_by_one(self):
        leaf = bytes.fromhex("1000200004000000") + b"ID1 "  # implicit VR
        undefined = bytes.fromhex("FEFF00E0FFFFFFFF") + leaf + bytes.fromhex("FEFF0DE000000000")
        defined = bytes.fromhex("FEFF00E0") + struct.pack("<I", len(leaf)) + leaf
        stream = (bytes.fromhex("08001511FFFFFFFF") + undefined * 2 + defined * 2
                  + bytes.fromhex("FEFFDDE000000000"))
        items = decode_dataset(stream, IMPLICIT_VR_LITTLE_ENDIAN).items_of(
            "ReferencedSeriesSequence")
        assert [item.value("PatientID") for item in items] == ["ID1"] * 4
        assert items[0] is not items[1]
        assert items[2] is items[3]
        assert items[0] is not items[2]


# -- hostile input ------------------------------------------------------------


def nested_sequences(depth: int, implicit: bool = False) -> bytes:
    """`depth` undefined-length sequences, each holding one item, around a
    PatientID element."""
    sq = bytes.fromhex("08001511") + (b"" if implicit else b"SQ\x00\x00")
    opening = sq + bytes.fromhex("FFFFFFFF" "FEFF00E0FFFFFFFF")
    closing = bytes.fromhex("FEFF0DE000000000" "FEFFDDE000000000")
    leaf = (bytes.fromhex("1000200004000000") + b"ID1 " if implicit
            else PATIENT_ID_STREAM)
    return opening * depth + leaf + closing * depth


class TestNestingLimit:
    @pytest.mark.parametrize("implicit", [False, True], ids=["explicit", "implicit"])
    def test_deep_nesting_raises_decode_error(self, implicit):
        syntax = IMPLICIT_VR_LITTLE_ENDIAN if implicit else EXPLICIT_VR_LITTLE_ENDIAN
        with pytest.raises(DecodeError) as excinfo:
            decode_dataset(nested_sequences(3000, implicit), syntax)
        header = 16 if implicit else 20  # sequence header + item header
        assert excinfo.value.offset == header * MAX_NESTING
        assert f"deeper than {MAX_NESTING}" in str(excinfo.value)

    def test_nesting_at_the_limit_decodes(self):
        ds = decode_dataset(nested_sequences(MAX_NESTING))
        for _ in range(MAX_NESTING):
            [ds] = ds.items_of("ReferencedSeriesSequence")
        assert ds.value("PatientID") == "ID1"

    def test_deep_part10_file_fails_validation_in_cli(self, tmp_path, capsys):
        from dicomforge.cli import main

        head = write_part10(FileMeta("1.2", "1.3"), DataSet())
        path = tmp_path / "deep.dcm"
        path.write_bytes(head + nested_sequences(3000))
        assert main(["validate", str(path)]) == 1
        assert "deeper than" in capsys.readouterr().err


def test_part10_decode_error_offset_counts_from_file_start():
    ds = DataSet([lo_element("ID1")])
    ds.put("SOPClassUID", "1.2")
    ds.put("SOPInstanceUID", "1.3")
    blob = write_part10(file_meta_for(ds), ds)
    with pytest.raises(DecodeError) as excinfo:
        read_part10(blob[:-2])
    assert excinfo.value.offset == len(blob) - 4  # where "ID1 " starts


def implicit_part10(ds: DataSet) -> bytes:
    meta = FileMeta(ds.value("SOPClassUID"), ds.value("SOPInstanceUID"),
                    transfer_syntax_uid=IMPLICIT_VR_LITTLE_ENDIAN)
    meta_bytes = encode_dataset(DataSet(_meta_elements(meta)))
    head = encode_dataset(
        DataSet([DataElement(Tag(0x0002, 0x0000), VR.UL, len(meta_bytes))])
    )
    return PREAMBLE + MAGIC + head + meta_bytes + implicit_stream(ds)


def _fuzz_streams() -> dict[str, bytes]:
    report = golden_sr(2)
    report.put("ContentDate", "20240102")
    report.put("ContentTime", "101500")
    every_vr = make_ct_source(study_uid="2.25.1", series_uid="2.25.2",
                              sop_uid="2.25.3", frame_of_reference_uid="2.25.4")
    every_vr.put("DimensionIndexPointer", [Tag(0x0062, 0x000B), Tag(0x0020, 0x9157)])
    every_vr.put("GraphicData", [1.5, -2.25])
    every_vr.put("ColumnPositionInTotalImagePixelMatrix", -12)
    every_vr.put("PixelData", bytes(range(16)))
    return {
        "sr-explicit": write_part10(file_meta_for(report), report),
        "sr-implicit": implicit_part10(report),
        "ct-explicit": write_part10(file_meta_for(every_vr), every_vr),
        "ct-implicit": implicit_part10(every_vr),
    }


FUZZ_STREAMS = _fuzz_streams()
# Four-byte words that steer a decoder into its rarer paths.
FUZZ_WORDS = [b"\xff\xff\xff\xff", b"\xfe\xff\x00\xe0", b"\xfe\xff\x0d\xe0",
              b"\xfe\xff\xdd\xe0", b"SQ\x00\x00", b"\x00\x00\x00\x00"]


def mutated_stream(name: str, data) -> bytes:
    """FUZZ_STREAMS[name] truncated, bit-flipped, spliced with another
    stream or overwritten with a FUZZ_WORDS word, as `data` draws."""
    stream = bytearray(FUZZ_STREAMS[name])
    position = st.integers(0, len(stream) - 1)
    kind = data.draw(st.sampled_from(["truncate", "flip", "splice", "word"]))
    if kind == "truncate":
        del stream[data.draw(position):]
    elif kind == "flip":
        flips = data.draw(st.lists(st.tuples(position, st.integers(0, 7)),
                                   min_size=1, max_size=8))
        for at, bit in flips:
            stream[at] ^= 1 << bit
    elif kind == "splice":
        donor = FUZZ_STREAMS[data.draw(st.sampled_from(sorted(FUZZ_STREAMS)))]
        start = data.draw(st.integers(0, len(donor)))
        at = data.draw(position)
        cut = data.draw(st.integers(0, 64))
        stream[at:at + cut] = donor[start:start + data.draw(st.integers(0, 64))]
    else:
        at = data.draw(position)
        stream[at:at + 4] = data.draw(st.sampled_from(FUZZ_WORDS))
    return bytes(stream)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FUZZ_STREAMS)), st.data())
def test_mutated_part10_raises_only_dicomforge_errors(name, data):
    """Truncated, bit-flipped and spliced streams decode or raise a
    DicomforgeError; never a struct, index, value or recursion error."""
    try:
        read_part10(mutated_stream(name, data))
    except DicomforgeError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FUZZ_STREAMS)), st.data())
def test_mutated_part10_decodes_alike_with_and_without_the_memo(name, data):
    """Sharing decoded items and elements changes no outcome: a mutated
    stream decodes to the same meta and data set (compared by encoding, so
    a NaN compares equal), or fails with the same error, message and
    offset, as with MEMO_MAX_ITEM at 0, where no element and only empty
    items enter the memo."""
    stream = mutated_stream(name, data)
    shared = _decode_outcome(stream)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "MEMO_MAX_ITEM", 0)
        unshared = _decode_outcome(stream)
    assert shared == unshared


def _decode_outcome(stream: bytes) -> str:
    """What decoding `stream` gives: the error class, message and offset, or
    the SHA-256 of the file meta and the re-encoded data set."""
    try:
        meta, ds = read_part10(stream)
        body = encode_dataset(ds)
    except DicomforgeError as exc:
        return f"{type(exc).__name__} {exc} @{getattr(exc, 'offset', None)}"
    return hashlib.sha256(repr(meta).encode() + body).hexdigest()


def mutation_outcomes(per_stream: int = 300) -> list[str]:
    """One outcome per seeded mutation of each FUZZ_STREAMS entry: a
    FUZZ_WORDS word written over the stream, or a truncation."""
    rng = random.Random(2024)
    outcomes = []
    for name in sorted(FUZZ_STREAMS):
        original = FUZZ_STREAMS[name]
        for _ in range(per_stream):
            stream = bytearray(original)
            at = rng.randrange(len(stream))
            if rng.random() < 0.2:
                del stream[at:]
            else:
                stream[at:at + 4] = rng.choice(FUZZ_WORDS)
            outcomes.append(f"{name} {_decode_outcome(bytes(stream))}")
    return outcomes


# SHA-256 of mutation_outcomes(), taken before the decoder shared items.
MUTATION_OUTCOMES_SHA256 = (
    "f7f5328c34b47dd23e5c1121847c988c"
    "6143b82ac6958bcd998ac8a26541c6b4"
)


def test_mutation_outcomes_pinned():
    """Every seeded mutation decodes to the same data set or fails with the
    same error, message and offset as when the outcomes were pinned."""
    digest = hashlib.sha256("\n".join(mutation_outcomes()).encode()).hexdigest()
    assert digest == MUTATION_OUTCOMES_SHA256
