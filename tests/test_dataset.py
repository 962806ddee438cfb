"""Data-set model semantics: normalization, ordering, accessors."""
import pytest
from hypothesis import given, settings, strategies as st

from dicomforge.codec import decode_dataset, encode_dataset
from dicomforge.dataset import DataElement, DataSet, copy_attributes
from dicomforge.errors import DicomforgeError, NotASequenceError
from dicomforge.tags import Tag, resolve_key
from dicomforge.valuerep import VR, format_ds, is_valid_ds


class TestNormalization:
    def test_bytes_padded_even_at_construction(self):
        element = DataElement(Tag(0x7FE0, 0x0010), VR.OB, b"\x01\x02\x03")
        assert element.raw == b"\x01\x02\x03\x00"

    def test_ds_from_float_formats_to_16_chars(self):
        element = DataElement(Tag(0x0020, 0x0032), VR.DS, [1 / 3])
        assert len(element.value) <= 16
        assert is_valid_ds(element.value)

    def test_ds_bad_string_rejected(self):
        with pytest.raises(ValueError):
            DataElement(Tag(0x0020, 0x0032), VR.DS, "not-a-number")
        with pytest.raises(ValueError):
            DataElement(Tag(0x0020, 0x0032), VR.DS, "1" * 17)

    def test_fl_quantized_to_float32(self):
        element = DataElement(Tag(0x0070, 0x0022), VR.FL, [0.1])
        assert element.value != 0.1  # 0.1 is not float32-representable
        import struct
        assert struct.unpack("<f", struct.pack("<f", 0.1))[0] == element.value

    def test_backslash_rejected_in_multi_valued_text(self):
        with pytest.raises(ValueError):
            DataElement(Tag(0x0010, 0x0020), VR.LO, "a\\b")

    def test_multi_values(self):
        element = DataElement(Tag(0x0008, 0x0008), VR.CS, ["DERIVED", "PRIMARY"])
        assert element.values == ("DERIVED", "PRIMARY")
        assert element.value == "DERIVED"

    def test_sequence_items_must_be_datasets(self):
        with pytest.raises(TypeError):
            DataElement(Tag(0x0008, 0x1115), VR.SQ, ("nope",))


class TestDataSet:
    def test_iteration_ascending(self):
        ds = DataSet()
        ds.put("PatientID", "x")
        ds.put("SOPInstanceUID", "1.2")
        ds.put("Modality", "CT")
        assert [e.tag for e in ds] == sorted(e.tag for e in ds)

    def test_items_of_another_vr_raises(self):
        ds = DataSet()
        ds.put("ContentSequence", "text", vr="UT")
        with pytest.raises(NotASequenceError, match="UT, not a sequence") as info:
            ds.items_of("ContentSequence")
        assert isinstance(info.value, DicomforgeError)
        assert isinstance(info.value, TypeError)

    def test_one_element_per_tag(self):
        ds = DataSet()
        ds.put("PatientID", "first")
        ds.put("PatientID", "second")
        assert len(ds) == 1
        assert ds.value("PatientID") == "second"

    def test_key_resolution_forms(self):
        assert resolve_key("PatientID") == Tag(0x0010, 0x0020)
        assert resolve_key("00100020") == Tag(0x0010, 0x0020)
        assert resolve_key("0010,0020") == Tag(0x0010, 0x0020)
        assert resolve_key((0x0010, 0x0020)) == Tag(0x0010, 0x0020)
        with pytest.raises(KeyError):
            resolve_key("NotAKeyword")

    def test_value_accessors(self):
        ds = DataSet()
        ds.put("ImagePositionPatient", ["1.5", "2", "-3"])
        assert ds.floats("ImagePositionPatient") == (1.5, 2.0, -3.0)
        assert ds.value("PatientID", "fallback") == "fallback"
        assert ds.values("PatientID") == ()

    def test_copy_attributes(self):
        src = DataSet()
        src.put("PatientID", "P1")
        src.put("StudyDate", "20240101")
        dst = DataSet()
        copy_attributes(src, dst, ["PatientID", "StudyDate", "PatientName"])
        assert dst.value("PatientID") == "P1"
        assert "PatientName" not in dst

    def test_private_tags_accepted_on_read(self):
        # odd-group element, explicit VR: readable even though never emitted
        stream = bytes.fromhex("09001000") + b"LO" + bytes.fromhex("0400") + b"priv"
        ds = decode_dataset(stream)
        element = ds[Tag(0x0009, 0x0010)]
        assert element.tag.is_private
        assert element.value == "priv"
        assert encode_dataset(ds) == stream  # re-encoding a read file keeps them


class TestFormatDs:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300)
    def test_format_ds_fits_and_parses(self, value):
        text = format_ds(value)
        assert len(text) <= 16
        assert is_valid_ds(text)
        parsed = float(text)
        assert parsed == parsed and abs(parsed) != float("inf")
        if value != 0:
            assert abs(parsed - value) <= abs(value) * 1e-6
