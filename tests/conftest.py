"""Shared fixtures: synthetic datasets that stand in for acquired images."""
import os
import random

import numpy as np
import pytest
from hypothesis import settings

from dicomforge.dataset import DataElement, DataSet
from dicomforge.tags import Tag
from dicomforge.uid import CT_IMAGE_STORAGE, new_uid
from dicomforge.valuerep import VR

# CI runs the same Hypothesis examples on every push.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def all_vr_dataset() -> DataSet:
    """One element of every supported VR (SQ nested two levels)."""
    inner = DataSet()
    inner.put("PatientID", "NESTED")
    ds = DataSet()
    ds.put("SpecificCharacterSet", "ISO_IR 192")            # CS
    ds.put("StudyDate", "20240131")                          # DA
    ds.put("ContentTime", "120000")                          # TM
    ds.put("VerificationDateTime", "20240131120000")         # DT
    ds.put("AccessionNumber", "ACC42")                       # SH
    ds.put("Manufacturer", "forge")                          # LO
    ds.put("PatientName", "Doe^Jane")                        # PN
    ds.put("SOPInstanceUID", "1.2.840.99.1")                 # UI
    ds.put("SeriesNumber", 7)                                # IS
    ds.put("ImagePositionPatient", ["1.5", "-3", "0.25"])    # DS
    ds.put("Rows", 512)                                      # US
    ds.put("DimensionIndexValues", [1, 2])                   # UL
    ds.put("ColumnPositionInTotalImagePixelMatrix", -12)     # SL
    ds.put("GraphicData", [1.5, 2.25, -3.75])                # FL
    ds.put(Tag(0x0018, 0x9310), 0.125, vr=VR.FD)             # FD
    ds.put(Tag(0x0018, 0x9311), -2, vr=VR.SS)                # SS
    ds.put("DimensionIndexPointer", [Tag(0x0062, 0x000B)])   # AT
    ds.put("TextValue", "free text, even w/ \\ backslash")   # UT
    ds.put("SegmentDescription", "short text")               # ST
    ds.put(Tag(0x0008, 0x0119), "X" * 20, vr=VR.UC)          # UC
    ds.put("RetrieveURL", "http://example.org/studies/1.2")  # UR
    ds.put(Tag(0x0010, 0x1010), "045Y", vr=VR.AS)            # AS
    ds.put(Tag(0x0008, 0x0054), "STORESCP", vr=VR.AE)        # AE
    ds.put("PixelData", b"\x01\x02\x03")                     # OB (padded)
    ds.put(Tag(0x7FE0, 0x0009), b"\x01\x02\x03\x04\x05\x06\x07\x08", vr=VR.OD)
    ds.put(Tag(0x7FE0, 0x0008), b"\x01\x02\x03\x04", vr=VR.OF)
    ds.put(Tag(0x5400, 0x1010), b"\xAA\xBB", vr=VR.OW)
    ds.put(Tag(0x0009, 0x0001), b"??", vr=VR.UN)
    ds.put("ReferencedSeriesSequence", (inner,))             # SQ
    return ds


def make_ct_source(
    *,
    study_uid=None,
    series_uid=None,
    sop_uid=None,
    patient_id="PAT-001",
    patient_name="Doe^Jane",
    rows=16,
    cols=16,
    position=(0.0, 0.0, 0.0),
    orientation=(1, 0, 0, 0, 1, 0),
    spacing=(1.0, 1.0),
    frame_of_reference_uid=None,
    instance_number=1,
) -> DataSet:
    """A minimal CT-like single-frame source instance."""
    ds = DataSet()
    ds.put("SpecificCharacterSet", "ISO_IR 192")
    ds.put("SOPClassUID", CT_IMAGE_STORAGE)
    ds.put("SOPInstanceUID", sop_uid or new_uid())
    ds.put("Modality", "CT")
    ds.put("StudyDate", "20240102")
    ds.put("StudyTime", "101500")
    ds.put("AccessionNumber", "ACC123")
    ds.put("ReferringPhysicianName", "Ref^Phys")
    ds.put("PatientName", patient_name)
    ds.put("PatientID", patient_id)
    ds.put("PatientBirthDate", "19700101")
    ds.put("PatientSex", "F")
    ds.put("StudyInstanceUID", study_uid or new_uid())
    ds.put("SeriesInstanceUID", series_uid or new_uid())
    ds.put("StudyID", "S1")
    ds.put("SeriesNumber", 1)
    ds.put("InstanceNumber", instance_number)
    ds.put("FrameOfReferenceUID", frame_of_reference_uid or new_uid())
    ds.put("Rows", rows)
    ds.put("Columns", cols)
    ds.put("PixelSpacing", [str(spacing[0]), str(spacing[1])])
    ds.put("ImagePositionPatient", [str(c) for c in position])
    ds.put("ImageOrientationPatient", [str(c) for c in orientation])
    return ds


def make_ct_series(n_frames, rows=16, cols=16, spacing=(1.0, 1.0), **kwargs):
    """A stack of `n_frames` CT sources sharing study/series/frame of reference."""
    study_uid = kwargs.pop("study_uid", new_uid())
    series_uid = new_uid()
    for_uid = new_uid()
    return [
        make_ct_source(
            study_uid=study_uid,
            series_uid=series_uid,
            frame_of_reference_uid=for_uid,
            rows=rows,
            cols=cols,
            spacing=spacing,
            position=(0.0, 0.0, 2.5 * i),
            instance_number=i + 1,
            **kwargs,
        )
        for i in range(n_frames)
    ]


@pytest.fixture
def ct_source():
    return make_ct_source()


@pytest.fixture
def ct_series():
    return make_ct_series(3)


@pytest.fixture
def rng():
    return random.Random(20240804)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240804)
