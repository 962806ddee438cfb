"""SOP references in derived objects: golden bytes over two interleaved
series, and the references read back from them."""
import hashlib

import numpy as np
import pytest

from conftest import make_ct_source
from dicomforge import seg as seg_module
from dicomforge.coding import DCM, SCT, UCUM
from dicomforge.part10 import file_meta_for, read_part10, write_part10
from dicomforge.seg import (
    AlgorithmType,
    SegmentDescription,
    SegmentationType,
    create_seg,
    open_seg,
)
from dicomforge.sr import (
    CompositeItem,
    ContainerItem,
    DocumentReference,
    EvidenceReference,
    ImageItem,
    ImageReference,
    NumItem,
    ObserverContext,
    RelationshipType,
    ScoordItem,
    SegmentReference,
    SRKind,
    SRMeta,
    TrackingIdentifier,
    VerificationFlag,
    create_sr,
    measurement_group,
    measurement_report,
    open_sr,
    planar_roi_group,
    volumetric_roi_group,
)
from dicomforge.sr import document as sr_document
from dicomforge.sr.items import AlgorithmIdentification
from dicomforge.uid import SEGMENTATION_STORAGE

STUDY = "2.25.10"
SERIES = ("2.25.20", "2.25.21")
SEG_SERIES, SEG_SOP = "2.25.60", "2.25.61"
PREDECESSORS = (
    DocumentReference(STUDY, "2.25.70", "2.25.71"),
    DocumentReference(STUDY, "2.25.70", "2.25.72"),
)


def interleaved_sources():
    """Four 6x5 CT slices, alternating between two series of one study."""
    return [
        make_ct_source(study_uid=STUDY, series_uid=SERIES[i % 2],
                       sop_uid=f"2.25.{100 + i}", frame_of_reference_uid="2.25.30",
                       rows=6, cols=5, position=(0.0, 0.0, 2.5 * i),
                       instance_number=i + 1)
        for i in range(4)
    ]


def build_seg(sources):
    rng = np.random.default_rng(7806)
    masks = [rng.random((4, 6, 5)) < 0.5, np.zeros((4, 6, 5), np.uint8)]
    masks[1][2, 1:4, 1:3] = 1
    descriptions = [
        SegmentDescription(
            number=n, label=f"Nodule {n}",
            category=SCT.MorphologicallyAbnormalStructure, property_type=SCT.Nodule,
            algorithm_type=AlgorithmType.AUTOMATIC,
            algorithm=AlgorithmIdentification("segnet", "1.0"),
            tracking=TrackingIdentifier(f"2.25.{40 + n}", f"N{n}"),
        )
        for n in (1, 2)
    ]
    return create_seg(sources, masks, descriptions, SegmentationType.binary(),
                      series_instance_uid=SEG_SERIES, sop_instance_uid=SEG_SOP)


def build_sr(sources, seg):
    """Planar, SEG-referenced volumetric and frame-level image groups, with
    two predecessors, verified."""
    source = ImageItem(DCM.SourceOfMeasurement, sources[1].value("SOPClassUID"),
                       sources[1].value("SOPInstanceUID"),
                       relationship=RelationshipType.SELECTED_FROM)
    outline = ScoordItem(None, "POLYLINE", [(1, 1), (4, 1), (4, 3), (1, 1)],
                         children=[source])
    groups = [
        planar_roi_group(TrackingIdentifier("2.25.81", "ROI 1"), outline, SCT.Nodule,
                         measurements=[NumItem(SCT.Diameter, "3.5", UCUM.mm)]),
        volumetric_roi_group(TrackingIdentifier("2.25.82", "ROI 2"),
                             SegmentReference(SEG_SOP, 2), SCT.Nodule,
                             finding_sites=[SCT.Lung],
                             measurements=[NumItem(SCT.Volume, "12.5", UCUM.mm3)]),
        measurement_group(TrackingIdentifier("2.25.83", "Study"), SCT.Nodule,
                          referenced_images=[ImageReference(
                              sources[2].value("SOPClassUID"),
                              sources[2].value("SOPInstanceUID"),
                              frame_numbers=(1,),
                          )]),
    ]
    observer = ObserverContext.device(name="detector", uid="2.25.50", version="1.0")
    tree = measurement_report(observer, SCT.ImagingProcedure, groups)
    library = ContainerItem(DCM.ImageLibrary, relationship=RelationshipType.CONTAINS,
                            children=[CompositeItem(
                                DCM.SourceOfMeasurement, SEGMENTATION_STORAGE, SEG_SOP,
                                relationship=RelationshipType.CONTAINS)])
    tree = tree.with_children(library if child.name == DCM.ImageLibrary else child
                              for child in tree.children)
    meta = SRMeta(series_instance_uid="2.25.90", sop_instance_uid="2.25.91",
                  verification=VerificationFlag.VERIFIED,
                  verifying_observer_name="Doe^John",
                  verifying_organization="Reading Room",
                  predecessors=PREDECESSORS)
    evidence = [sources[0], sources[1], seg, sources[2], sources[3]]
    return create_sr(SRKind.COMPREHENSIVE, evidence, tree, meta)


SEG_SHA256 = (
    "4239915c3e4093800b1be1282961698c"
    "5b0baecb94409eb7526200ed68ee9414"
)
SR_SHA256 = (
    "b015acae9e6854334eae4e896d72e997"
    "67e07ac750da1efeb60474aaf0ed3e5c"
)


class TestGoldenReferences:
    """SEG and SR bytes over two interleaved series are pinned."""

    @pytest.fixture(autouse=True)
    def fixed_uids_and_time(self, monkeypatch):
        def fixed_timestamp(target):
            target.put("ContentDate", "20240102")
            target.put("ContentTime", "101500")

        monkeypatch.setattr(seg_module, "new_uid", lambda: "2.25.99")
        monkeypatch.setattr(seg_module, "content_timestamp", fixed_timestamp)
        monkeypatch.setattr(sr_document, "content_timestamp", fixed_timestamp)

    @pytest.fixture
    def blobs(self):
        sources = interleaved_sources()
        seg = build_seg(sources)
        sr = build_sr(sources, seg)
        return (write_part10(file_meta_for(seg), seg),
                write_part10(file_meta_for(sr), sr))

    def test_sha256(self, blobs):
        seg_blob, sr_blob = blobs
        assert hashlib.sha256(seg_blob).hexdigest() == SEG_SHA256
        assert hashlib.sha256(sr_blob).hexdigest() == SR_SHA256

    def test_references_read_back(self, blobs):
        seg_blob, sr_blob = blobs
        uids = [f"2.25.{100 + i}" for i in range(4)]
        seg = open_seg(read_part10(seg_blob)[1])
        # root references are grouped by series, each in first-seen order
        assert seg.source_frame_keys() == [(uids[i], 1) for i in (0, 2, 1, 3)]
        assert [f.source_sop_instance_uid for f in seg.frames][-1] == uids[2]
        doc = open_sr(read_part10(sr_blob)[1])
        assert doc.predecessors == PREDECESSORS
        ct = make_ct_source().value("SOPClassUID")
        assert doc.evidence == (
            EvidenceReference(STUDY, SERIES[0], ct, uids[0]),
            EvidenceReference(STUDY, SERIES[0], ct, uids[2]),
            EvidenceReference(STUDY, SERIES[1], ct, uids[1]),
            EvidenceReference(STUDY, SERIES[1], ct, uids[3]),
            EvidenceReference(STUDY, SEG_SERIES, SEGMENTATION_STORAGE, SEG_SOP),
        )
        planar, volumetric, image = doc.measurement_groups()
        assert planar.geometry().source.sop_instance_uid == uids[1]
        assert volumetric.geometry().segment_number == 2
        [reference] = image.container.find(value_type="IMAGE")
        assert (reference.sop_instance_uid, reference.frame_numbers) == (uids[2], (1,))
