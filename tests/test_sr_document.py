"""SR document creation/parsing: evidence, metadata copy, group filtering."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_ct_series, make_ct_source
from dicomforge.codec import decode_dataset, encode_dataset
from dicomforge.coding import DCM, SCT, UCUM, CodedConcept, concept_to_items
from dicomforge.dataset import DataSet
from dicomforge.errors import (
    DicomforgeError,
    EvidenceError,
    MissingContentError,
    NoGeometryError,
    TemplateViolationError,
    ValueTypeForbiddenError,
    WrongSopClassError,
)
from dicomforge.sr import (
    CodeItem,
    GroupKind,
    ImageItem,
    ImageReference,
    NumItem,
    ObserverContext,
    RelationshipType,
    ScoordItem,
    Scoord3DItem,
    SegmentReference,
    SegmentRegion,
    SRKind,
    SRMeta,
    TrackingIdentifier,
    VerificationFlag,
    WorldRegion,
    create_sr,
    measurement_group,
    measurement_report,
    open_sr,
    planar_roi_group,
    volumetric_roi_group,
)
from dicomforge.uid import COMPREHENSIVE_3D_SR_STORAGE, new_uid
from dicomforge.valuerep import VR
from test_codec import golden_sr

OBSERVER = ObserverContext.device(name="detector", version="1.0")


def polygon(for_uid, offset=0.0):
    pts = [
        (0, 0, offset), (10, 0, offset), (10, 10, offset), (0, 10, offset),
        (0, 0, offset),
    ]
    return Scoord3DItem(None, "POLYGON", pts, for_uid)


# The flat GraphicData of polygon(for_uid): a closed square of five points.
SQUARE = [0, 0, 0, 10, 0, 0, 10, 10, 0, 0, 10, 0, 0, 0, 0]


def nodule_report(evidence, n_groups=1, finding=None):
    for_uid = evidence[0].value("FrameOfReferenceUID")
    groups = []
    for i in range(n_groups):
        groups.append(planar_roi_group(
            TrackingIdentifier.generate(f"Nodule {i + 1}"),
            polygon(for_uid, offset=float(i)),
            finding or SCT.Nodule,
            finding_sites=[SCT.Lung],
            measurements=[NumItem(SCT.Diameter, f"{7.5 + i}", UCUM.mm)],
        ))
    return measurement_report(OBSERVER, SCT.ImagingProcedure, groups)


def first_item(ds, value_type):
    """The first content item of `value_type` in document order."""
    for item in ds.items_of("ContentSequence"):
        if item.value("ValueType") == value_type:
            return item
        found = first_item(item, value_type)
        if found is not None:
            return found
    return None


@functools.cache
def golden_sr_bytes() -> bytes:
    return encode_dataset(golden_sr(2))


def content_items(ds):
    """Every content item under `ds`, in document order."""
    for item in ds.items_of("ContentSequence"):
        yield item
        yield from content_items(item)


# Values a foreign SR might hold in place of one attribute, by VR: sequences
# of empty items, a code item or a leaf content item; any 32-bit floats; any
# integers; and any text for the text VRs, the other VRs an SR holds.
FOREIGN_ITEMS = [
    DataSet(),
    DataSet.of(CodeValue="1", CodingSchemeDesignator="99X", CodeMeaning="x"),
    DataSet.of(RelationshipType="CONTAINS", ValueType="TEXT", TextValue="x"),
]
FOREIGN_TEXT = st.text(st.characters(blacklist_characters="\\"), max_size=24)
FOREIGN_VALUES = {
    VR.SQ: st.lists(st.sampled_from(FOREIGN_ITEMS), max_size=2),
    VR.FL: st.lists(st.floats(width=32), max_size=13),
    VR.IS: st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1), max_size=2),
}


class TestCreate:
    def test_patient_id_copied_from_evidence(self, ct_series):
        tree = nodule_report(ct_series)
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        assert ds.value("PatientID") == "PAT-001"
        assert ds.value("StudyInstanceUID") == ct_series[0].value("StudyInstanceUID")
        assert ds.value("Modality") == "SR"
        assert ds.value("SOPClassUID") == COMPREHENSIVE_3D_SR_STORAGE

    def test_evidence_grouped_by_study_and_series(self):
        a = make_ct_series(2)
        study_uid = a[0].value("StudyInstanceUID")
        b = make_ct_source(study_uid=study_uid)
        evidence = [*a, b]  # 2 series, 3 instances, 1 study
        ds = create_sr(SRKind.COMPREHENSIVE_3D, evidence, nodule_report(a))
        [study_item] = ds.items_of("CurrentRequestedProcedureEvidenceSequence")
        series_items = study_item.items_of("ReferencedSeriesSequence")
        assert len(series_items) == 2
        total = sum(len(s.items_of("ReferencedSOPSequence")) for s in series_items)
        assert total == 3

    def test_scoord3d_forbidden_in_comprehensive(self, ct_series):
        tree = nodule_report(ct_series)
        with pytest.raises(ValueTypeForbiddenError):
            create_sr(SRKind.COMPREHENSIVE, ct_series, tree)

    def test_empty_evidence_rejected(self, ct_series):
        with pytest.raises(EvidenceError):
            create_sr(SRKind.COMPREHENSIVE_3D, [], nodule_report(ct_series))

    def test_mixed_study_evidence_rejected(self, ct_series):
        stray = make_ct_source()
        with pytest.raises(EvidenceError):
            create_sr(SRKind.COMPREHENSIVE_3D, [*ct_series, stray],
                      nodule_report(ct_series))

    def test_referenced_instance_must_be_evidence(self, ct_series):
        group = volumetric_roi_group(
            TrackingIdentifier.generate(),
            SegmentReference(new_uid(), 1),
            SCT.Nodule,
        )
        tree = measurement_report(OBSERVER, SCT.ImagingProcedure, [group])
        with pytest.raises(EvidenceError):
            create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)

    def test_non_report_tree_rejected(self, ct_series):
        group = measurement_group(TrackingIdentifier.generate(), SCT.Neoplasm)
        with pytest.raises(TemplateViolationError):
            create_sr(SRKind.COMPREHENSIVE_3D, ct_series, group)

    def test_flags_default_complete_unverified(self, ct_series):
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series))
        assert ds.value("CompletionFlag") == "COMPLETE"
        assert ds.value("VerificationFlag") == "UNVERIFIED"

    def test_verified_needs_observer(self):
        with pytest.raises(ValueError):
            SRMeta(verification=VerificationFlag.VERIFIED)

    def test_predecessor_references(self, ct_series):
        ref = (new_uid(), new_uid(), new_uid())
        meta = SRMeta(predecessors=(ref,))
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series,
                       nodule_report(ct_series), meta)
        doc = open_sr(ds)
        assert doc.predecessors[0].sop_instance_uid == ref[2]


class TestOpen:
    def test_round_trip_tree_equality(self, ct_series):
        tree = nodule_report(ct_series, n_groups=2)
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        reread = decode_dataset(encode_dataset(ds))
        doc = open_sr(reread)
        assert doc.tree == tree
        assert doc.kind is SRKind.COMPREHENSIVE_3D

    def test_decoded_repeats_are_one_item(self, ct_series):
        """The decoder shares the data set of a repeated content item, and
        the reader builds one item from it."""
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series, n_groups=3))
        groups = open_sr(decode_dataset(encode_dataset(ds))).measurement_groups()
        findings = [group.container.find(name=DCM.Finding)[0] for group in groups]
        assert len(findings) == 3
        assert findings[0] is findings[1] is findings[2]
        assert findings[0].relationship is RelationshipType.CONTAINS

    def test_data_set_read_as_content_item_and_code(self, ct_series):
        """A data set that a crafted file holds both as a content item and
        as a code item reads as both, whichever comes first."""
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series))
        shared = DataSet.of(CodeValue="126000", CodingSchemeDesignator="DCM",
                            CodeMeaning="Imaging Measurement Report",
                            RelationshipType="CONTAINS", ValueType="TEXT", TextValue="x")
        named = DataSet.of(RelationshipType="CONTAINS", ValueType="TEXT", TextValue="y",
                           ConceptNameCodeSequence=(shared,))
        ds.put("ConceptNameCodeSequence", (shared,))  # a code, then an item
        ds.put("ContentSequence", (*ds.items_of("ContentSequence"), shared, named))
        tree = open_sr(ds).tree  # named: an item, then a code
        assert tree.name == DCM.ImagingMeasurementReport
        assert [(item.value, item.name) for item in tree.children[-2:]] == [
            ("x", None), ("y", DCM.ImagingMeasurementReport)]

    def test_missing_content_sequence(self, ct_source):
        ds = DataSet()
        ds.put("SOPClassUID", COMPREHENSIVE_3D_SR_STORAGE)
        ds.put("SOPInstanceUID", new_uid())
        with pytest.raises(MissingContentError) as excinfo:
            open_sr(ds)
        assert "ContentSequence" in str(excinfo.value)

    def test_wrong_sop_class(self, ct_source):
        with pytest.raises(WrongSopClassError):
            open_sr(ct_source)

    @pytest.mark.parametrize("value_type, sequence", [
        ("IMAGE", "ReferencedSOPSequence"),
        ("CODE", "ConceptCodeSequence"),
    ])
    def test_item_without_required_sequence(self, ct_series, tmp_path, capsys,
                                            value_type, sequence):
        from dicomforge.cli import main
        from dicomforge.part10 import write_part10_file

        group = measurement_group(
            TrackingIdentifier.generate("whole image"), SCT.Nodule,
            referenced_images=[ImageReference(ct_series[0].value("SOPClassUID"),
                                              ct_series[0].value("SOPInstanceUID"))],
        )
        ds = create_sr(SRKind.COMPREHENSIVE, ct_series,
                       measurement_report(OBSERVER, SCT.ImagingProcedure, [group]))
        first_item(ds, value_type).remove(sequence)
        with pytest.raises(MissingContentError, match=sequence):
            open_sr(ds)
        path = tmp_path / "sr.dcm"
        write_part10_file(path, ds)
        for command in ("validate", "dump-sr"):
            assert main([command, str(path)]) == 1
            assert sequence in capsys.readouterr().err

    @pytest.mark.parametrize("value_type, corrupt, message", [
        ("CODE", lambda item: item.remove("ValueType"), "ValueType"),
        ("CODE", lambda item: item.put("ValueType", "SOUND"), "SOUND"),
        ("UIDREF", lambda item: item.put("UID", "1.2.abc"), "1.2.abc"),
        ("UIDREF", lambda item: item.remove("UID"), "UID"),
        ("SCOORD3D", lambda item: item.put("ReferencedFrameOfReferenceUID", "1.2.abc"),
         "1.2.abc"),
        ("SCOORD3D", lambda item: item.put("GraphicType", "CIRCLE"), "CIRCLE"),
        ("CODE", lambda item: item.put("RelationshipType", "LIKES"), "LIKES"),
        ("CONTAINER", lambda item: item.put("ContinuityOfContent", "SOMETIMES"),
         "SOMETIMES"),
        ("NUM", lambda item: item.items_of("MeasuredValueSequence")[0].remove(
            "NumericValue"), "NUM item .*decimal string"),
        ("CODE", lambda item: item.remove("RelationshipType"), "relationship"),
        ("CODE", lambda item: item.put("ConceptNameCodeSequence", "x", vr="UT"),
         "is UT, not a sequence"),
        ("SCOORD3D", lambda item: item.put("GraphicData", SQUARE[:-3] + [0, 10, 1]),
         "SCOORD3D item rejected: 3D POLYGON must be closed"),
        ("SCOORD3D", lambda item: item.put(
            "GraphicData", [np.nan, 0, 0] + SQUARE[3:-3] + [np.nan, 0, 0]),
         "SCOORD3D item rejected: 3D POLYGON must be closed"),
        ("SCOORD3D", lambda item: item.put("GraphicData", SQUARE[:6] + SQUARE[-3:]),
         "SCOORD3D item rejected: POLYGON requires at least 4 point"),
        ("SCOORD3D", lambda item: item.put("GraphicData", SQUARE + [0]),
         "SCOORD3D item rejected: .*divisible by 3"),
        ("NUM", lambda item: item.items_of("MeasuredValueSequence")[0].put(
            "MeasurementUnitsCodeSequence", (concept_to_items(SCT.Lung),)),
         "NUM item rejected: measurement units must be UCUM-coded"),
        # None: the document root
        (None, lambda root: root.put("CompletionFlag", "MAYBE"), "CompletionFlag 'MAYBE'"),
        (None, lambda root: root.put("VerificationFlag", "MAYBE"),
         "VerificationFlag 'MAYBE'"),
        (None, lambda root: root.put("RelationshipType", "LIKES"), "LIKES"),
    ], ids=["no value type", "unknown value type", "malformed uid", "no uid",
            "malformed frame of reference uid", "2d graphic type in 3d",
            "unknown relationship", "unknown continuity", "no numeric value",
            "child without relationship", "name sequence with another vr",
            "open polygon", "nan-ended polygon", "too few points",
            "coordinate count not a multiple of 3", "non-ucum unit",
            "unknown completion flag", "unknown verification flag",
            "unknown root relationship"])
    def test_malformed_item(self, ct_series, tmp_path, capsys,
                            value_type, corrupt, message):
        from dicomforge.cli import main
        from dicomforge.part10 import write_part10_file

        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series))
        corrupt(ds if value_type is None else first_item(ds, value_type))
        with pytest.raises(MissingContentError, match=message):
            open_sr(ds)
        path = tmp_path / "sr.dcm"
        write_part10_file(path, ds)
        assert main(["validate", str(path)]) == 1
        assert "ERROR validation" in capsys.readouterr().err

    @settings(deadline=None)
    @given(st.data())
    def test_one_foreign_attribute_opens_or_raises_a_dicomforge_error(self, data):
        ds = decode_dataset(golden_sr_bytes())
        target = data.draw(st.sampled_from([ds, *content_items(ds)]), "target")
        element = target.element(data.draw(st.sampled_from(target.tags()), "tag"))
        value = data.draw(st.none() | FOREIGN_VALUES.get(element.vr, FOREIGN_TEXT),
                          "value (None: removed)")
        if value is None:
            target.remove(element.tag)
        else:
            target.put(element.tag, value, vr=element.vr)
        try:
            open_sr(ds)
        except DicomforgeError:
            pass

    def test_evidence_references_exposed(self, ct_series):
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series))
        doc = open_sr(ds)
        assert {r.sop_instance_uid for r in doc.evidence} == {
            s.value("SOPInstanceUID") for s in ct_series
        }


def test_comprehensive_document_never_carries_3d_items(ct_series):
    # scan-after-encode: whatever a COMPREHENSIVE create accepts, the encoded
    # stream holds no SCOORD3D value type anywhere
    source = ct_series[0]
    scoord = ScoordItem(
        None, "POLYLINE", [(0, 0), (3, 3)],
        children=[ImageItem(
            None, source.value("SOPClassUID"), source.value("SOPInstanceUID"),
            relationship=RelationshipType.SELECTED_FROM,
        )],
    )
    group = planar_roi_group(TrackingIdentifier.generate(), scoord, SCT.Neoplasm)
    tree = measurement_report(OBSERVER, SCT.ImagingProcedure, [group])
    ds = create_sr(SRKind.COMPREHENSIVE, ct_series, tree)
    reread = decode_dataset(encode_dataset(ds))

    def scan(dataset):
        assert dataset.value("ValueType") != "SCOORD3D"
        for element in dataset:
            if element.vr.value == "SQ":
                for item in element.values:
                    scan(item)

    scan(reread)


class TestMeasurementGroups:
    def test_filter_by_finding(self, ct_series):
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series,
                       nodule_report(ct_series, n_groups=3))
        doc = open_sr(ds)
        assert len(doc.measurement_groups(finding=SCT.Nodule)) == 3
        assert doc.measurement_groups(finding=SCT.Neoplasm) == []

    def test_filter_by_tracking_uid(self, ct_series):
        tree = nodule_report(ct_series, n_groups=3)
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        doc = open_sr(ds)
        groups = doc.measurement_groups()
        target = groups[1].tracking.uid
        found = doc.measurement_groups(tracking_uid=target)
        assert len(found) == 1
        assert found[0].tracking.uid == target

    def test_filter_by_finding_site_and_kind(self, ct_series):
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series,
                       nodule_report(ct_series, n_groups=2))
        doc = open_sr(ds)
        assert len(doc.measurement_groups(finding_site=SCT.Lung)) == 2
        assert len(doc.measurement_groups(kind=GroupKind.PLANAR)) == 2
        assert doc.measurement_groups(kind=GroupKind.VOLUMETRIC) == []

    def test_group_projection_fields(self, ct_series):
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series))
        [group] = open_sr(ds).measurement_groups()
        assert group.finding == SCT.Nodule
        assert group.finding_sites == (SCT.Lung,)
        [(concept, value, unit)] = group.measurements
        assert concept == SCT.Diameter
        assert value == "7.5"
        assert unit == UCUM.mm
        assert group.tracking.identifier == "Nodule 1"

    def test_empty_tracking_identifier_reads_as_none(self, ct_series):
        tracking = TrackingIdentifier("1.2.3", "")
        tree = measurement_report(OBSERVER, SCT.ImagingProcedure,
                                  [measurement_group(tracking, SCT.Nodule)])
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        [group] = open_sr(decode_dataset(encode_dataset(ds))).measurement_groups()
        assert group.tracking == tracking == TrackingIdentifier("1.2.3")

    def test_group_kind_without_template_identifier(self, ct_series):
        """A foreign SR may leave TemplateIdentifier out of its groups; each
        group's kind then follows from its regions."""
        source = ct_series[0]
        for_uid = source.value("FrameOfReferenceUID")

        def contour(row):
            return ScoordItem(None, "POLYLINE", [(0, row), (5, row)], children=[ImageItem(
                None, source.value("SOPClassUID"), source.value("SOPInstanceUID"),
                relationship=RelationshipType.SELECTED_FROM)])

        seg_uid = new_uid()
        seg_stub = DataSet.of(SOPClassUID="1.2.840.10008.5.1.4.1.1.66.4",
                              SOPInstanceUID=seg_uid, SeriesInstanceUID=new_uid(),
                              StudyInstanceUID=source.value("StudyInstanceUID"))
        tracking = TrackingIdentifier.generate
        groups = [
            planar_roi_group(tracking(), polygon(for_uid), SCT.Nodule),
            planar_roi_group(tracking(), contour(1), SCT.Nodule),
            volumetric_roi_group(tracking(), SegmentReference(seg_uid, 1), SCT.Nodule),
            volumetric_roi_group(tracking(), [contour(1), contour(2)], SCT.Nodule),
            volumetric_roi_group(tracking(), [polygon(for_uid), polygon(for_uid, 2.5)],
                                 SCT.Nodule),
            measurement_group(tracking(), SCT.Neoplasm),
        ]
        ds = create_sr(SRKind.COMPREHENSIVE_3D, [*ct_series, seg_stub],
                       measurement_report(OBSERVER, SCT.ImagingProcedure, groups))
        kinds = [group.kind for group in open_sr(ds).measurement_groups()]
        assert kinds == [GroupKind.PLANAR, GroupKind.PLANAR, GroupKind.VOLUMETRIC,
                         GroupKind.VOLUMETRIC, GroupKind.VOLUMETRIC, GroupKind.IMAGE]
        stripped = [item for item in content_items(ds) if "ContentTemplateSequence" in item]
        assert len(stripped) == len(groups)
        for item in stripped:
            item.remove("ContentTemplateSequence")
        views = open_sr(decode_dataset(encode_dataset(ds))).measurement_groups()
        assert [view.container.template_id for view in views] == [None] * len(groups)
        assert [view.kind for view in views] == kinds

    def test_groups_against_find_items_independent_path(self, ct_series):
        tree = nodule_report(ct_series, n_groups=4)
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        doc = open_sr(ds)
        via_filter = doc.measurement_groups()
        via_find = doc.tree.find(name=DCM.MeasurementGroup)
        assert len(via_filter) == len(via_find) == 4
        assert [g.container for g in via_filter] == via_find


class TestGeometry:
    def test_planar_polygon_geometry(self, ct_series):
        tree = nodule_report(ct_series)
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        [group] = open_sr(ds).measurement_groups()
        region = group.geometry()
        assert isinstance(region, WorldRegion)
        assert region.points.shape == (5, 3)
        assert np.array_equal(region.points[0], region.points[-1])
        assert region.frame_of_reference_uid == ct_series[0].value("FrameOfReferenceUID")

    def test_decoded_fl_points_are_read_only_and_bit_identical(self, ct_series):
        # single-precision values a reader must keep bit for bit: negative
        # zero, the smallest subnormal, the largest finite value, 1/3
        edges = [-0.0, float(np.float32(1e-45)), float(np.finfo(np.float32).max),
                 1 / 3]
        source = ct_series[0]
        written_3d = Scoord3DItem(
            None, "POLYGON",
            [edges[:3], (edges[3], 0.0, -0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 2.5),
             edges[:3]],
            source.value("FrameOfReferenceUID"))
        written_2d = ScoordItem(
            None, "POLYLINE", [edges[:2], edges[2:]],
            children=[ImageItem(
                None, source.value("SOPClassUID"), source.value("SOPInstanceUID"),
                relationship=RelationshipType.SELECTED_FROM,
            )])
        groups = [planar_roi_group(TrackingIdentifier.generate(), region, SCT.Nodule)
                  for region in (written_3d, written_2d)]
        tree = measurement_report(OBSERVER, SCT.ImagingProcedure, groups)
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        views = open_sr(decode_dataset(encode_dataset(ds))).measurement_groups()
        [points_3d] = views[0].geometry().polygons
        points_2d = views[1].geometry().points
        for read, written in ((points_3d, written_3d), (points_2d, written_2d)):
            assert read.dtype == np.float64 and read.shape == written.points.shape
            assert not read.flags.writeable
            assert read.tobytes() == written.points.tobytes()

    @pytest.mark.parametrize("vr", ["FD", "DS"])
    def test_foreign_graphic_data_is_quantized_to_float32(self, ct_series, vr):
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, nodule_report(ct_series))
        values = [0.1, 0.2, 0.3, 10.1, 0.2, 0.3, 10.1, 10.2, 0.3, 0.1, 10.2, 0.3,
                  0.1, 0.2, 0.3]
        first_item(ds, "SCOORD3D").put(
            "GraphicData", values if vr == "FD" else [str(v) for v in values], vr=vr)
        [group] = open_sr(decode_dataset(encode_dataset(ds))).measurement_groups()
        [points] = group.geometry().polygons
        expected = np.array(values, dtype=np.float32).astype(np.float64).reshape(-1, 3)
        assert points.tobytes() == expected.tobytes()
        assert not points.flags.writeable

    def test_segment_reference_geometry(self, ct_series):
        seg_uid = new_uid()
        seg_stub = DataSet()
        seg_stub.put("SOPClassUID", "1.2.840.10008.5.1.4.1.1.66.4")
        seg_stub.put("SOPInstanceUID", seg_uid)
        seg_stub.put("StudyInstanceUID", ct_series[0].value("StudyInstanceUID"))
        seg_stub.put("SeriesInstanceUID", new_uid())
        group = volumetric_roi_group(
            TrackingIdentifier.generate(),
            SegmentReference(seg_uid, 2),
            SCT.Nodule,
        )
        tree = measurement_report(OBSERVER, SCT.ImagingProcedure, [group])
        ds = create_sr(SRKind.COMPREHENSIVE_3D, [*ct_series, seg_stub], tree)
        [view] = open_sr(ds).measurement_groups()
        region = view.geometry()
        assert region == SegmentRegion(seg_uid, 2, "1.2.840.10008.5.1.4.1.1.66.4")
        assert view.kind is GroupKind.VOLUMETRIC

    def test_image_level_group_has_no_geometry(self, ct_series):
        group = measurement_group(
            TrackingIdentifier.generate(), SCT.Neoplasm,
        )
        tree = measurement_report(OBSERVER, SCT.ImagingProcedure, [group])
        ds = create_sr(SRKind.COMPREHENSIVE_3D, ct_series, tree)
        [view] = open_sr(ds).measurement_groups()
        assert view.kind is GroupKind.IMAGE
        with pytest.raises(NoGeometryError):
            view.geometry()

    def test_planar_scoord_pixel_geometry(self, ct_series):
        source = ct_series[0]
        scoord = ScoordItem(
            None, "POLYLINE", [(0, 0), (4, 4)],
            children=[ImageItem(
                None, source.value("SOPClassUID"), source.value("SOPInstanceUID"),
                relationship=RelationshipType.SELECTED_FROM,
            )],
        )
        group = planar_roi_group(
            TrackingIdentifier.generate(), scoord, SCT.Neoplasm
        )
        tree = measurement_report(OBSERVER, SCT.ImagingProcedure, [group])
        ds = create_sr(SRKind.COMPREHENSIVE, ct_series, tree)
        [view] = open_sr(ds).measurement_groups()
        region = view.geometry()
        assert region.points.shape == (2, 2)
        assert region.source.sop_instance_uid == source.value("SOPInstanceUID")
