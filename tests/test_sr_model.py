"""Content items, graphic arity rules, and template builders."""
import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from dicomforge.codec import decode_dataset, encode_dataset
from dicomforge.coding import CADSR, DCM, ICD10CM, ICDO3, SCT, UCUM, CodedConcept
from dicomforge.errors import (
    InvalidGraphicError,
    InvalidUnitError,
    MissingReferenceError,
    TemplateViolationError,
)
from dicomforge.sr import (
    CodeItem,
    ContainerItem,
    GraphicType3D,
    ImageItem,
    ImageReference,
    NumItem,
    ObserverContext,
    RelationshipType,
    ScoordItem,
    Scoord3DItem,
    SegmentReference,
    TextItem,
    TrackingIdentifier,
    ValueType,
    find_items,
    item_from_dataset,
    item_to_dataset,
    make_content_item,
    measurement_group,
    measurement_report,
    planar_roi_group,
    volumetric_roi_group,
)
from sr_strategies import content_items

FOR_UID = "1.2.840.99.5.1"


def closed_polygon(offset=0.0):
    pts = [
        (0 + offset, 0, 0),
        (10 + offset, 0, 0),
        (10 + offset, 10, 0),
        (0 + offset, 10, 0),
        (0 + offset, 0, 0),
    ]
    return Scoord3DItem(None, GraphicType3D.POLYGON, pts, FOR_UID)


class TestContentItems:
    def test_code_item_finding_neoplasm(self):
        item = CodeItem(DCM.Finding, SCT.Neoplasm)
        back = item_from_dataset(item_to_dataset(item))
        assert back == item
        assert back.value == SCT.Tumor  # synonym, same code

    def test_num_item_round_trip(self):
        item = NumItem(SCT.Diameter, 7.5, UCUM.mm)
        assert item.value == "7.5"
        back = item_from_dataset(item_to_dataset(item))
        assert back == item
        assert back.unit.scheme == "UCUM"

    def test_num_decimal_string_fidelity(self):
        item = NumItem(SCT.Volume, "0.12345678901234", UCUM.mm3)
        back = item_from_dataset(item_to_dataset(item))
        assert back.value == "0.12345678901234"

    def test_num_qualifier_round_trip(self):
        qualifier = CodedConcept("114006", "DCM", "Measurement failure")
        item = NumItem(SCT.Diameter, "0", UCUM.mm, qualifier=qualifier)
        back = item_from_dataset(item_to_dataset(item))
        assert back.qualifier == qualifier
        assert back == item

    def test_num_rejects_non_ucum_unit(self):
        with pytest.raises(InvalidUnitError):
            NumItem(SCT.Diameter, 5, CodedConcept("mm", "SCT", "millimeter"))

    def test_unclosed_3d_polygon_rejected(self):
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
        with pytest.raises(InvalidGraphicError):
            Scoord3DItem(DCM.ImageRegion, GraphicType3D.POLYGON, pts, FOR_UID)

    @pytest.mark.parametrize("graphic_type,n_points,ok", [
        ("POINT", 1, True), ("POINT", 2, False),
        ("CIRCLE", 2, True), ("CIRCLE", 3, False),
        ("ELLIPSE", 4, True), ("ELLIPSE", 2, False),
        ("POLYLINE", 2, True), ("POLYLINE", 1, False),
        ("MULTIPOINT", 1, True),
    ])
    def test_2d_arity_rules(self, graphic_type, n_points, ok):
        pts = [(float(i), float(i)) for i in range(n_points)]
        if ok:
            ScoordItem(DCM.ImageRegion, graphic_type, pts)
        else:
            with pytest.raises(InvalidGraphicError):
                ScoordItem(DCM.ImageRegion, graphic_type, pts)

    def test_ellipsoid_needs_six_points(self):
        pts = [(float(i), 0, 0) for i in range(6)]
        Scoord3DItem(None, "ELLIPSOID", pts, FOR_UID)
        with pytest.raises(InvalidGraphicError):
            Scoord3DItem(None, "ELLIPSOID", pts[:5], FOR_UID)

    def test_odd_flat_coordinate_count_rejected(self):
        with pytest.raises(InvalidGraphicError):
            ScoordItem(None, "MULTIPOINT", [1.0, 2.0, 3.0])
        with pytest.raises(InvalidGraphicError):
            Scoord3DItem(None, "MULTIPOINT", [1.0, 2.0, 3.0, 4.0], FOR_UID)

    def test_scoord3d_serialization_round_trip(self):
        item = closed_polygon()
        back = item_from_dataset(item_to_dataset(item))
        assert back == item
        assert back.frame_of_reference_uid == FOR_UID
        assert np.array_equal(back.points[0], back.points[-1])

    def test_image_item_with_segment(self):
        item = ImageItem(
            DCM.ReferencedSegment, "1.2.840.10008.5.1.4.1.1.66.4",
            "1.2.840.99.3", segment_number=2,
        )
        back = item_from_dataset(item_to_dataset(item))
        assert back == item
        assert back.segment_number == 2

    @pytest.mark.parametrize("frames", [None, [], (3, 1)])
    def test_image_item_frame_numbers_round_trip(self, frames):
        item = ImageItem(None, "1.2.840.10008.5.1.4.1.1.2", "1.2.840.99.3",
                         frame_numbers=frames)
        [reference] = item_to_dataset(item).items_of("ReferencedSOPSequence")
        assert ("ReferencedFrameNumber" in reference) == bool(frames)
        back = item_from_dataset(decode_dataset(encode_dataset(item_to_dataset(item))))
        assert back.frame_numbers == (tuple(frames) if frames else None)
        assert back == item

    def test_make_content_item_factory(self):
        item = make_content_item(
            DCM.Finding, ValueType.CODE, {"value": SCT.Nodule}
        )
        assert isinstance(item, CodeItem)
        item = make_content_item(
            SCT.Diameter, "NUM", {"value": 4, "unit": UCUM.mm}, "CONTAINS"
        )
        assert item.relationship is RelationshipType.CONTAINS

    def test_contains_children_only_under_containers(self):
        child = TextItem(DCM.TrackingIdentifier, "x", relationship="CONTAINS")
        with pytest.raises(ValueError):
            TextItem(DCM.TrackingIdentifier, "y", children=[child])
        ContainerItem(DCM.MeasurementGroup, children=[child])

    def test_children_need_relationships(self):
        orphan = TextItem(DCM.TrackingIdentifier, "x")
        with pytest.raises(ValueError):
            ContainerItem(DCM.MeasurementGroup, children=[orphan])


def lidc_style_group():
    tracking = TrackingIdentifier.generate("Nodule 1")
    evaluations = [
        CodeItem(
            CodedConcept("C45992", "NCIt", "Subtlety score"),
            CodedConcept("C45993", "NCIt", "Obvious"),
        ),
        CodeItem(
            CodedConcept("C45658", "NCIt", "Malignancy"),
            CodedConcept("C45662", "NCIt", "Highly suspicious"),
        ),
    ]
    measurements = [
        NumItem(SCT.Volume, "274.5", UCUM.mm3),
        NumItem(SCT.Diameter, "7.5", UCUM.mm),
    ]
    region = SegmentReference("1.2.840.99.88", 1)
    return planar_roi_group(
        tracking, region, SCT.Nodule,
        finding_sites=[SCT.Lung],
        measurements=measurements,
        evaluations=evaluations,
    )


class TestGroupBuilders:
    def test_lidc_style_planar_group(self):
        group = lidc_style_group()
        assert group.template_id == "1410"
        nums = group.find(value_type=ValueType.NUM)
        assert [n.name.meaning for n in nums] == ["Volume", "Diameter"]
        codes = group.find(name=DCM.Finding)
        assert codes[0].value == SCT.Nodule

    def test_minimal_group_tracking_finding_point(self):
        point = Scoord3DItem(None, "POINT", [(1, 2, 3)], FOR_UID)
        group = planar_roi_group(
            TrackingIdentifier.generate(), point, SCT.Neoplasm
        )
        assert group.find(value_type=ValueType.SCOORD3D)

    def test_missing_tracking_rejected(self):
        point = Scoord3DItem(None, "POINT", [(1, 2, 3)], FOR_UID)
        with pytest.raises(TemplateViolationError):
            planar_roi_group(None, point, SCT.Neoplasm)

    def test_scoord_region_needs_source_reference(self):
        scoord = ScoordItem(None, "POLYLINE", [(0, 0), (5, 5)])
        with pytest.raises(MissingReferenceError):
            planar_roi_group(TrackingIdentifier.generate(), scoord, SCT.Neoplasm)
        with_ref = ScoordItem(
            None, "POLYLINE", [(0, 0), (5, 5)],
            children=[ImageItem(
                None, "1.2.840.10008.5.1.4.1.1.2", "1.2.840.99.4",
                relationship=RelationshipType.SELECTED_FROM,
            )],
        )
        group = planar_roi_group(
            TrackingIdentifier.generate(), with_ref, SCT.Neoplasm
        )
        assert group.find(value_type=ValueType.SCOORD)

    def test_volumetric_group_with_segment(self):
        group = volumetric_roi_group(
            TrackingIdentifier.generate("nodule"),
            SegmentReference("1.2.840.99.88", 1),
            SCT.Nodule,
        )
        assert group.template_id == "1411"
        [image] = group.find(value_type=ValueType.IMAGE)
        assert image.segment_number == 1

    def test_volumetric_group_with_stacked_contours(self):
        group = volumetric_roi_group(
            TrackingIdentifier.generate(),
            [closed_polygon(0), closed_polygon(1)],
            SCT.Neoplasm,
        )
        assert len(group.find(value_type=ValueType.SCOORD3D)) == 2

    def test_volumetric_group_without_region_rejected(self):
        with pytest.raises(TemplateViolationError):
            volumetric_roi_group(TrackingIdentifier.generate(), [], SCT.Neoplasm)

    def test_planar_group_takes_exactly_one_region_form(self):
        # supplying several region forms at once is a usage error
        both = [closed_polygon(), SegmentReference("1.2.840.99.88", 1)]
        with pytest.raises(TypeError):
            planar_roi_group(TrackingIdentifier.generate(), both, SCT.Neoplasm)

    def test_pathology_image_level_group(self):
        group = measurement_group(
            TrackingIdentifier.generate("slide"),
            SCT.Neoplasm,
            measurements=[
                NumItem(CADSR.PercentTumorCells, "85", UCUM.percent),
            ],
            evaluations=[
                CodeItem(SCT.Morphology, ICDO3.AdenocarcinomaNOS),
                CodeItem(SCT.Topography, ICD10CM.UpperLobeBronchusOrLung),
            ],
            referenced_images=[
                ImageReference("1.2.840.10008.5.1.4.1.1.77.1.6", "1.2.840.99.6"),
            ],
        )
        assert group.template_id == "1501"
        assert not group.find(value_type=ValueType.SCOORD3D)
        [num] = group.find(value_type=ValueType.NUM)
        back = item_from_dataset(item_to_dataset(num))
        assert back.value == "85"
        assert back.unit.value == "%"


class TestMeasurementReport:
    def observer(self):
        return ObserverContext.device(
            name="tumor-detector", version="2.1", manufacturer="acme",
        )

    def test_root_concept_is_measurement_report(self):
        report = measurement_report(
            self.observer(), SCT.ImagingProcedure, [lidc_style_group()]
        )
        assert report.name == CodedConcept("126000", "DCM", "Measurement Report")
        assert report.relationship is None
        assert report.template_id == "1500"

    def test_group_count_preserved(self):
        groups = [lidc_style_group() for _ in range(3)]
        report = measurement_report(self.observer(), SCT.ImagingProcedure, groups)
        found = report.find(name=DCM.MeasurementGroup, value_type=ValueType.CONTAINER)
        assert len(found) == 3

    def test_device_observer_context_items(self):
        report = measurement_report(
            self.observer(), SCT.ImagingProcedure, [lidc_style_group()]
        )
        obs_items = report.find(relationship=RelationshipType.HAS_OBS_CONTEXT,
                                recursive=False)
        texts = [i.value for i in obs_items if i.value_type is ValueType.TEXT]
        assert "tumor-detector" in texts
        assert "2.1" in texts

    def test_empty_group_list_rejected(self):
        with pytest.raises(TemplateViolationError):
            measurement_report(self.observer(), SCT.ImagingProcedure, [])

    def test_document_order(self):
        report = measurement_report(
            self.observer(), SCT.ImagingProcedure, [lidc_style_group()]
        )
        names = [c.name.value for c in report.children]
        # observation context first, then procedure, image library, groups
        assert names[-2:] == ["111028", "126010"]
        assert "121058" in names

    def test_find_items_no_filters_counts_nodes(self):
        report = measurement_report(
            self.observer(), SCT.ImagingProcedure, [lidc_style_group()]
        )

        def count(item):
            return 1 + sum(count(c) for c in item.children)

        assert len(find_items(report)) == count(report)

    def test_find_items_filter_by_name(self):
        group = measurement_group(
            TrackingIdentifier.generate(), SCT.Neoplasm,
        )
        report = measurement_report(self.observer(), SCT.ImagingProcedure, [group])
        found = find_items(report, name=DCM.Finding)
        assert len(found) == 1
        assert found[0].value == SCT.Neoplasm


class TestImmutability:
    """Items of every class refuse assignment; clones, copies and pickles
    are equal to the item they come from."""

    @settings(deadline=None)
    @given(content_items(relationship=RelationshipType.HAS_PROPERTIES))
    def test_assignment_raises(self, item):
        for field in (*item._fields, "other"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(item, field, None)
        assert item.relationship is RelationshipType.HAS_PROPERTIES
        with pytest.raises(TypeError):
            hash(item)

    @settings(deadline=None)
    @given(content_items(relationship=RelationshipType.HAS_PROPERTIES))
    def test_clones_copies_and_pickles_are_equal(self, item):
        for twin in (item.with_relationship(RelationshipType.HAS_PROPERTIES),
                     item.with_children(item.children), copy.copy(item),
                     copy.deepcopy(item), pickle.loads(pickle.dumps(item))):
            assert type(twin) is type(item)
            assert twin is not item
            assert twin == item
        moved = item.with_relationship(RelationshipType.INFERRED_FROM)
        assert moved.relationship is RelationshipType.INFERRED_FROM
        assert item.relationship is RelationshipType.HAS_PROPERTIES
        assert moved.with_relationship(RelationshipType.HAS_PROPERTIES) == item
