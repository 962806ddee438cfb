"""Coded-concept semantics: equality, registries, serialization."""
import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from dicomforge.coding import (
    SCT,
    UCUM,
    CodedConcept,
    concept_equals,
    concept_from_items,
    concept_to_items,
    lookup,
    parse_code,
)
from dicomforge.dataset import DataSet
from dicomforge.errors import (
    MalformedCodeError,
    UnknownCodeError,
    UnknownSchemeError,
)


class TestEquality:
    def test_synonyms_with_same_code_are_equal(self):
        neoplasm = CodedConcept("108369006", "SCT", "Neoplasm")
        tumor = CodedConcept("108369006", "SCT", "Tumor")
        assert concept_equals(neoplasm, tumor)
        assert neoplasm == tumor

    def test_scheme_mismatch_is_unequal(self):
        a = CodedConcept("108369006", "SCT", "Neoplasm")
        b = CodedConcept("108369006", "DCM", "Neoplasm")
        assert not concept_equals(a, b)

    def test_reflexive(self):
        a = CodedConcept("121071", "DCM", "Finding")
        assert concept_equals(a, a)

    def test_versions_compared_when_present(self):
        a = CodedConcept("C1", "SCT", "x", version="2020")
        b = CodedConcept("C1", "SCT", "x", version="2021")
        assert a != b
        assert a == CodedConcept("C1", "SCT", "y", version="2020")

    def test_hash_consistent_with_equality(self):
        a = CodedConcept("108369006", "SCT", "Neoplasm")
        b = CodedConcept("108369006", "SCT", "Tumor")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


concepts = st.builds(
    CodedConcept,
    value=st.sampled_from([f"C{i}" for i in range(8)]),
    scheme=st.sampled_from(["DCM", "SCT", "UCUM"]),
    meaning=st.sampled_from(["alpha", "beta", "gamma"]),
    version=st.sampled_from([None, "v1", "v2"]),
)


@given(concepts, concepts, concepts)
def test_equivalence_relation_laws(a, b, c):
    assert concept_equals(a, a)
    assert concept_equals(a, b) == concept_equals(b, a)
    if concept_equals(a, b) and concept_equals(b, c):
        assert concept_equals(a, c)


class TestRegistry:
    def test_finding_by_code(self):
        concept = lookup("DCM", "121071")
        assert concept.value == "121071"
        assert concept.meaning == "Finding"

    def test_nodule_by_code(self):
        assert lookup("SCT", "27925004").meaning == "Nodule"

    def test_ucum_millimeter(self):
        mm = lookup("UCUM", "mm")
        assert (mm.value, mm.scheme, mm.meaning) == ("mm", "UCUM", "millimeter")

    def test_lookup_by_keyword(self):
        assert lookup("SCT", "Neoplasm").value == "108369006"

    def test_attribute_style_access(self):
        from dicomforge.coding import DCM, SCT
        assert DCM.Finding.value == "121071"
        assert SCT.Tumor == SCT.Neoplasm

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            lookup("LOINC", "1234-5")

    def test_unknown_code_names_scheme(self):
        with pytest.raises(UnknownCodeError) as excinfo:
            lookup("DCM", "does-not-exist")
        assert "DCM" in str(excinfo.value)

    def test_registry_closure(self):
        from dicomforge.coding import REGISTRIES
        for scheme, registry in REGISTRIES.items():
            for keyword in registry.keywords():
                assert lookup(scheme, keyword).scheme == scheme

    @pytest.mark.parametrize("text, expected", [
        ("SCT:Nodule", ("27925004", "SCT", "Nodule")),
        ("SCT:27925004", ("27925004", "SCT", "Nodule")),
        ("SCT:27925004:Lump", ("27925004", "SCT", "Lump")),
        ("LOINC:1234-5", ("1234-5", "LOINC", "1234-5")),
        ("99:a:b:c", ("a", "99", "b:c")),
    ])
    def test_parse_code(self, text, expected):
        concept = parse_code(text)
        assert (concept.value, concept.scheme, concept.meaning) == expected

    @pytest.mark.parametrize("text", ["", "SCT", "SCT:", ":27925004"])
    def test_parse_code_needs_scheme_and_value(self, text):
        with pytest.raises(MalformedCodeError, match="SCHEME:VALUE"):
            parse_code(text)


class TestSerialization:
    def test_round_trip_preserves_all_fields(self):
        concept = CodedConcept(
            "49755003", "SCT", "Morphologically Abnormal Structure"
        )
        items = concept_to_items(concept)
        assert items.value("CodeValue") == "49755003"
        assert items.value("CodingSchemeDesignator") == "SCT"
        assert items.value("CodeMeaning") == "Morphologically Abnormal Structure"
        back = concept_from_items(items)
        assert concept_equals(back, concept)
        assert back.meaning == concept.meaning

    def test_version_round_trips(self):
        concept = CodedConcept("C1", "SCT", "x", version="2021AA")
        back = concept_from_items(concept_to_items(concept))
        assert back.version == "2021AA"
        assert back == concept

    def test_long_code_uses_long_attribute(self):
        concept = CodedConcept("X" * 17, "99LOCAL", "long one")
        items = concept_to_items(concept)
        assert "CodeValue" not in items
        assert items.value("LongCodeValue") == "X" * 17
        back = concept_from_items(items)
        assert back == concept

    def test_missing_scheme_is_malformed(self):
        ds = DataSet()
        ds.put("CodeValue", "121071")
        with pytest.raises(MalformedCodeError):
            concept_from_items(ds)

    def test_missing_value_is_malformed(self):
        ds = DataSet()
        ds.put("CodingSchemeDesignator", "DCM")
        ds.put("CodeMeaning", "Finding")
        with pytest.raises(MalformedCodeError):
            concept_from_items(ds)


def _report(findings, long_site: CodedConcept, clone=lambda tree: tree):
    """An SR with one planar group per finding, each at `long_site`; UIDs
    fixed so two builds differ only where the code items do. The report is
    built around `clone(tree)`."""
    from conftest import make_ct_source
    from dicomforge.sr import (
        NumItem, ObserverContext, Scoord3DItem, SRKind, SRMeta,
        TrackingIdentifier, create_sr, measurement_report, planar_roi_group,
    )

    source = make_ct_source(study_uid="2.25.10", series_uid="2.25.20",
                            sop_uid="2.25.30", frame_of_reference_uid="2.25.40")
    square = [(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0), (0, 0, 0)]
    groups = [
        planar_roi_group(
            TrackingIdentifier(f"2.25.{100 + i}", f"ROI {i}"),
            Scoord3DItem(None, "POLYGON", square, "2.25.40"),
            finding,
            finding_sites=[long_site],
            measurements=[NumItem(SCT.Area, 16.0, UCUM.mm2)],
        )
        for i, finding in enumerate(findings)
    ]
    observer = ObserverContext.device(name="detector", uid="2.25.50", version="1")
    tree = clone(measurement_report(observer, SCT.ImagingProcedure, groups))
    meta = SRMeta(series_instance_uid="2.25.60", sop_instance_uid="2.25.61")
    ds = create_sr(SRKind.COMPREHENSIVE_3D, [source], tree, meta)
    ds.put("ContentDate", "20240102")
    ds.put("ContentTime", "101500")
    return ds


class TestItemCache:
    """concept_to_items builds one item per concept object, never per code."""

    def test_same_object_returned_per_concept(self):
        assert concept_to_items(SCT.Tumor) is concept_to_items(SCT.Tumor)
        assert SCT.Tumor == SCT.Neoplasm
        assert concept_to_items(SCT.Tumor) is not concept_to_items(SCT.Neoplasm)

    def test_equal_concepts_keep_their_own_meaning_through_part10(self):
        from dicomforge.part10 import file_meta_for, read_part10, write_part10
        from dicomforge.sr import open_sr

        long_site = CodedConcept("L" * 20, "99LOCAL", "long-coded site")
        findings = [SCT.Tumor, SCT.Neoplasm, SCT.Tumor, SCT.Neoplasm]
        ds = _report(findings, long_site)
        _, back = read_part10(write_part10(file_meta_for(ds), ds))
        groups = open_sr(back).measurement_groups()
        assert [g.finding.meaning for g in groups] == ["Tumor", "Neoplasm"] * 2
        for group in groups:
            [site] = group.finding_sites
            assert (site.value, site.meaning) == ("L" * 20, "long-coded site")
        items = concept_to_items(long_site)
        assert "CodeValue" not in items
        assert items.value("LongCodeValue") == "L" * 20

    def test_reports_built_back_to_back_encode_identically(self):
        from dicomforge.part10 import file_meta_for, write_part10

        long_site = CodedConcept("L" * 20, "99LOCAL", "long-coded site")
        blobs = []
        for _ in range(2):
            ds = _report([SCT.Tumor, SCT.Neoplasm, SCT.Nodule], long_site)
            blobs.append(write_part10(file_meta_for(ds), ds))
        assert blobs[0] == blobs[1]
        # the same bytes as a report whose code items are all freshly built
        fresh = [CodedConcept(c.value, c.scheme, c.meaning)
                 for c in (SCT.Tumor, SCT.Neoplasm, SCT.Nodule)]
        ds = _report(fresh, CodedConcept("L" * 20, "99LOCAL", "long-coded site"))
        assert write_part10(file_meta_for(ds), ds) == blobs[0]


class TestCopy:
    """Copies and pickles of a concept are equal to it and build their own
    code item."""

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_concept(self, clone):
        versioned = CodedConcept("C34", "ICD10", "Lung cancer", version="2024")
        for concept in (SCT.Tumor, versioned):
            items = concept_to_items(concept)
            twin = clone(concept)
            assert twin is not concept
            assert (twin.value, twin.scheme, twin.meaning, twin.version) == (
                concept.value, concept.scheme, concept.meaning, concept.version)
            assert twin._items is None
            assert concept_to_items(twin) == items
            assert concept_to_items(twin) is not items

    def test_deep_copied_report_encodes_identically(self):
        from dicomforge.part10 import file_meta_for, write_part10

        site = CodedConcept("L" * 20, "99LOCAL", "long-coded site")
        findings = [SCT.Tumor, SCT.Neoplasm]
        blobs = [write_part10(file_meta_for(ds), ds) for ds in (
            _report(findings, site), _report(findings, site, copy.deepcopy),
        )]
        assert blobs[0] == blobs[1]
