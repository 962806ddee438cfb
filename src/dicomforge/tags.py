"""Data element tags and the dictionary subset used by this package."""
from __future__ import annotations

import re
from types import SimpleNamespace
from typing import NamedTuple, Union

from .valuerep import VR


class _TagBase(NamedTuple):
    group: int
    element: int


class Tag(_TagBase):
    """A (group, element) pair with lexicographic ordering."""

    __slots__ = ()

    def __new__(cls, group: int, element: int):
        if not (0 <= group <= 0xFFFF and 0 <= element <= 0xFFFF):
            raise ValueError(f"tag components out of range: ({group}, {element})")
        return super().__new__(cls, group, element)

    @property
    def is_private(self) -> bool:
        return self.group % 2 == 1

    def __repr__(self) -> str:
        return f"({self.group:04X},{self.element:04X})"

    __str__ = __repr__


# (group, element, VR, keyword) for every attribute this package reads or
# writes. Implicit-VR decoding of tags outside this table falls back to UN.
_ENTRIES = [
    (0x0002, 0x0000, VR.UL, "FileMetaInformationGroupLength"),
    (0x0002, 0x0001, VR.OB, "FileMetaInformationVersion"),
    (0x0002, 0x0002, VR.UI, "MediaStorageSOPClassUID"),
    (0x0002, 0x0003, VR.UI, "MediaStorageSOPInstanceUID"),
    (0x0002, 0x0010, VR.UI, "TransferSyntaxUID"),
    (0x0002, 0x0012, VR.UI, "ImplementationClassUID"),
    (0x0002, 0x0013, VR.SH, "ImplementationVersionName"),
    (0x0008, 0x0005, VR.CS, "SpecificCharacterSet"),
    (0x0008, 0x0008, VR.CS, "ImageType"),
    (0x0008, 0x0012, VR.DA, "InstanceCreationDate"),
    (0x0008, 0x0013, VR.TM, "InstanceCreationTime"),
    (0x0008, 0x0016, VR.UI, "SOPClassUID"),
    (0x0008, 0x0018, VR.UI, "SOPInstanceUID"),
    (0x0008, 0x0020, VR.DA, "StudyDate"),
    (0x0008, 0x0021, VR.DA, "SeriesDate"),
    (0x0008, 0x0023, VR.DA, "ContentDate"),
    (0x0008, 0x0030, VR.TM, "StudyTime"),
    (0x0008, 0x0031, VR.TM, "SeriesTime"),
    (0x0008, 0x0033, VR.TM, "ContentTime"),
    (0x0008, 0x0050, VR.SH, "AccessionNumber"),
    (0x0008, 0x0060, VR.CS, "Modality"),
    (0x0008, 0x0070, VR.LO, "Manufacturer"),
    (0x0008, 0x0080, VR.LO, "InstitutionName"),
    (0x0008, 0x0090, VR.PN, "ReferringPhysicianName"),
    (0x0008, 0x0100, VR.SH, "CodeValue"),
    (0x0008, 0x0102, VR.SH, "CodingSchemeDesignator"),
    (0x0008, 0x0103, VR.SH, "CodingSchemeVersion"),
    (0x0008, 0x0104, VR.LO, "CodeMeaning"),
    (0x0008, 0x0105, VR.CS, "MappingResource"),
    (0x0008, 0x0119, VR.UC, "LongCodeValue"),
    (0x0008, 0x0120, VR.UR, "URNCodeValue"),
    (0x0008, 0x103E, VR.LO, "SeriesDescription"),
    (0x0008, 0x1090, VR.LO, "ManufacturerModelName"),
    (0x0008, 0x1115, VR.SQ, "ReferencedSeriesSequence"),
    (0x0008, 0x114A, VR.SQ, "ReferencedInstanceSequence"),
    (0x0008, 0x1150, VR.UI, "ReferencedSOPClassUID"),
    (0x0008, 0x1155, VR.UI, "ReferencedSOPInstanceUID"),
    (0x0008, 0x1160, VR.IS, "ReferencedFrameNumber"),
    (0x0008, 0x1190, VR.UR, "RetrieveURL"),
    (0x0008, 0x1197, VR.US, "FailureReason"),
    (0x0008, 0x1198, VR.SQ, "FailedSOPSequence"),
    (0x0008, 0x1199, VR.SQ, "ReferencedSOPSequence"),
    (0x0008, 0x2112, VR.SQ, "SourceImageSequence"),
    (0x0008, 0x2218, VR.SQ, "AnatomicRegionSequence"),
    (0x0008, 0x9124, VR.SQ, "DerivationImageSequence"),
    (0x0008, 0x9215, VR.SQ, "DerivationCodeSequence"),
    (0x0010, 0x0010, VR.PN, "PatientName"),
    (0x0010, 0x0020, VR.LO, "PatientID"),
    (0x0010, 0x0030, VR.DA, "PatientBirthDate"),
    (0x0010, 0x0040, VR.CS, "PatientSex"),
    (0x0018, 0x0050, VR.DS, "SliceThickness"),
    (0x0018, 0x0088, VR.DS, "SpacingBetweenSlices"),
    (0x0020, 0x000D, VR.UI, "StudyInstanceUID"),
    (0x0020, 0x000E, VR.UI, "SeriesInstanceUID"),
    (0x0020, 0x0010, VR.SH, "StudyID"),
    (0x0020, 0x0011, VR.IS, "SeriesNumber"),
    (0x0020, 0x0013, VR.IS, "InstanceNumber"),
    (0x0020, 0x0032, VR.DS, "ImagePositionPatient"),
    (0x0020, 0x0037, VR.DS, "ImageOrientationPatient"),
    (0x0020, 0x0052, VR.UI, "FrameOfReferenceUID"),
    (0x0020, 0x1040, VR.LO, "PositionReferenceIndicator"),
    (0x0020, 0x9111, VR.SQ, "FrameContentSequence"),
    (0x0020, 0x9113, VR.SQ, "PlanePositionSequence"),
    (0x0020, 0x9116, VR.SQ, "PlaneOrientationSequence"),
    (0x0020, 0x9157, VR.UL, "DimensionIndexValues"),
    (0x0020, 0x9164, VR.UI, "DimensionOrganizationUID"),
    (0x0020, 0x9165, VR.AT, "DimensionIndexPointer"),
    (0x0020, 0x9167, VR.AT, "FunctionalGroupPointer"),
    (0x0020, 0x9221, VR.SQ, "DimensionOrganizationSequence"),
    (0x0020, 0x9222, VR.SQ, "DimensionIndexSequence"),
    (0x0028, 0x0002, VR.US, "SamplesPerPixel"),
    (0x0028, 0x0004, VR.CS, "PhotometricInterpretation"),
    (0x0028, 0x0008, VR.IS, "NumberOfFrames"),
    (0x0028, 0x0010, VR.US, "Rows"),
    (0x0028, 0x0011, VR.US, "Columns"),
    (0x0028, 0x0030, VR.DS, "PixelSpacing"),
    (0x0028, 0x0100, VR.US, "BitsAllocated"),
    (0x0028, 0x0101, VR.US, "BitsStored"),
    (0x0028, 0x0102, VR.US, "HighBit"),
    (0x0028, 0x0103, VR.US, "PixelRepresentation"),
    (0x0028, 0x2110, VR.CS, "LossyImageCompression"),
    (0x0028, 0x9110, VR.SQ, "PixelMeasuresSequence"),
    (0x0040, 0x0512, VR.LO, "ContainerIdentifier"),
    (0x0040, 0x0551, VR.LO, "SpecimenIdentifier"),
    (0x0040, 0x0554, VR.UI, "SpecimenUID"),
    (0x0040, 0x0560, VR.SQ, "SpecimenDescriptionSequence"),
    (0x0040, 0x072A, VR.DS, "XOffsetInSlideCoordinateSystem"),
    (0x0040, 0x073A, VR.DS, "YOffsetInSlideCoordinateSystem"),
    (0x0040, 0x074A, VR.DS, "ZOffsetInSlideCoordinateSystem"),
    (0x0040, 0x08EA, VR.SQ, "MeasurementUnitsCodeSequence"),
    (0x0040, 0xA010, VR.CS, "RelationshipType"),
    (0x0040, 0xA027, VR.LO, "VerifyingOrganization"),
    (0x0040, 0xA030, VR.DT, "VerificationDateTime"),
    (0x0040, 0xA032, VR.DT, "ObservationDateTime"),
    (0x0040, 0xA040, VR.CS, "ValueType"),
    (0x0040, 0xA043, VR.SQ, "ConceptNameCodeSequence"),
    (0x0040, 0xA050, VR.CS, "ContinuityOfContent"),
    (0x0040, 0xA073, VR.SQ, "VerifyingObserverSequence"),
    (0x0040, 0xA075, VR.PN, "VerifyingObserverName"),
    (0x0040, 0xA120, VR.DT, "DateTime"),
    (0x0040, 0xA121, VR.DA, "Date"),
    (0x0040, 0xA122, VR.TM, "Time"),
    (0x0040, 0xA123, VR.PN, "PersonName"),
    (0x0040, 0xA124, VR.UI, "UID"),
    (0x0040, 0xA160, VR.UT, "TextValue"),
    (0x0040, 0xA168, VR.SQ, "ConceptCodeSequence"),
    (0x0040, 0xA170, VR.SQ, "PurposeOfReferenceCodeSequence"),
    (0x0040, 0xA300, VR.SQ, "MeasuredValueSequence"),
    (0x0040, 0xA301, VR.SQ, "NumericValueQualifierCodeSequence"),
    (0x0040, 0xA30A, VR.DS, "NumericValue"),
    (0x0040, 0xA360, VR.SQ, "PredecessorDocumentsSequence"),
    (0x0040, 0xA372, VR.SQ, "PerformedProcedureCodeSequence"),
    (0x0040, 0xA375, VR.SQ, "CurrentRequestedProcedureEvidenceSequence"),
    (0x0040, 0xA491, VR.CS, "CompletionFlag"),
    (0x0040, 0xA493, VR.CS, "VerificationFlag"),
    (0x0040, 0xA504, VR.SQ, "ContentTemplateSequence"),
    (0x0040, 0xA730, VR.SQ, "ContentSequence"),
    (0x0040, 0xDB00, VR.CS, "TemplateIdentifier"),
    (0x0048, 0x0006, VR.UL, "TotalPixelMatrixColumns"),
    (0x0048, 0x0007, VR.UL, "TotalPixelMatrixRows"),
    (0x0048, 0x0102, VR.DS, "ImageOrientationSlide"),
    (0x0048, 0x021A, VR.SQ, "PlanePositionSlideSequence"),
    (0x0048, 0x021E, VR.SL, "ColumnPositionInTotalImagePixelMatrix"),
    (0x0048, 0x021F, VR.SL, "RowPositionInTotalImagePixelMatrix"),
    (0x0048, 0x0301, VR.CS, "PixelOriginInterpretation"),
    (0x0062, 0x0001, VR.CS, "SegmentationType"),
    (0x0062, 0x0002, VR.SQ, "SegmentSequence"),
    (0x0062, 0x0003, VR.SQ, "SegmentedPropertyCategoryCodeSequence"),
    (0x0062, 0x0004, VR.US, "SegmentNumber"),
    (0x0062, 0x0005, VR.LO, "SegmentLabel"),
    (0x0062, 0x0006, VR.ST, "SegmentDescription"),
    (0x0062, 0x0008, VR.CS, "SegmentAlgorithmType"),
    (0x0062, 0x0009, VR.LO, "SegmentAlgorithmName"),
    (0x0062, 0x000A, VR.SQ, "SegmentIdentificationSequence"),
    (0x0062, 0x000B, VR.US, "ReferencedSegmentNumber"),
    (0x0062, 0x000E, VR.US, "MaximumFractionalValue"),
    (0x0062, 0x000F, VR.SQ, "SegmentedPropertyTypeCodeSequence"),
    (0x0062, 0x0010, VR.CS, "SegmentationFractionalType"),
    (0x0062, 0x0020, VR.UT, "TrackingID"),
    (0x0062, 0x0021, VR.UI, "TrackingUID"),
    (0x0070, 0x0022, VR.FL, "GraphicData"),
    (0x0070, 0x0023, VR.CS, "GraphicType"),
    (0x0070, 0x0080, VR.CS, "ContentLabel"),
    (0x0070, 0x0081, VR.LO, "ContentDescription"),
    (0x0070, 0x0084, VR.PN, "ContentCreatorName"),
    (0x3006, 0x0024, VR.UI, "ReferencedFrameOfReferenceUID"),
    (0x5200, 0x9229, VR.SQ, "SharedFunctionalGroupsSequence"),
    (0x5200, 0x9230, VR.SQ, "PerFrameFunctionalGroupsSequence"),
    (0x7FE0, 0x0010, VR.OB, "PixelData"),
]

DICTIONARY: dict[Tag, tuple[VR, str]] = {
    Tag(g, e): (vr, kw) for g, e, vr, kw in _ENTRIES
}
KEYWORD_TO_TAG: dict[str, Tag] = {
    kw: Tag(g, e) for g, e, vr, kw in _ENTRIES
}
# Tags as attributes (``TAGS.CodeValue``): readers that look many elements
# up pass the Tag itself and skip resolving a keyword each time.
TAGS = SimpleNamespace(**KEYWORD_TO_TAG)
# keyword -> (tag, dictionary VR), so building an element costs one lookup
KEYWORD_TO_TAG_VR: dict[str, tuple[Tag, VR]] = {
    kw: (tag, DICTIONARY[tag][0]) for kw, tag in KEYWORD_TO_TAG.items()
}

_HEX_TAG_RE = re.compile(r"^([0-9A-Fa-f]{4}),?([0-9A-Fa-f]{4})$")

TagKey = Union[Tag, str, tuple]


def resolve_key(key: TagKey) -> Tag:
    """Turn a Tag, keyword, 'GGGGEEEE'/'GGGG,EEEE' hex string, or pair into a Tag."""
    if isinstance(key, str):
        tag = KEYWORD_TO_TAG.get(key)
        if tag is not None:
            return tag
        match = _HEX_TAG_RE.match(key)
        if match:
            return Tag(int(match.group(1), 16), int(match.group(2), 16))
        raise KeyError(f"unknown attribute keyword {key!r}")
    if isinstance(key, Tag):
        return key
    if isinstance(key, tuple) and len(key) == 2:
        return Tag(int(key[0]), int(key[1]))
    raise TypeError(f"cannot interpret {key!r} as a tag")


def vr_of(tag: Tag) -> VR:
    """Dictionary VR for `tag`, UN when the tag is not in the table."""
    entry = DICTIONARY.get(tag)
    return entry[0] if entry else VR.UN


def keyword_of(tag: Tag) -> str | None:
    entry = DICTIONARY.get(tag)
    return entry[1] if entry else None
